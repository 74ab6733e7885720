package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// TraceFormat selects the serialization of a decision trace.
type TraceFormat int

const (
	// TraceJSONL writes one JSON object per line: a "run" header per
	// scheduling run followed by its "place" records. The format is
	// grep- and jq-friendly and is the one the trace schema in
	// docs/observability.md documents field by field.
	TraceJSONL TraceFormat = iota
	// TraceChrome writes Chrome trace-event JSON ("X" complete events,
	// one pid per scheduling run, one tid per processor), so the file
	// opens directly in Perfetto (ui.perfetto.dev) or chrome://tracing
	// as a per-processor Gantt timeline.
	TraceChrome
)

// TraceFormatForPath picks the format from a file name: ".jsonl" means
// TraceJSONL, anything else (conventionally ".json") TraceChrome.
func TraceFormatForPath(path string) TraceFormat {
	if strings.HasSuffix(path, ".jsonl") {
		return TraceJSONL
	}
	return TraceChrome
}

// Candidate is one processor considered for a placement, with the
// earliest start time the scheduler saw there.
type Candidate struct {
	Proc int32
	EST  int64
}

// Tracer serializes scheduler decision records. One tracer serves one
// serial stream of scheduling runs: install it with SetTracer, bracket
// each run with BeginRun/EndRun (internal/core does this in RunOn), and
// the placement hooks in internal/sched and internal/machine emit one
// record per committed task. Concurrent runs would interleave records,
// so callers enabling tracing must run cells serially — dagbench -trace
// forces -workers=1.
//
// Tracing never changes scheduler behavior: hooks only read schedule
// state, and every record is emitted after the decision it describes
// was already taken.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer
	format TraceFormat
	err    error

	headed  bool // Chrome: array opened
	wrote   bool // Chrome: needs a comma before the next event
	inRun   atomic.Bool
	runID   int32
	step    int32
	pendExp string // instance labels staged by SetInstance
	pendIns string

	// One-shot priority stash: kernels report the priority value that
	// selected the next node just before placing it; the placement hook
	// attaches it to the matching record.
	prioNode int32
	prio     int64
	hasPrio  bool

	candBuf []Candidate // reusable scratch handed out via CandidateBuf
}

// NewTracer returns a tracer writing to w in the given format. Call
// Close when done; for TraceChrome it terminates the JSON document.
func NewTracer(w io.Writer, format TraceFormat) *Tracer {
	return &Tracer{w: w, format: format}
}

// active is the installed tracer; nil (the steady state) makes every
// hook a single atomic load and nil check.
var active atomic.Pointer[Tracer]

// SetTracer installs t as the process-wide tracer; nil uninstalls.
func SetTracer(t *Tracer) { active.Store(t) }

// ActiveTracer returns the installed tracer, or nil. Hot paths call
// this once and skip all tracing work on nil.
func ActiveTracer() *Tracer { return active.Load() }

// SetInstance stages the experiment and instance labels for the next
// BeginRun: the cell planner knows which named graph a run is for, the
// algorithm runner does not.
func (t *Tracer) SetInstance(exp, instance string) {
	t.mu.Lock()
	t.pendExp, t.pendIns = exp, instance
	t.mu.Unlock()
}

// BeginRun opens a scheduling-run context: subsequent placement records
// attach to it. It emits the run header (JSONL) or the process/thread
// metadata (Chrome) naming the run after the algorithm and the staged
// instance labels.
func (t *Tracer) BeginRun(alg, class string, v, procs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runID++
	t.step = 0
	t.hasPrio = false
	label := alg
	if t.pendIns != "" {
		label += " " + t.pendIns
	}
	if t.pendExp != "" {
		label = t.pendExp + ": " + label
	}
	switch t.format {
	case TraceJSONL:
		t.printf("{\"type\":\"run\",\"id\":%d,\"exp\":%s,\"instance\":%s,\"alg\":%s,\"class\":%s,\"v\":%d,\"procs\":%d}\n",
			t.runID, strconv.Quote(t.pendExp), strconv.Quote(t.pendIns),
			strconv.Quote(alg), strconv.Quote(class), v, procs)
	case TraceChrome:
		t.chromeHead()
		t.chromeEvent("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%s}}",
			t.runID, strconv.Quote(label))
		t.chromeEvent("{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"sort_index\":%d}}",
			t.runID, t.runID)
		for p := 0; p < procs; p++ {
			t.chromeEvent("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"P%d\"}}",
				t.runID, p, p)
			t.chromeEvent("{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"sort_index\":%d}}",
				t.runID, p, p)
		}
	}
	t.pendExp, t.pendIns = "", ""
	t.inRun.Store(true)
}

// EndRun closes the current run context; placements outside a run are
// not recorded (this is what keeps bulk replays — branch-and-bound
// probes, fault-repair passes — out of the trace).
func (t *Tracer) EndRun() { t.inRun.Store(false) }

// InRun reports whether a run context is open. The placement hooks
// check it before doing any work, so schedule mutations outside
// BeginRun/EndRun (pool warmup, repair passes, backtracking search)
// cost only the check.
func (t *Tracer) InRun() bool { return t.inRun.Load() }

// Priority stages the priority value that selected node for the
// immediately following placement. Kernels call it right before Place;
// the value is attached to the next record for that node and dropped
// otherwise.
func (t *Tracer) Priority(node int32, prio int64) {
	t.mu.Lock()
	t.prioNode, t.prio, t.hasPrio = node, prio, true
	t.mu.Unlock()
}

// TracePriority stages node's selection priority on the active tracer
// when a run is open (see Priority). The disabled path is one atomic
// load and a nil check; schedulers call it once per placement, not per
// candidate. What each algorithm stages is documented in
// docs/observability.md.
func TracePriority(node int32, prio int64) {
	if t := ActiveTracer(); t != nil && t.InRun() {
		t.Priority(node, prio)
	}
}

// CandidateBuf returns a reusable empty candidate slice; the placement
// hook fills it and hands it back through Placement, so steady-state
// traced runs do not grow garbage per record.
func (t *Tracer) CandidateBuf() []Candidate {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.candBuf[:0]
}

// Placement records one committed task placement: the chosen slot, the
// insertion/append distinction, the candidate processors with the ESTs
// the scheduler saw, and the kernel-reported priority value when one
// was staged for this node.
func (t *Tracer) Placement(node, proc int32, start, finish int64, insertion bool, cands []Candidate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.candBuf = cands // reclaim the scratch for the next record
	prio, hasPrio := t.prio, t.hasPrio && t.prioNode == node
	t.hasPrio = false
	step := t.step
	t.step++
	switch t.format {
	case TraceJSONL:
		var b strings.Builder
		fmt.Fprintf(&b, "{\"type\":\"place\",\"run\":%d,\"step\":%d,\"node\":%d,\"proc\":%d,\"start\":%d,\"finish\":%d,\"insertion\":%t",
			t.runID, step, node, proc, start, finish, insertion)
		if hasPrio {
			fmt.Fprintf(&b, ",\"priority\":%d", prio)
		}
		if len(cands) > 0 {
			b.WriteString(",\"cands\":[")
			for i, c := range cands {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "{\"p\":%d,\"est\":%d}", c.Proc, c.EST)
			}
			b.WriteByte(']')
		}
		b.WriteString("}\n")
		t.printf("%s", b.String())
	case TraceChrome:
		t.chromeHead()
		var b strings.Builder
		fmt.Fprintf(&b, "{\"name\":\"n%d\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":{\"step\":%d,\"insertion\":%t",
			node, t.runID, proc, start, finish-start, step, insertion)
		if hasPrio {
			fmt.Fprintf(&b, ",\"priority\":%d", prio)
		}
		if len(cands) > 0 {
			b.WriteString(",\"cands\":\"")
			for i, c := range cands {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "P%d@%d", c.Proc, c.EST)
			}
			b.WriteByte('"')
		}
		b.WriteString("}}")
		t.chromeEvent("%s", b.String())
	}
}

// Close terminates the stream (the Chrome format needs its array and
// document closed) and returns the first write error, if any.
func (t *Tracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inRun.Store(false)
	if t.format == TraceChrome {
		if !t.headed {
			t.chromeHead()
		}
		t.printf("\n]}\n")
	}
	return t.err
}

// chromeHead opens the trace-event document once.
func (t *Tracer) chromeHead() {
	if t.headed {
		return
	}
	t.headed = true
	t.printf("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
}

// chromeEvent writes one event, comma-separated from the previous one.
func (t *Tracer) chromeEvent(format string, args ...any) {
	if t.wrote {
		t.printf(",\n")
	} else {
		t.printf("\n")
	}
	t.wrote = true
	t.printf(format, args...)
}

// printf writes to the underlying writer, retaining the first error.
func (t *Tracer) printf(format string, args ...any) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}
