// Command perfbench is the repository's benchmark: it generates one
// workload's inputs from a seed, times a single-goroutine body of calls
// into the layers' exported functions (gen, dag, core.Algorithm.Run
// with algo/sched/machine beneath it, sim, ft), checks the outputs, and
// prints one JSON result line. See README.md in this directory.
//
//	go run . --workload paper-grid --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/obs"
)

// body is a workload with its inputs built: the timed rounds and the
// checks too costly to run inside them.
type body interface {
	// round runs one pass of the timed body. tr is nil when untraced.
	round(tr *tracer) outcome
	check(tr *tracer, c *checks)
}

type workload struct {
	name string
	// setup builds the inputs from the seed and runs one untimed
	// warm-up slice, so pools and lazy initialisation are filled.
	setup func(seed int64, tr *tracer) (body, error)
}

var workloads = []workload{
	{"paper-grid", setupPaperGrid},
	{"faults", setupFaults},
	{"million", setupMillion},
}

// setups is how many times a run builds its inputs; setup_s is the
// median of their CPU times.
const setups = 5

// maxProcs bounds GOMAXPROCS: the body is one goroutine, and the
// runtime's GC workers get at most one more processor.
const maxProcs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-grid, faults or million")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long the timed body runs")
	trace := fs.Int("trace", 0, "1 adds one traced round and reports the per-layer metrics instead")
	traceOut := fs.String("trace-out", "", "span JSON of a traced run (default .bench_build/perfbench-trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload paper-grid|faults|million, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	d := time.Duration(*seconds) * time.Second
	var (
		res    result
		digest string
		err    error
	)
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = fmt.Sprintf(".bench_build/perfbench-trace-%s-%d.json", w.name, *seed)
		}
		res, digest, err = tracedRun(w, *seed, d, path, stderr)
	} else {
		res, digest, err = measuredRun(w, *seed, d, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "digest %s %s\n", w.name, digest)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// tally folds the rounds' outcomes and the checks into the result's
// counts and returns the first round's digest. Every round must repeat
// the first one's digest; a round that does not counts as failed.
func tally(res *result, t timing, c *checks, stderr io.Writer) string {
	first := t.outcomes[0].digest
	for _, o := range t.outcomes {
		res.Attempted += o.ops
		res.Failed += o.failed
		if o.digest != first {
			res.Failed += o.ops - o.failed
			c.fail("a round's op results differ from the first round's")
		}
	}
	res.Failed = min(res.Attempted, res.Failed+c.failed)
	res.Correct = res.Failed == 0
	for _, m := range c.msgs {
		fmt.Fprintln(stderr, "perfbench: check failed:", m)
	}
	return hex.EncodeToString(first[:])
}

// measuredRun is the untraced run that reports the end-to-end metrics.
func measuredRun(w *workload, seed int64, d time.Duration, stderr io.Writer) (result, string, error) {
	var (
		b    body
		err  error
		cpus []float64
	)
	for i := 0; i < setups; i++ {
		b = nil // the previous set-up's inputs are garbage before the next is built
		runtime.GC()
		start := processCPU()
		if b, err = w.setup(seed, nil); err != nil {
			return result{}, "", err
		}
		cpus = append(cpus, (processCPU() - start).Seconds())
	}
	t := timeRounds(func() outcome { return b.round(nil) }, d)
	rssKB := obs.PeakRSSKB()
	var c checks
	checkStart := time.Now()
	b.check(nil, &c)
	checkWall := time.Since(checkStart)

	res := result{Metrics: map[string]metric{}}
	digest := tally(&res, t, &c, stderr)
	first := t.outcomes[0]
	// Workloads without faults report the survival of the checks'
	// fault-free executions.
	survival := div(float64(c.ffSurvived), float64(c.ffRuns))
	if first.faulty > 0 {
		survival = float64(first.survived) / float64(first.faulty)
	}
	put := func(name string, v float64) { res.Metrics[name] = metric{v, endToEnd[name]} }
	put("setup_s", median(cpus))
	put("wall_s", t.medianOf(func(r roundStat) float64 { return (r.wall - r.steal).Seconds() }))
	put("ops_per_s", t.medianOf(func(r roundStat) float64 { return div(float64(r.ops), r.cpu.Seconds()) }))
	put("alloc_mb", t.medianOf(func(r roundStat) float64 { return float64(r.alloc) / 1e6 }))
	put("peak_rss_mb", float64(rssKB)/1024)
	put("mean_nsl", first.meanNSL)
	put("survival_rate", survival)
	for i, r := range t.rounds {
		fmt.Fprintf(stderr, "perfbench: round %d wall_s=%.3f steal_s=%.2f cpu_s=%.3f ops=%d alloc_mb=%.1f\n",
			i, r.wall.Seconds(), r.steal.Seconds(), r.cpu.Seconds(), r.ops, float64(r.alloc)/1e6)
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d rounds=%d fail_frac=%g steal_frac=%.4f gc_cycles=%d gc_cpu_frac=%.4f check_s=%.2f\n",
		w.name, seed, len(t.rounds), div(float64(res.Failed), float64(res.Attempted)), t.steal, t.gcCycles, t.gcFrac, checkWall.Seconds())
	return res, digest, nil
}

// endToEnd maps each end-to-end metric to its unit.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"wall_s":        "s",
	"ops_per_s":     "1/s",
	"alloc_mb":      "MB",
	"peak_rss_mb":   "MB",
	"mean_nsl":      "ratio",
	"survival_rate": "ratio",
}

// tracedRun builds the inputs once with spans on and times untraced
// rounds for d. Then it runs exactly one traced round between two
// untraced ones, which are the baseline of the tracing overhead, and
// the traced checks. The per-layer metrics come from the spans; obs
// metrics are enabled only while tracing.
func tracedRun(w *workload, seed int64, d time.Duration, path string, stderr io.Writer) (result, string, error) {
	tr := newTracer()
	obs.ResetMetrics()
	obs.EnableMetrics(true)
	id := tr.begin("bench.setup")
	b, err := w.setup(seed, tr)
	tr.end(id, 0)
	obs.EnableMetrics(false)
	if err != nil {
		return result{}, "", err
	}
	untraced := timeRounds(func() outcome { return b.round(nil) }, d)
	obs.EnableMetrics(true)
	traced := timeRounds(func() outcome {
		id := tr.begin("bench.round")
		o := b.round(tr)
		tr.end(id, o.ops)
		return o
	}, 0)
	obs.EnableMetrics(false)
	after := timeRounds(func() outcome { return b.round(nil) }, 0)
	obs.EnableMetrics(true)
	var c checks
	id = tr.begin("bench.check")
	b.check(tr, &c)
	tr.end(id, 0)
	obs.EnableMetrics(false)

	res := result{Metrics: map[string]metric{}}
	all := timing{
		rounds:   append(append(untraced.rounds, traced.rounds...), after.rounds...),
		outcomes: append(append(untraced.outcomes, traced.outcomes...), after.outcomes...),
	}
	digest := tally(&res, all, &c, stderr)
	// The machine's speed drifts over seconds, so the baseline is the
	// untraced rounds on either side of the traced one.
	base := (untraced.rounds[len(untraced.rounds)-1].wall + after.rounds[0].wall).Seconds() / 2
	overhead := traced.rounds[0].wall.Seconds()/base - 1
	for name, m := range layerMetrics(tr, obs.SnapshotMetrics(), untraced, overhead) {
		res.Metrics[name] = m
	}
	if err := tr.writeJSON(path); err != nil {
		return result{}, "", fmt.Errorf("writing spans: %w", err)
	}
	return res, digest, nil
}

// div returns a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
