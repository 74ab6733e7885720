package ft

import (
	"math"

	"repro/internal/obs"
	"repro/internal/pq"
	"repro/internal/sim"
)

// Event kinds, in tie-break order: completions before crashes before
// repairs at the same instant, so a task finishing exactly when its
// processor dies survives, and work never starts on a processor in the
// instant before its crash is processed.
const (
	evComplete int8 = iota
	evCrash
	evRepair
)

// event is one entry on the simulation clock: a job completion, a
// processor crash, or a processor repair.
type event struct {
	t     int64
	kind  int8
	id    int32 // job or copy index for completions, processor for crash/repair
	epoch int32 // completion validity stamp, see copyRec.epoch
}

func eventLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.id < b.id
}

// procClock is the state both engines share: the event heap and
// clock, the per-processor fail-stop draws (every uptime and downtime
// is a counter-based draw along the processor's fault sequence), the
// busy/down accounting, and the Result assembly. The clique and APN
// runtimes embed it and handle completions and the work a crash kills.
type procClock struct {
	opts   *Options
	trial  uint64
	static int64

	heap    *pq.Heap[event]
	now     int64
	horizon int64
	events  int64

	downAt   []int64 // crash time while down, -1 while up
	repairAt []int64 // scheduled repair while down, never otherwise
	faultK   []int   // per-processor fault draw counter

	busy, down []int64
	crashes    int

	pending   int // completion events in flight
	remaining int // tasks not yet finished
	makespan  int64
}

// start resets the clock for one execution of tasks tasks on numProcs
// processors and draws every processor's first crash. A clock reused
// across runs keeps its event heap and per-processor draw state
// arrays; the busy and down accounting is fresh, because the Result of
// the previous run holds it.
func (c *procClock) start(opts *Options, trial int, static int64, numProcs, tasks int) {
	heap := c.heap
	if heap == nil {
		heap = pq.New[event](eventLess)
	} else {
		heap.Reset()
	}
	*c = procClock{
		opts:      opts,
		trial:     sim.TrialSeed(opts.Sim.Seed, trial),
		static:    static,
		heap:      heap,
		downAt:    resize(c.downAt, numProcs),
		repairAt:  resize(c.repairAt, numProcs),
		faultK:    resize(c.faultK, numProcs),
		busy:      make([]int64, numProcs),
		down:      make([]int64, numProcs),
		remaining: tasks,
	}
	for p := range c.downAt {
		c.downAt[p] = -1
		c.repairAt[p] = never
	}
	if opts.Faults.MTBF > 0 {
		for p := range c.downAt {
			c.heap.Push(event{t: c.nextFault(p, opts.Faults.MTBF), kind: evCrash, id: int32(p)})
		}
	}
}

// nextFault draws the next duration along processor p's fault
// sequence: uptimes and downtimes alternate.
func (c *procClock) nextFault(p int, mean int64) int64 {
	d := sim.ExpDuration(mean, c.trial, sim.ProcFaultEntity(p, c.faultK[p]))
	c.faultK[p]++
	return d
}

// next pops the earliest event and advances the clock to it.
func (c *procClock) next() event {
	ev := c.heap.Pop()
	c.events++
	c.now = ev.t
	if ev.t > c.horizon {
		c.horizon = ev.t
	}
	return ev
}

// crash takes processor p down at the current clock and schedules its
// repair when the model allows one. The caller kills p's work.
func (c *procClock) crash(p int) {
	c.crashes++
	c.downAt[p] = c.now
	c.repairAt[p] = never
	if c.opts.Faults.MeanRepair > 0 {
		c.repairAt[p] = c.now + c.nextFault(p, c.opts.Faults.MeanRepair)
		c.heap.Push(event{t: c.repairAt[p], kind: evRepair, id: int32(p)})
	}
}

// repair returns processor p to service at the current clock, accounts
// its downtime, and draws its next crash.
func (c *procClock) repair(p int) {
	c.down[p] += c.now - c.downAt[p]
	c.downAt[p] = -1
	c.repairAt[p] = never
	c.heap.Push(event{t: c.now + c.nextFault(p, c.opts.Faults.MTBF), kind: evCrash, id: int32(p)})
}

// result assembles the run's Result and folds it into the ft.*
// metrics. Trailing downtime is clamped to the horizon so Busy + Idle
// + Down partitions each processor's share of it exactly. A run
// finishes when no task remains and the engine did not abort.
func (c *procClock) result(aborted bool) Result {
	if obs.MetricsEnabled() {
		ftRuns.Inc()
		ftEvents.Add(c.events)
		ftCrashes.Add(int64(c.crashes))
		ftLost.Add(int64(c.remaining))
	}
	res := Result{
		Static:  c.static,
		Horizon: c.horizon,
		Crashes: c.crashes,
		Lost:    c.remaining,
		Busy:    c.busy,
		Down:    c.down,
		Idle:    make([]int64, len(c.busy)),
	}
	for p := range res.Idle {
		if c.downAt[p] >= 0 && c.horizon > c.downAt[p] {
			res.Down[p] += c.horizon - c.downAt[p]
		}
		res.Idle[p] = c.horizon - res.Busy[p] - res.Down[p]
	}
	if c.remaining == 0 && !aborted {
		res.Finished = true
		res.Makespan = c.makespan
		res.Ratio = ratio(c.makespan, c.static)
	} else {
		res.Ratio = math.Inf(1)
	}
	return res
}
