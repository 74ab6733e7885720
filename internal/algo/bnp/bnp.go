// Package bnp implements the six BNP (bounded number of processors)
// scheduling algorithms benchmarked by Kwok & Ahmad (IPPS 1998): HLFET,
// ISH, MCP, ETF, DLS, and LAST. All assume a fully connected,
// contention-free set of homogeneous processors (the clique model of
// internal/sched).
//
// HLFET, MCP, ETF and DLS are single points of the list-scheduling
// component space of internal/algo/param and run on its engine under
// their registered combos; this package keeps their paper-facing entry
// points. ISH (hole filling) and LAST (D_NODE selection) lie outside
// that space and have their own loops here.
//
// Every scheduler has the signature
//
//	func(g *dag.Graph, numProcs int) (*sched.Schedule, error)
//
// and returns a complete, validated-by-construction schedule. The
// schedulers are deterministic: all ties break toward smaller node IDs
// and lower processor indices.
package bnp

import (
	"fmt"
	"sync"

	"repro/internal/algo/param"
	"repro/internal/dag"
	"repro/internal/sched"
)

// Scheduler is the common signature of all BNP algorithms.
type Scheduler func(g *dag.Graph, numProcs int) (*sched.Schedule, error)

// Algorithms returns the six BNP algorithms by name. A map has no
// order: callers that need one (the paper's tables, a deterministic
// search) fix it themselves.
func Algorithms() map[string]Scheduler {
	return map[string]Scheduler{
		"HLFET": HLFET,
		"ISH":   ISH,
		"ETF":   ETF,
		"LAST":  LAST,
		"MCP":   MCP,
		"DLS":   DLS,
	}
}

// HLFET is the Highest Level First with Estimated Times algorithm of
// Adam, Chandy and Dickson (1974): the ready node with the highest
// static level goes next, onto the processor where it starts earliest,
// without insertion. It runs the combo sl/est/ni/st, whose ReadyHeap
// keeps it near-linear even on million-node graphs.
func HLFET(g *dag.Graph, numProcs int) (*sched.Schedule, error) {
	return ScheduleHet("HLFET", g, numProcs, nil)
}

// MCP is the Modified Critical Path algorithm of Wu and Gajski (1990):
// nodes go in ascending lexicographic order of their ALAP lists (own
// ALAP time, then every descendant's, sorted), each onto the processor
// where it starts earliest, with insertion into idle slots (combo
// alap/est/ins/st). The paper finds MCP the best BNP algorithm overall
// and the fastest despite its static priorities (section 7).
func MCP(g *dag.Graph, numProcs int) (*sched.Schedule, error) {
	return ScheduleHet("MCP", g, numProcs, nil)
}

// ETF is the Earliest Time First algorithm of Hwang, Chow, Anger and Lee
// (1989): each step places the (ready node, processor) pair with the
// smallest earliest start time, ties toward the higher static level,
// then the smaller node ID and lower processor index, without insertion
// (combo sl/est/ni/dy). The paper's O(p·v²) pair scan is replaced by the
// engine's incremental per-node cache; the schedule is identical.
func ETF(g *dag.Graph, numProcs int) (*sched.Schedule, error) {
	return ScheduleHet("ETF", g, numProcs, nil)
}

// DLS is the Dynamic Level Scheduling algorithm of Sih and Lee (1993) in
// its BNP form (the APN form lives in internal/algo/apn): each step
// places the pair with the largest dynamic level
//
//	DL(n, p) = SL(n) − EST(n, p),
//
// SL being the static level, without insertion (combo dl/est/ni/dy).
func DLS(g *dag.Graph, numProcs int) (*sched.Schedule, error) {
	return ScheduleHet("DLS", g, numProcs, nil)
}

func checkArgs(g *dag.Graph, numProcs int) error {
	if g == nil {
		return fmt.Errorf("bnp: nil graph")
	}
	if numProcs < 1 {
		return fmt.Errorf("bnp: need at least one processor, got %d", numProcs)
	}
	return nil
}

// runs maps the algorithms with their own loops to those loops, which
// operate on a prepared (possibly heterogeneous) schedule.
var runs = map[string]func(*dag.Graph, *sched.Schedule){
	"ISH":  runISH,
	"LAST": runLAST,
}

// combos maps the algorithms that are points of the component space to
// their registered param combos.
var combos = map[string]param.Combo{}

func init() {
	for _, name := range []string{"HLFET", "MCP", "ETF", "DLS"} {
		c, ok := param.Lookup(name)
		if !ok {
			panic("bnp: param combo " + name + " not registered")
		}
		combos[name] = c
	}
}

// runBNP is the shared entry path of ISH and LAST: validate, acquire a
// schedule, optionally make it heterogeneous, and hand it to the
// algorithm's inner loop.
func runBNP(g *dag.Graph, numProcs int, speeds []float64, run func(*dag.Graph, *sched.Schedule)) (*sched.Schedule, error) {
	if err := checkArgs(g, numProcs); err != nil {
		return nil, err
	}
	s := sched.Acquire(g, numProcs)
	if speeds != nil {
		if err := s.SetSpeeds(speeds); err != nil {
			s.Release()
			return nil, err
		}
	}
	run(g, s)
	return s, nil
}

// ScheduleHet runs the named BNP algorithm on numProcs processors with
// the given per-processor speed vector (nil for the homogeneous model,
// where the result is byte-identical to the plain entry point). The
// algorithms' priority attributes stay weight-based — only placement
// queries and execution times are speed-aware; the component schedulers
// of internal/algo/param add heterogeneity-aware selection rules.
func ScheduleHet(name string, g *dag.Graph, numProcs int, speeds []float64) (*sched.Schedule, error) {
	if c, ok := combos[name]; ok {
		return c.Schedule(g, numProcs, speeds)
	}
	run, ok := runs[name]
	if !ok {
		return nil, fmt.Errorf("bnp: unknown algorithm %q", name)
	}
	return runBNP(g, numProcs, speeds, run)
}

// scratch is the pooled per-run working state of ISH and LAST: the
// level attributes, reused across runs.
type scratch struct {
	lv dag.Levels
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// acquireScratch returns pooled scratch with levels computed for g.
func acquireScratch(g *dag.Graph) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.lv.Compute(g)
	return sc
}

func (sc *scratch) release() { scratchPool.Put(sc) }
