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
// Every algorithm is a row of one table in the paper's order, and
// ScheduleHet is the only path into it: the plain entry points
//
//	func(g *dag.Graph, numProcs int) (*sched.Schedule, error)
//
// and Algorithms are ScheduleHet with nil speeds. Each returns a
// complete, validated-by-construction schedule. The schedulers are
// deterministic: all ties break toward smaller node IDs and lower
// processor indices.
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

// algorithms is the BNP class in the paper's order. Each algorithm runs
// on an empty schedule that sched.AcquireOn prepared; a nil run, filled
// in by init, is the param combo registered under the algorithm's name.
var algorithms = []struct {
	name string
	run  func(*dag.Graph, *sched.Schedule)
}{
	{"HLFET", nil}, {"ISH", runISH}, {"ETF", nil}, {"LAST", runLAST}, {"MCP", nil}, {"DLS", nil},
}

func init() {
	for i, a := range algorithms {
		if a.run == nil {
			c, ok := param.Lookup(a.name)
			if !ok {
				panic("bnp: param combo " + a.name + " not registered")
			}
			algorithms[i].run = c.Run
		}
	}
}

// Names returns the six BNP algorithm names in the paper's order.
func Names() []string {
	out := make([]string, len(algorithms))
	for i, a := range algorithms {
		out[i] = a.name
	}
	return out
}

// Algorithms returns the six BNP algorithms by name, each its
// ScheduleHet path with nil speeds. A map has no order: Names gives the
// paper's.
func Algorithms() map[string]Scheduler {
	out := make(map[string]Scheduler, len(algorithms))
	for _, a := range algorithms {
		out[a.name] = func(g *dag.Graph, numProcs int) (*sched.Schedule, error) {
			return ScheduleHet(a.name, g, numProcs, nil)
		}
	}
	return out
}

// ScheduleHet runs the named BNP algorithm on numProcs processors with
// the given per-processor speed vector (nil for the homogeneous model,
// the plain entry points' path). The algorithms' priority attributes
// stay weight-based — only placement queries and execution times are
// speed-aware; the component schedulers of internal/algo/param add
// heterogeneity-aware selection rules.
func ScheduleHet(name string, g *dag.Graph, numProcs int, speeds []float64) (*sched.Schedule, error) {
	for _, a := range algorithms {
		if a.name != name {
			continue
		}
		s, err := sched.AcquireOn(g, numProcs, speeds)
		if err != nil {
			return nil, err
		}
		a.run(g, s)
		return s, nil
	}
	return nil, fmt.Errorf("bnp: unknown algorithm %q (have %v)", name, Names())
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
