// Package apn implements the four APN (arbitrary processor network)
// scheduling algorithms benchmarked by Kwok & Ahmad (IPPS 1998): MH,
// DLS, BU, and BSA. APN algorithms drop the clique assumption: the
// processors form an arbitrary topology with contention-prone links, and
// the algorithms schedule messages on links in addition to tasks on
// processors (paper section 4), using the store-and-forward model of
// internal/machine.
//
// Every algorithm is a row of one table in the paper's order, and
// ScheduleHet is the only path into it: the plain entry points
//
//	func(g *dag.Graph, topo *machine.Topology) (*machine.Schedule, error)
//
// and Algorithms are ScheduleHet with nil speeds.
package apn

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/machine"
)

// Scheduler is the common signature of all APN algorithms.
type Scheduler func(g *dag.Graph, topo *machine.Topology) (*machine.Schedule, error)

// algorithms is the APN class in the paper's order. Each algorithm
// takes the speed vector ScheduleHet was given, nil for the homogeneous
// model, and applies it through newSchedule or machine.NewReplay.
var algorithms = []struct {
	name string
	run  func(*dag.Graph, *machine.Topology, []float64) (*machine.Schedule, error)
}{
	{"MH", runMH}, {"DLS", runDLS}, {"BU", runBU}, {"BSA", runBSA},
}

// Names returns the four APN algorithm names in the paper's order.
func Names() []string {
	out := make([]string, len(algorithms))
	for i, a := range algorithms {
		out[i] = a.name
	}
	return out
}

// Algorithms returns the four APN algorithms by name, each its
// ScheduleHet path with nil speeds.
func Algorithms() map[string]Scheduler {
	out := make(map[string]Scheduler, len(algorithms))
	for _, a := range algorithms {
		out[a.name] = func(g *dag.Graph, topo *machine.Topology) (*machine.Schedule, error) {
			return ScheduleHet(a.name, g, topo, nil)
		}
	}
	return out
}

// ScheduleHet runs the named APN algorithm with per-processor speeds
// (one factor per topology processor, judged by SetSpeeds; nil for the
// homogeneous model, the plain entry points' path). Placement queries,
// migration evaluations, and committed execution times are speed-aware;
// link transfer costs are unaffected.
func ScheduleHet(name string, g *dag.Graph, topo *machine.Topology, speeds []float64) (*machine.Schedule, error) {
	for _, a := range algorithms {
		if a.name != name {
			continue
		}
		if g == nil {
			return nil, fmt.Errorf("apn: nil graph")
		}
		if topo == nil {
			return nil, fmt.Errorf("apn: nil topology")
		}
		return a.run(g, topo, speeds)
	}
	return nil, fmt.Errorf("apn: unknown algorithm %q (have %v)", name, Names())
}

// newSchedule builds an empty schedule with the optional speeds applied.
func newSchedule(g *dag.Graph, topo *machine.Topology, speeds []float64) (*machine.Schedule, error) {
	s := machine.NewSchedule(g, topo)
	if speeds != nil {
		if err := s.SetSpeeds(speeds); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// cpnDominantOrder returns the CPN-dominant sequence of the graph used
// by BSA: critical-path nodes appear as early as their precedence
// constraints allow, each preceded by its not-yet-listed ancestors
// (in-branch nodes) in descending b-level order; the remaining
// (out-branch) nodes follow, also by descending b-level.
func cpnDominantOrder(g *dag.Graph) []dag.NodeID {
	bl := dag.BLevels(g)
	cp := dag.CriticalPath(g)
	emitted := make([]bool, g.NumNodes())
	ready := algo.AcquireReadyHeap(g, bl)
	defer ready.Release()
	order := make([]dag.NodeID, 0, g.NumNodes())

	// emit appends n, which the caller has taken out of the heap.
	emit := func(n dag.NodeID) {
		ready.MarkScheduled(g, n)
		emitted[n] = true
		order = append(order, n)
	}
	// ancestorsOf marks all strict ancestors of c.
	ancestorsOf := func(c dag.NodeID) []bool {
		anc := make([]bool, g.NumNodes())
		stack := []dag.NodeID{c}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range g.Preds(x) {
				if !anc[p.To] {
					anc[p.To] = true
					stack = append(stack, p.To)
				}
			}
		}
		return anc
	}

	for _, c := range cp {
		if emitted[c] {
			continue
		}
		anc := ancestorsOf(c)
		// Drain the ready ancestors of c (highest b-level first) until c
		// itself becomes ready, then emit c.
		for {
			candidate := dag.None
			for _, r := range ready.Ready() {
				if r == c {
					continue
				}
				if !anc[r] {
					continue
				}
				if candidate == dag.None || bl[r] > bl[candidate] ||
					(bl[r] == bl[candidate] && r < candidate) {
					candidate = r
				}
			}
			if candidate == dag.None {
				break
			}
			ready.Remove(candidate)
			emit(candidate)
		}
		ready.Remove(c)
		emit(c)
	}
	// Out-branch nodes: descending b-level, topologically consistent.
	for !ready.Empty() {
		emit(ready.PopMax())
	}
	return order
}
