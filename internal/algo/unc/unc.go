// Package unc implements the five UNC (unbounded number of clusters)
// scheduling algorithms benchmarked by Kwok & Ahmad (IPPS 1998): EZ, LC,
// DSC, MD, and DCP. UNC algorithms assume as many fully connected
// processors as needed and work by clustering: initially every node is
// its own cluster, and clusters are merged when doing so promises a
// shorter schedule (paper section 4).
//
// Every scheduler has the signature
//
//	func(g *dag.Graph) (*sched.Schedule, error)
//
// and returns a complete schedule on at most NumNodes processors, one
// processor per final cluster. The number of processors actually used is
// itself a benchmark measure (paper Figure 3a).
package unc

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/sched"
)

// Scheduler is the common signature of all UNC algorithms.
type Scheduler func(g *dag.Graph) (*sched.Schedule, error)

// Algorithms returns the five UNC algorithms by name.
func Algorithms() map[string]Scheduler {
	return map[string]Scheduler{
		"EZ":  EZ,
		"LC":  LC,
		"DSC": DSC,
		"MD":  MD,
		"DCP": DCP,
	}
}

func checkGraph(g *dag.Graph) error {
	if g == nil {
		return fmt.Errorf("unc: nil graph")
	}
	return nil
}

// runs maps algorithm names to their speed-threaded inner entry points.
var runs = map[string]func(*dag.Graph, []float64) (*sched.Schedule, error){
	"EZ":  runEZ,
	"LC":  runLC,
	"DSC": runDSC,
	"MD":  runMD,
	"DCP": runDCP,
}

// ScheduleHet runs the named UNC algorithm with per-processor speeds.
// UNC algorithms open processors as they cluster, up to one per node, so
// speeds must cover g.NumNodes() processors (at least one); every
// schedule the algorithm builds — including tentative estimates — uses
// the matching prefix, so clustering decisions see the heterogeneous
// execution times. Nil speeds reproduce the plain entry point
// byte-identically.
func ScheduleHet(name string, g *dag.Graph, speeds []float64) (*sched.Schedule, error) {
	run, ok := runs[name]
	if !ok {
		return nil, fmt.Errorf("unc: unknown algorithm %q", name)
	}
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	if speeds != nil {
		need := max(g.NumNodes(), 1)
		if len(speeds) < need {
			return nil, fmt.Errorf("unc: %d speed factors cannot cover %d processors", len(speeds), need)
		}
		for p, sp := range speeds {
			if !(sp > 0) {
				return nil, fmt.Errorf("unc: speed factor %g for processor %d must be positive", sp, p)
			}
		}
	}
	return run(g, speeds)
}

// acquire returns an empty schedule on numProcs processors with the
// optional speed prefix applied. ScheduleHet validated the vector.
func acquire(g *dag.Graph, numProcs int, speeds []float64) *sched.Schedule {
	s := sched.Acquire(g, numProcs)
	if speeds != nil {
		if err := s.SetSpeeds(speeds[:numProcs]); err != nil {
			panic(err)
		}
	}
	return s
}

// scheduleAssignment converts a node-to-cluster assignment into a
// concrete schedule: nodes are placed in the given order (which must be
// topological), each at its earliest start time on its assigned
// processor without insertion. This is the cluster-ordering step shared
// by EZ and LC, which both pass the b-level order
// algo.PriorityOrder(g, dag.BLevels(g)).
func scheduleAssignment(g *dag.Graph, order []dag.NodeID, assign []int, numProcs int, speeds []float64) *sched.Schedule {
	s := acquire(g, numProcs, speeds)
	for _, n := range order {
		est, ok := s.ESTOn(n, assign[n], false)
		if !ok {
			panic("unc: assignment order is not topological")
		}
		s.MustPlace(n, assign[n], est)
	}
	return s
}
