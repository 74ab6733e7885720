// Package unc implements the five UNC (unbounded number of clusters)
// scheduling algorithms benchmarked by Kwok & Ahmad (IPPS 1998): EZ, LC,
// DSC, MD, and DCP. UNC algorithms assume as many fully connected
// processors as needed and work by clustering: initially every node is
// its own cluster, and clusters are merged when doing so promises a
// shorter schedule (paper section 4).
//
// Every algorithm is a row of one table in the paper's order, and
// ScheduleHet is the only path into it: the plain entry points
//
//	func(g *dag.Graph) (*sched.Schedule, error)
//
// and Algorithms are ScheduleHet with nil speeds. Each returns a
// complete schedule on at most NumNodes processors, one processor per
// final cluster. The number of processors actually used is itself a
// benchmark measure (paper Figure 3a).
package unc

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/sched"
)

// Scheduler is the common signature of all UNC algorithms.
type Scheduler func(g *dag.Graph) (*sched.Schedule, error)

// algorithms is the UNC class in the paper's order. Each algorithm
// takes the graph and the speed vector ScheduleHet checked, nil for the
// homogeneous model.
var algorithms = []struct {
	name string
	run  func(*dag.Graph, []float64) (*sched.Schedule, error)
}{
	{"EZ", runEZ}, {"LC", runLC}, {"DSC", runDSC}, {"MD", runMD}, {"DCP", runDCP},
}

// Names returns the five UNC algorithm names in the paper's order.
func Names() []string {
	out := make([]string, len(algorithms))
	for i, a := range algorithms {
		out[i] = a.name
	}
	return out
}

// Algorithms returns the five UNC algorithms by name, each its
// ScheduleHet path with nil speeds.
func Algorithms() map[string]Scheduler {
	out := make(map[string]Scheduler, len(algorithms))
	for _, a := range algorithms {
		out[a.name] = func(g *dag.Graph) (*sched.Schedule, error) { return ScheduleHet(a.name, g, nil) }
	}
	return out
}

// ScheduleHet runs the named UNC algorithm with per-processor speeds.
// UNC algorithms open processors as they cluster, up to one per node, so
// speeds must cover g.NumNodes() processors (at least one); every
// schedule the algorithm builds — including tentative estimates — uses
// a prefix of that cover, so clustering decisions see the heterogeneous
// execution times. Nil speeds is the plain entry points' path.
func ScheduleHet(name string, g *dag.Graph, speeds []float64) (*sched.Schedule, error) {
	for _, a := range algorithms {
		if a.name != name {
			continue
		}
		if g == nil {
			return nil, fmt.Errorf("unc: nil graph")
		}
		if speeds != nil {
			need := max(g.NumNodes(), 1)
			if len(speeds) < need {
				return nil, fmt.Errorf("unc: %d speed factors cannot cover %d processors", len(speeds), need)
			}
			// SetSpeeds judges the cover; every prefix of a cover it
			// accepts is accepted too, so no later acquire can fail.
			s, err := sched.AcquireOn(g, need, speeds[:need])
			if err != nil {
				return nil, err
			}
			s.Release()
		}
		return a.run(g, speeds)
	}
	return nil, fmt.Errorf("unc: unknown algorithm %q (have %v)", name, Names())
}

// acquire returns an empty schedule on numProcs processors with the
// optional speed prefix applied. ScheduleHet judged the cover.
func acquire(g *dag.Graph, numProcs int, speeds []float64) *sched.Schedule {
	if speeds != nil {
		speeds = speeds[:numProcs]
	}
	s, err := sched.AcquireOn(g, numProcs, speeds)
	if err != nil {
		panic(err)
	}
	return s
}
