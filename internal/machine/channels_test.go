package machine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/sched"
)

// TestChannelNumbering checks that Channel and Ends form a bijection
// between the directed links and 0..NumChannels()-1, numbered in
// (from, to) order, that non-links and out-of-range processors map to
// -1, and that the routes stored as channels rebuild Route and Dist.
func TestChannelNumbering(t *testing.T) {
	topos := []*Topology{Ring(6), Mesh(3, 4), Hypercube(3), Star(5), Clique(4), Chain(3), Clique(1), BinaryTree(3)}
	for _, topo := range topos {
		n := topo.NumProcs()
		if topo.NumChannels() != 2*topo.NumLinks() {
			t.Fatalf("%s: %d channels for %d links", topo.Name(), topo.NumChannels(), topo.NumLinks())
		}
		prev := [2]int{-1, -1}
		for c := 0; c < topo.NumChannels(); c++ {
			u, v := topo.Ends(c)
			if !adjacent(topo, u, v) {
				t.Fatalf("%s: channel %d joins non-neighbors %d->%d", topo.Name(), c, u, v)
			}
			if got := topo.Channel(u, v); got != c {
				t.Fatalf("%s: Channel(Ends(%d)) = %d", topo.Name(), c, got)
			}
			if cur := [2]int{u, v}; cur[0] < prev[0] || (cur[0] == prev[0] && cur[1] <= prev[1]) {
				t.Fatalf("%s: channel %d (%d->%d) out of (from, to) order after %v", topo.Name(), c, u, v, prev)
			} else {
				prev = cur
			}
		}
		linked := 0
		for u := -1; u <= n; u++ {
			for v := -1; v <= n; v++ {
				c := topo.Channel(u, v)
				inRange := u >= 0 && u < n && v >= 0 && v < n
				if !inRange || !adjacent(topo, u, v) {
					if c != -1 {
						t.Fatalf("%s: Channel(%d,%d) = %d, want -1", topo.Name(), u, v, c)
					}
					continue
				}
				linked++
				if c < 0 || c >= topo.NumChannels() {
					t.Fatalf("%s: Channel(%d,%d) = %d out of range", topo.Name(), u, v, c)
				}
			}
		}
		if linked != topo.NumChannels() {
			t.Fatalf("%s: %d linked pairs, %d channels", topo.Name(), linked, topo.NumChannels())
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				path := []int{u}
				for _, c := range topo.route(u, v) {
					from, to := topo.Ends(int(c))
					if from != path[len(path)-1] {
						t.Fatalf("%s: route(%d,%d) channel %d leaves %d, data is on %d",
							topo.Name(), u, v, c, from, path[len(path)-1])
					}
					path = append(path, to)
				}
				if len(path)-1 != topo.Dist(u, v) || !reflect.DeepEqual(path, topo.Route(u, v)) {
					t.Fatalf("%s: route(%d,%d) rebuilds to %v, Route is %v, Dist %d",
						topo.Name(), u, v, path, topo.Route(u, v), topo.Dist(u, v))
				}
			}
		}
	}
}

// commGraph is a random DAG with positive task weights and mostly
// positive edge costs, so that remote parents need link time.
func commGraph(rng *rand.Rand, n int) *dag.Graph {
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(1 + rng.Int63n(20))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				b.AddEdge(dag.NodeID(i), dag.NodeID(j), rng.Int63n(30))
			}
		}
	}
	return b.MustBuild()
}

// linkState deep-copies every channel's slots.
func linkState(s *Schedule) [][]sched.Slot {
	topo := s.Topology()
	out := make([][]sched.Slot, topo.NumChannels())
	for c := range out {
		u, v := topo.Ends(c)
		out[c] = append([]sched.Slot{}, s.LinkSlots(u, v)...)
	}
	return out
}

// TestQueriesLeaveLinksUntouched checks that the in-place reservations
// of an EST query never show: after ESTOn and BestEST scans over
// every ready node and processor, and after a Place rejected for
// starting before its data is ready, every channel holds exactly the
// slots it held before. A successful Place keeps its reservations,
// which Validate checks against the committed messages.
func TestQueriesLeaveLinksUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, topo := range []*Topology{Ring(5), Mesh(2, 3), Hypercube(3)} {
		for _, het := range []bool{false, true} {
			for trial := 0; trial < 5; trial++ {
				g := commGraph(rng, 5+rng.Intn(20))
				s := NewSchedule(g, topo)
				if het {
					speeds := make([]float64, topo.NumProcs())
					for p := range speeds {
						speeds[p] = []float64{0.5, 1, 1.5, 2, 3}[rng.Intn(5)]
					}
					if err := s.SetSpeeds(speeds); err != nil {
						t.Fatal(err)
					}
				}
				for !s.Complete() {
					before := linkState(s)
					var ready []dag.NodeID
					for v := 0; v < g.NumNodes(); v++ {
						n := dag.NodeID(v)
						if s.IsScheduled(n) {
							continue
						}
						if _, ok := s.ESTOn(n, 0, false); !ok {
							continue // a parent is not scheduled yet
						}
						ready = append(ready, n)
						for p := 0; p < topo.NumProcs(); p++ {
							s.ESTOn(n, p, true)
							s.ESTOn(n, p, false)
						}
						s.BestEST(n)
					}
					if !reflect.DeepEqual(before, linkState(s)) {
						t.Fatalf("%s het=%v: EST scans changed the link slots", topo.Name(), het)
					}
					n := ready[rng.Intn(len(ready))]
					if len(g.Preds(n)) > 0 {
						p := rng.Intn(topo.NumProcs())
						err := s.Place(n, p, 0) // parents finish after 0
						if err == nil || !strings.Contains(err.Error(), "data-ready") {
							t.Fatalf("%s het=%v: Place(n%d, P%d, 0) = %v, want a data-ready rejection",
								topo.Name(), het, n, p, err)
						}
						if !reflect.DeepEqual(before, linkState(s)) {
							t.Fatalf("%s het=%v: rejected Place changed the link slots", topo.Name(), het)
						}
					}
					p, est, _ := scanEST(s, n, rng.Intn(2) == 0)
					s.MustPlace(n, p, est)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("%s het=%v: %v", topo.Name(), het, err)
				}
			}
		}
	}
}
