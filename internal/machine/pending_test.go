package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/sched"
)

// allHops lists every committed link reservation through
// EachMessageHop, edge by edge.
func allHops(s *Schedule) []LinkHop {
	var hops []LinkHop
	g := s.Graph()
	for v := 0; v < g.NumNodes(); v++ {
		for _, a := range g.Succs(dag.NodeID(v)) {
			s.EachMessageHop(dag.NodeID(v), a.To, func(h LinkHop) { hops = append(hops, h) })
		}
	}
	return hops
}

// probe runs a burst of random EST queries on s: ready nodes and, as
// BSA does, placed ones, on random processors with and without
// insertion, plus BestEST scans.
func probe(rng *rand.Rand, s *Schedule) {
	g := s.Graph()
	for q := 0; q < 1+rng.Intn(8); q++ {
		n := dag.NodeID(rng.Intn(g.NumNodes()))
		if rng.Intn(4) == 0 {
			s.BestEST(n)
			continue
		}
		s.ESTOn(n, rng.Intn(s.NumProcs()), rng.Intn(2) == 0)
	}
}

// TestPendingPlanUnobservable checks that the plan an EST query leaves
// on the links never shows: on random partial schedules with and
// without speeds, after any burst of queries, EachMessageHop,
// LinkSlots, Validate and the full snapshot equal the state before the
// queries. A twin schedule takes the same placements and removals but
// is never queried, so each of its placements routes its messages
// afresh; every Place on the queried schedule, whether it commits the
// pending plan or routes anew because the last query was for another
// (node, processor), and every Unplace after a query must leave the
// twin's state.
func TestPendingPlanUnobservable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	adopted, rerouted, removed := 0, 0, 0
	for _, topo := range replayTopologies() {
		for _, het := range []bool{false, true} {
			for trial := 0; trial < 6; trial++ {
				label := fmt.Sprintf("%s het=%v trial %d", topo.Name(), het, trial)
				g := replayGraph(rng, 2+rng.Intn(20))
				speeds := randomSpeeds(rng, het, topo.NumProcs())
				s, twin := NewSchedule(g, topo), NewSchedule(g, topo)
				if speeds != nil {
					if err := s.SetSpeeds(speeds); err != nil {
						t.Fatal(err)
					}
					if err := twin.SetSpeeds(speeds); err != nil {
						t.Fatal(err)
					}
				}
				for !s.Complete() {
					hops, links, before := allHops(s), linkState(s), snap(s)
					probe(rng, s)
					if got := allHops(s); !reflect.DeepEqual(got, hops) {
						t.Fatalf("%s: queries changed EachMessageHop", label)
					}
					probe(rng, s)
					if got := linkState(s); !reflect.DeepEqual(got, links) {
						t.Fatalf("%s: queries changed LinkSlots", label)
					}
					probe(rng, s)
					if err := s.Validate(); err != nil {
						t.Fatalf("%s: Validate after queries: %v", label, err)
					}
					probe(rng, s)
					if !reflect.DeepEqual(snap(s), before) {
						t.Fatalf("%s: queries changed the snapshot", label)
					}

					if leaf := placedLeaf(rng, s); leaf != dag.None && rng.Intn(4) == 0 {
						probe(rng, s)
						if err := s.Unplace(leaf); err != nil {
							t.Fatal(err)
						}
						if err := twin.Unplace(leaf); err != nil {
							t.Fatal(err)
						}
						removed++
					} else {
						var ready []dag.NodeID
						for v := 0; v < g.NumNodes(); v++ {
							if _, ok := s.ESTLowerBound(dag.NodeID(v), 0); ok && !s.IsScheduled(dag.NodeID(v)) {
								ready = append(ready, dag.NodeID(v))
							}
						}
						n, p := ready[rng.Intn(len(ready))], rng.Intn(topo.NumProcs())
						est, _ := s.ESTOn(n, p, rng.Intn(2) == 0)
						if rng.Intn(2) == 0 {
							probe(rng, s)
						}
						if s.pend == n && s.pendProc == p {
							adopted++
						} else {
							rerouted++
						}
						s.MustPlace(n, p, est)
						if s.pend != dag.None {
							t.Fatalf("%s: a plan is pending after Place", label)
						}
						twin.MustPlace(n, p, est)
					}
					if !reflect.DeepEqual(snap(s), snap(twin)) {
						t.Fatalf("%s: the queried schedule differs from its never-queried twin", label)
					}
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
	if adopted == 0 || rerouted == 0 || removed == 0 {
		t.Fatalf("%d placements adopted the plan, %d rerouted, %d removals: every path needs coverage",
			adopted, rerouted, removed)
	}
}

// placedLeaf returns a random placed node none of whose children is
// placed, which Unplace accepts, or dag.None.
func placedLeaf(rng *rand.Rand, s *Schedule) dag.NodeID {
	var leaves []dag.NodeID
	for v := 0; v < s.Graph().NumNodes(); v++ {
		n := dag.NodeID(v)
		if !s.IsScheduled(n) {
			continue
		}
		leaf := true
		for _, a := range s.Graph().Succs(n) {
			leaf = leaf && !s.IsScheduled(a.To)
		}
		if leaf {
			leaves = append(leaves, n)
		}
	}
	if len(leaves) == 0 {
		return dag.None
	}
	return leaves[rng.Intn(len(leaves))]
}

// TestReplayLeavesNoPendingPlan checks that a finished replay, and one
// revised by Migrate, holds no pending plan, so reading it writes
// nothing.
func TestReplayLeavesNoPendingPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, topo := range replayTopologies() {
		g := replayGraph(rng, 2+rng.Intn(20))
		seqs := make([][]dag.NodeID, topo.NumProcs())
		for v := 0; v < g.NumNodes(); v++ {
			p := rng.Intn(topo.NumProcs())
			seqs[p] = append(seqs[p], dag.NodeID(v))
		}
		r, err := NewReplay(g, topo, seqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for move := 0; move < 10; move++ {
			if r.s.pend != dag.None {
				t.Fatalf("%s: a plan is pending after %d moves", topo.Name(), move)
			}
			n := dag.NodeID(rng.Intn(g.NumNodes()))
			to := rng.Intn(topo.NumProcs())
			r.Migrate(n, to, rng.Intn(len(r.Sequence(to))+1))
		}
	}
}

// TestWarmPlaceUnplaceAllocatesNothing checks that once the query
// scratch and the message store's slots have grown, a query, a Place
// that commits its plan, an Unplace and a Place that routes afresh
// allocate nothing.
func TestWarmPlaceUnplaceAllocatesNothing(t *testing.T) {
	b := dag.NewBuilder()
	a := b.AddNode(3)
	c := b.AddNode(4)
	d := b.AddNode(2)
	x := b.AddNode(5)
	b.AddEdge(a, x, 6)
	b.AddEdge(c, x, 7)
	b.AddEdge(d, x, 1)
	g := b.MustBuild()
	s := NewSchedule(g, Ring(5))
	s.MustPlace(a, 0, 0)
	s.MustPlace(c, 1, 0)
	s.MustPlace(d, 2, 0)
	cycle := func() {
		est, _ := s.ESTOn(x, 3, false)
		s.MustPlace(x, 3, est)
		if err := s.Unplace(x); err != nil {
			t.Fatal(err)
		}
		est, _ = s.ESTOn(x, 4, true)
		s.ESTOn(x, 3, false)
		s.MustPlace(x, 4, est)
		if err := s.Unplace(x); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm Place/Unplace cycle allocates %.1f times", allocs)
	}
}

// rawLinks copies every channel's slots as they are, pending plan
// included; LinkSlots would drop the plan first.
func rawLinks(s *Schedule) [][]sched.Slot {
	out := make([][]sched.Slot, len(s.links))
	for c := range s.links {
		out[c] = append([]sched.Slot{}, s.links[c].Slots()...)
	}
	return out
}

// TestESTWithinBounded checks the bounded EST probe on random partial
// schedules with and without speeds. For nodes whose parents are all
// placed, ready ones and, as BSA probes, placed ones, and limits around
// the exact EST, ESTWithin equals ESTOn and leaves the plan pending
// when that is at most the limit; otherwise it exceeds the limit,
// leaves every link exactly as before, its partial reservations
// dropped, and no plan. A Place after a burst of bounded probes must
// then commit the same hops as on a never-probed twin.
func TestESTWithinBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	within, aborted, midRoute := 0, 0, 0
	for _, topo := range replayTopologies() {
		for _, het := range []bool{false, true} {
			for trial := 0; trial < 6; trial++ {
				label := fmt.Sprintf("%s het=%v trial %d", topo.Name(), het, trial)
				g := replayGraph(rng, 2+rng.Intn(20))
				speeds := randomSpeeds(rng, het, topo.NumProcs())
				s, twin := NewSchedule(g, topo), NewSchedule(g, topo)
				if speeds != nil {
					if err := s.SetSpeeds(speeds); err != nil {
						t.Fatal(err)
					}
					if err := twin.SetSpeeds(speeds); err != nil {
						t.Fatal(err)
					}
				}
				for !s.Complete() {
					var ready, eligible []dag.NodeID
					for v := 0; v < g.NumNodes(); v++ {
						n := dag.NodeID(v)
						if _, ok := s.ESTLowerBound(n, 0); ok {
							eligible = append(eligible, n)
							if !s.IsScheduled(n) {
								ready = append(ready, n)
							}
						}
					}
					for q := 0; q < 1+rng.Intn(8); q++ {
						n, p, ins := eligible[rng.Intn(len(eligible))], rng.Intn(topo.NumProcs()), rng.Intn(2) == 0
						s.DiscardPlan()
						before := rawLinks(s)
						exact, _ := s.ESTOn(n, p, ins)
						full, kept := len(s.qHops), rng.Intn(2) == 0
						if !kept {
							s.DiscardPlan() // else the probe finds its plan pending
						}
						limit := exact + rng.Int63n(21) - 10
						if rng.Intn(4) == 0 {
							limit = rng.Int63n(exact + 1)
						}
						got, ok := s.ESTWithin(n, p, ins, limit)
						switch {
						case !ok:
							t.Fatalf("%s: ESTWithin(n%d, P%d) not ok with every parent placed", label, n, p)
						case exact <= limit:
							within++
							if got != exact || s.pend != n || s.pendProc != p {
								t.Fatalf("%s: ESTWithin(n%d, P%d, limit %d) = %d (pending n%d), ESTOn says %d",
									label, n, p, limit, got, s.pend, exact)
							}
						default:
							aborted++
							if got <= limit {
								t.Fatalf("%s: ESTWithin(n%d, P%d, limit %d) = %d, but ESTOn says %d",
									label, n, p, limit, got, exact)
							}
							if s.pend != dag.None {
								t.Fatalf("%s: an aborted probe left a plan pending", label)
							}
							if !kept && len(s.qHops) > 0 && len(s.qHops) < full {
								midRoute++ // it stopped after reserving some hops
							}
							if !reflect.DeepEqual(rawLinks(s), before) {
								t.Fatalf("%s: an aborted probe changed the links", label)
							}
						}
					}
					if leaf := placedLeaf(rng, s); leaf != dag.None && rng.Intn(4) == 0 {
						if err := s.Unplace(leaf); err != nil {
							t.Fatal(err)
						}
						if err := twin.Unplace(leaf); err != nil {
							t.Fatal(err)
						}
					} else {
						n, p := ready[rng.Intn(len(ready))], rng.Intn(topo.NumProcs())
						est, _ := twin.ESTOn(n, p, rng.Intn(2) == 0)
						for q := 0; q < rng.Intn(3); q++ {
							s.ESTWithin(n, p, false, est+rng.Int63n(7)-5)
						}
						s.MustPlace(n, p, est)
						twin.MustPlace(n, p, est)
					}
					if !reflect.DeepEqual(snap(s), snap(twin)) {
						t.Fatalf("%s: the probed schedule differs from its never-probed twin", label)
					}
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
	t.Logf("%d probes within the limit, %d aborted, %d of them after routing", within, aborted, midRoute)
	if within == 0 || aborted == 0 || midRoute == 0 {
		t.Fatalf("%d probes within the limit, %d aborted, %d of them after routing: every path needs coverage",
			within, aborted, midRoute)
	}
}
