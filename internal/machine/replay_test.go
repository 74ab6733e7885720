package machine

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sched"
)

// replayGraph is a random DAG of n nodes whose task weights and edge
// costs both include zero.
func replayGraph(rng *rand.Rand, n int) *dag.Graph {
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		w := 1 + rng.Int63n(20)
		if rng.Intn(6) == 0 {
			w = 0
		}
		b.AddNode(w)
	}
	density := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(density) == 0 {
				b.AddEdge(dag.NodeID(i), dag.NodeID(j), rng.Int63n(30))
			}
		}
	}
	return b.MustBuild()
}

// replayTopologies covers every topology family the replay meets.
func replayTopologies() []*Topology {
	return []*Topology{Ring(5), Hypercube(3), Mesh(2, 3), Star(5), Chain(4), Clique(4), Torus(3, 3)}
}

// randomSpeeds draws one speed factor per processor, or nil.
func randomSpeeds(rng *rand.Rand, het bool, procs int) []float64 {
	if !het {
		return nil
	}
	speeds := make([]float64, procs)
	for p := range speeds {
		speeds[p] = []float64{0.5, 1, 1.5, 2, 3}[rng.Intn(5)]
	}
	return speeds
}

// snapshot is the complete observable state of a schedule: placements,
// processor and link timelines, and committed messages.
type snapshot struct {
	proc          []int
	start, finish []int64
	slots         [][]sched.Slot
	links         [][]sched.Slot
	msgs          [][]hopRes
	length        int64
}

// snap deep-copies the state of s, an empty timeline as nil.
func snap(s *Schedule) snapshot {
	n := s.Graph().NumNodes()
	sn := snapshot{
		proc: make([]int, n), start: make([]int64, n), finish: make([]int64, n),
		links: linkState(s), msgs: make([][]hopRes, len(s.msgs)), length: s.Length(),
	}
	for v := 0; v < n; v++ {
		sn.proc[v] = s.ProcOf(dag.NodeID(v))
		sn.start[v] = s.StartOf(dag.NodeID(v))
		sn.finish[v] = s.FinishOf(dag.NodeID(v))
	}
	for p := 0; p < s.NumProcs(); p++ {
		sn.slots = append(sn.slots, append([]sched.Slot(nil), s.Slots(p)...))
	}
	for k, hops := range s.msgs {
		if len(hops) > 0 {
			sn.msgs[k] = slices.Clone(hops)
		}
	}
	return sn
}

func cloneSeqs(seqs [][]dag.NodeID) [][]dag.NodeID {
	out := make([][]dag.NodeID, len(seqs))
	for p, q := range seqs {
		out[p] = slices.Clone(q)
	}
	return out
}

func sameSeqs(a, b [][]dag.NodeID) bool { return slices.EqualFunc(a, b, slices.Equal) }

// TestReplaySequencesMigrate pins Replay.Migrate's suffix replay to a
// whole replay of the moved sequences: on random graphs, topologies
// and sequence sets, with and without speeds, every random move —
// inserted in topological order or at a random index, which may
// deadlock — is accepted exactly when the whole replay starts the node
// earlier without lengthening the schedule. An accepted move leaves
// the whole replay's state; a rejected one restores the previous state
// and sequences exactly.
func TestReplaySequencesMigrate(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	accepted, rejected := 0, 0
	for _, topo := range replayTopologies() {
		for _, het := range []bool{false, true} {
			for trial := 0; trial < 12; trial++ {
				g := replayGraph(rng, 2+rng.Intn(20))
				speeds := randomSpeeds(rng, het, topo.NumProcs())
				seqs := make([][]dag.NodeID, topo.NumProcs())
				for v := 0; v < g.NumNodes(); v++ { // node order is topological
					p := rng.Intn(topo.NumProcs())
					seqs[p] = append(seqs[p], dag.NodeID(v))
				}
				r, err := NewReplay(g, topo, seqs, speeds)
				if err != nil {
					t.Fatal(err)
				}
				for move := 0; move < 25; move++ {
					label := fmt.Sprintf("%s het=%v trial %d move %d", topo.Name(), het, trial, move)
					n := dag.NodeID(rng.Intn(g.NumNodes()))
					from := r.Schedule().ProcOf(n)
					to := rng.Intn(topo.NumProcs())
					if to == from {
						continue
					}
					dst := r.Sequence(to)
					pos := slices.IndexFunc(dst, func(m dag.NodeID) bool { return m > n })
					if pos < 0 {
						pos = len(dst)
					}
					if rng.Intn(4) == 0 {
						pos = rng.Intn(len(dst) + 1)
					}
					before, beforeSeqs := snap(r.Schedule()), cloneSeqs(r.seqs)
					moved := cloneSeqs(r.seqs)
					moved[from] = slices.DeleteFunc(moved[from], func(m dag.NodeID) bool { return m == n })
					moved[to] = slices.Insert(moved[to], pos, n)
					whole, werr := NewReplay(g, topo, moved, speeds)
					want := werr == nil && whole.Schedule().StartOf(n) < before.start[n] &&
						whole.Schedule().Length() <= before.length

					got := r.Migrate(n, to, pos)
					if got != want {
						t.Fatalf("%s: Migrate(n%d, P%d, %d) = %v, whole replay says %v (err %v)",
							label, n, to, pos, got, want, werr)
					}
					if err := r.Schedule().Validate(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got {
						accepted++
						if !reflect.DeepEqual(snap(r.Schedule()), snap(whole.Schedule())) || !sameSeqs(r.seqs, moved) {
							t.Fatalf("%s: accepted move differs from the whole replay", label)
						}
						continue
					}
					rejected++
					if !reflect.DeepEqual(snap(r.Schedule()), before) || !sameSeqs(r.seqs, beforeSeqs) {
						t.Fatalf("%s: rejected move did not restore the schedule", label)
					}
				}
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d moves accepted, %d rejected: both outcomes need coverage", accepted, rejected)
	}
}

// TestReplayMigrateSuccessorWinsAtOnce pins the earliest divergence on
// the source processor: moving n4 off P4 (sequence 2 4 6 9) makes its
// successor n6 the head in the very step after n2's placement, where n6
// is already eligible and wins, so the suffix replay must start there.
func TestReplayMigrateSuccessorWinsAtOnce(t *testing.T) {
	b := dag.NewBuilder()
	for _, w := range []int64{13, 1, 18, 18, 13, 8, 7, 5, 7, 14} {
		b.AddNode(w)
	}
	for _, e := range [][3]int64{
		{0, 1, 13}, {0, 2, 22}, {1, 3, 7}, {2, 3, 20}, {0, 4, 1}, {3, 4, 13},
		{1, 5, 11}, {2, 5, 6}, {3, 5, 17}, {4, 5, 10}, {0, 6, 0}, {1, 6, 22},
		{3, 7, 13}, {5, 7, 5}, {6, 7, 3}, {5, 8, 1}, {6, 8, 18}, {7, 8, 16},
		{0, 9, 0}, {1, 9, 0}, {2, 9, 27}, {3, 9, 15}, {4, 9, 9}, {5, 9, 3}, {7, 9, 0},
	} {
		b.AddEdge(dag.NodeID(e[0]), dag.NodeID(e[1]), e[2])
	}
	g := b.MustBuild()
	topo := Ring(5)
	speeds := []float64{1.5, 0.5, 1, 1, 2}
	seqs := [][]dag.NodeID{{3}, {0, 5, 7}, {8}, {1}, {2, 4, 6, 9}}
	r, err := NewReplay(g, topo, seqs, speeds)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.divergence(4, 4, 1, 0, 1); d != r.at[2]+1 {
		t.Fatalf("divergence %d, want %d (the step after n2's)", d, r.at[2]+1)
	}
	moved := [][]dag.NodeID{{3, 4}, {0, 5, 7}, {8}, {1}, {2, 6, 9}}
	whole, err := NewReplay(g, topo, moved, speeds)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Migrate(4, 0, 1) {
		t.Fatal("Migrate rejected the move, the whole replay starts n4 earlier")
	}
	if !reflect.DeepEqual(snap(r.Schedule()), snap(whole.Schedule())) {
		t.Fatalf("suffix replay differs from the whole replay:\n%v\nwant\n%v", r.Schedule(), whole.Schedule())
	}
}

// TestMigrateTracesReplayedSuffixOnly traces a replay and random
// migrations: the replay records one placement per node, an accepted
// migration exactly the suffix from its divergence step, and a rejected
// one only the part of that suffix it replayed before it stopped — the
// restored placements are not recorded again.
func TestMigrateTracesReplayedSuffixOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, obs.TraceJSONL)
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)
	records := func() int { return bytes.Count(buf.Bytes(), []byte(`"type":"place"`)) }
	accepted, rejected := 0, 0
	for _, topo := range []*Topology{Ring(5), Mesh(2, 3), Hypercube(3)} {
		for trial := 0; trial < 10; trial++ {
			g := replayGraph(rng, 2+rng.Intn(20))
			n := g.NumNodes()
			seqs := make([][]dag.NodeID, topo.NumProcs())
			for v := 0; v < n; v++ {
				p := rng.Intn(topo.NumProcs())
				seqs[p] = append(seqs[p], dag.NodeID(v))
			}
			tr.BeginRun("replay", "APN", n, topo.NumProcs())
			r, err := NewReplay(g, topo, seqs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := records(); got != n {
				t.Fatalf("%s trial %d: replay of %d nodes traced %d placements", topo.Name(), trial, n, got)
			}
			for move := 0; move < 20; move++ {
				m := dag.NodeID(rng.Intn(n))
				from, to := r.Schedule().ProcOf(m), rng.Intn(topo.NumProcs())
				if to == from {
					continue
				}
				dst := r.Sequence(to)
				pos := slices.IndexFunc(dst, func(x dag.NodeID) bool { return x > m })
				if pos < 0 {
					pos = len(dst)
				}
				suffix := n - r.divergence(m, from, slices.Index(r.Sequence(from), m), to, pos)
				before := records()
				ok := r.Migrate(m, to, pos)
				added := records() - before
				if ok && added != suffix {
					t.Fatalf("%s trial %d: accepted move traced %d placements, suffix is %d", topo.Name(), trial, added, suffix)
				}
				if !ok && (added < 1 || added > suffix) {
					t.Fatalf("%s trial %d: rejected move traced %d placements, suffix is %d", topo.Name(), trial, added, suffix)
				}
				if ok {
					accepted++
				} else {
					rejected++
				}
			}
			tr.EndRun()
			buf.Reset()
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d moves accepted, %d rejected: both outcomes need coverage", accepted, rejected)
	}
}

// TestESTLowerBound checks that the routing-free bound never exceeds
// the routed non-insertion EST, and is defined exactly when the EST is,
// on random partial schedules with and without speeds.
func TestESTLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, topo := range replayTopologies() {
		for _, het := range []bool{false, true} {
			for trial := 0; trial < 10; trial++ {
				g := replayGraph(rng, 2+rng.Intn(25))
				s := NewSchedule(g, topo)
				if speeds := randomSpeeds(rng, het, topo.NumProcs()); speeds != nil {
					if err := s.SetSpeeds(speeds); err != nil {
						t.Fatal(err)
					}
				}
				for !s.Complete() {
					var ready []dag.NodeID
					for v := 0; v < g.NumNodes(); v++ {
						n := dag.NodeID(v)
						if s.IsScheduled(n) {
							continue
						}
						for p := 0; p < topo.NumProcs(); p++ {
							lb, lok := s.ESTLowerBound(n, p)
							est, eok := s.ESTOn(n, p, false)
							if lok != eok {
								t.Fatalf("%s het=%v: n%d P%d: bound defined %v, EST defined %v",
									topo.Name(), het, n, p, lok, eok)
							}
							if eok && lb > est {
								t.Fatalf("%s het=%v: n%d P%d: bound %d above EST %d",
									topo.Name(), het, n, p, lb, est)
							}
						}
						if _, ok := s.ESTOn(n, 0, false); ok {
							ready = append(ready, n)
						}
					}
					// Mix insertion placements into the partial schedules,
					// so the bound meets processors with idle gaps.
					n := ready[rng.Intn(len(ready))]
					p := rng.Intn(topo.NumProcs())
					est, _ := s.ESTOn(n, p, rng.Intn(2) == 0)
					s.MustPlace(n, p, est)
				}
			}
		}
	}
}
