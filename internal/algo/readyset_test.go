package algo

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
)

// naiveReady is the pre-optimization reference semantics of ReadySet:
// an unordered set of ready nodes with O(n)-scan removal.
type naiveReady struct {
	remaining map[dag.NodeID]int
	ready     map[dag.NodeID]bool
}

func newNaiveReady(g *dag.Graph) *naiveReady {
	r := &naiveReady{remaining: map[dag.NodeID]int{}, ready: map[dag.NodeID]bool{}}
	for v := 0; v < g.NumNodes(); v++ {
		n := dag.NodeID(v)
		r.remaining[n] = g.InDegree(n)
		if g.InDegree(n) == 0 {
			r.ready[n] = true
		}
	}
	return r
}

func (r *naiveReady) markScheduled(g *dag.Graph, n dag.NodeID) {
	for _, a := range g.Succs(n) {
		r.remaining[a.To]--
		if r.remaining[a.To] == 0 {
			r.ready[a.To] = true
		}
	}
}

func sortedIDs(nodes []dag.NodeID) []dag.NodeID {
	out := append([]dag.NodeID(nil), nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestReadySetPopMatchesNaiveSet drives the position-tracked ReadySet
// and a naive map-based reference through the same randomized
// pop/release sequence on every generator family and checks the ready
// memberships stay identical at each step. Combined with the Ready()
// contract (callers select by total order, never by slice index), set
// equality is exactly what schedule byte-identity needs; the bnp
// equivalence suite pins the schedules themselves.
func TestReadySetPopMatchesNaiveSet(t *testing.T) {
	for _, fam := range gen.Generators() {
		params := gen.Params{}
		if fam.Random {
			params["v"] = "60"
			params["ccr"] = "1.0"
		}
		if fam.Name == "psg" {
			params["name"] = "wu-gajski-18"
		}
		g, err := gen.Generate(fam.Name, 3, params)
		if err != nil {
			t.Fatalf("generate %s: %v", fam.Name, err)
		}
		rng := rand.New(rand.NewSource(42))
		rs := NewReadySet(g)
		ref := newNaiveReady(g)
		for step := 0; !rs.Empty(); step++ {
			got := sortedIDs(rs.Ready())
			if len(got) != len(ref.ready) {
				t.Fatalf("%s step %d: ready size %d, reference %d", fam.Name, step, len(got), len(ref.ready))
			}
			for _, n := range got {
				if !ref.ready[n] {
					t.Fatalf("%s step %d: node %d ready but not in reference set", fam.Name, step, n)
				}
			}
			// Pop a pseudo-random ready node by total order, the only
			// access pattern the Ready() contract permits.
			n := got[rng.Intn(len(got))]
			rs.Pop(n)
			delete(ref.ready, n)
			rs.MarkScheduled(g, n)
			ref.markScheduled(g, n)
		}
		if len(ref.ready) != 0 {
			t.Fatalf("%s: optimized set drained but reference still has %d ready", fam.Name, len(ref.ready))
		}
	}
}

// TestReadySetDrainAllocs pins the O(1) swap-remove Pop: a full
// reset/drain cycle on warm backing arrays allocates nothing.
func TestReadySetDrainAllocs(t *testing.T) {
	g, err := gen.Generate("rgnos", 9, gen.Params{"v": "80", "ccr": "1.0"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	rs := NewReadySet(g)
	run := func() {
		rs.Reset(g)
		for !rs.Empty() {
			n := MaxBy(rs.Ready(), func(m dag.NodeID) int64 { return -int64(m) })
			rs.Pop(n)
			rs.MarkScheduled(g, n)
		}
	}
	run() // warm capacities
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("ready-set drain allocates %.1f objects per run, want 0", allocs)
	}
}
