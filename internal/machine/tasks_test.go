package machine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/sched"
)

// zeroCommGraph is a random DAG whose edges all weigh 0, so no message
// ever needs link time and the routed model reduces to the clique one.
func zeroCommGraph(rng *rand.Rand, n int) *dag.Graph {
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(rng.Int63n(20)) // zero-weight tasks included
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				b.AddEdge(dag.NodeID(i), dag.NodeID(j), 0)
			}
		}
	}
	return b.MustBuild()
}

// TestCliqueAndAPNAgreeWithoutMessages replays one placement sequence
// on the clique schedule and the routed-link schedule. With every edge
// free, both models share only their processor side, so every query
// that side answers must agree on chain, ring and hypercube machines,
// homogeneous and with speeds.
func TestCliqueAndAPNAgreeWithoutMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, topo := range []*Topology{Chain(4), Ring(5), Hypercube(3)} {
		for _, het := range []bool{false, true} {
			for trial := 0; trial < 10; trial++ {
				g := zeroCommGraph(rng, 2+rng.Intn(25))
				cs := sched.New(g, topo.NumProcs())
				ms := NewSchedule(g, topo)
				if het {
					speeds := make([]float64, topo.NumProcs())
					for p := range speeds {
						speeds[p] = []float64{0.5, 1, 1.5, 2, 3}[rng.Intn(5)]
					}
					if err := cs.SetSpeeds(speeds); err != nil {
						t.Fatal(err)
					}
					if err := ms.SetSpeeds(speeds); err != nil {
						t.Fatal(err)
					}
				}
				for _, n := range g.TopoOrder() {
					insertion := rng.Intn(2) == 0
					for placed := false; !placed; {
						p := rng.Intn(topo.NumProcs())
						ce, cok := cs.ESTOn(n, p, insertion)
						me, mok := ms.ESTOn(n, p, insertion)
						if !cok || !mok || ce != me {
							t.Fatalf("%s het=%v: ESTOn(n%d, P%d) = %d,%v (clique) vs %d,%v (apn)",
								topo.Name(), het, n, p, ce, cok, me, mok)
						}
						cs.MustPlace(n, p, ce)
						ms.MustPlace(n, p, me)
						// Now and then take the task back off both and
						// place it again, so Unplace is replayed too.
						if placed = rng.Intn(4) != 0; !placed {
							cs.Unplace(n)
							if err := ms.Unplace(n); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				assertSameProcessorSide(t, cs, ms)
			}
		}
	}
}

func assertSameProcessorSide(t *testing.T, cs *sched.Schedule, ms *Schedule) {
	t.Helper()
	for v := 0; v < cs.Graph().NumNodes(); v++ {
		n := dag.NodeID(v)
		if cs.ProcOf(n) != ms.ProcOf(n) || cs.StartOf(n) != ms.StartOf(n) || cs.FinishOf(n) != ms.FinishOf(n) {
			t.Fatalf("n%d: clique P%d [%d,%d) vs apn P%d [%d,%d)", n,
				cs.ProcOf(n), cs.StartOf(n), cs.FinishOf(n), ms.ProcOf(n), ms.StartOf(n), ms.FinishOf(n))
		}
	}
	if cs.Makespan() != ms.Makespan() || cs.NSL() != ms.NSL() || cs.ProcessorsUsed() != ms.ProcessorsUsed() {
		t.Fatalf("clique makespan %d NSL %v used %d vs apn %d %v %d",
			cs.Makespan(), cs.NSL(), cs.ProcessorsUsed(), ms.Makespan(), ms.NSL(), ms.ProcessorsUsed())
	}
	if err := cs.Validate(); err != nil {
		t.Fatalf("clique Validate: %v", err)
	}
	if err := ms.Validate(); err != nil {
		t.Fatalf("apn Validate: %v", err)
	}
	body := func(s string) string { return s[strings.IndexByte(s, '\n')+1:] }
	if cb, mb := body(cs.String()), body(ms.String()); cb != mb {
		t.Fatalf("listings differ:\nclique:\n%s\napn:\n%s", cb, mb)
	}
}

// TestScheduleModelsShadowSharedMutators pins that neither schedule
// model exposes the shared sched.Tasks mutators, which skip the model's
// communication state: Place and Unplace must be each model's own, and
// the routed-link model must not expose a Reset that would leave its
// link reservations behind.
func TestScheduleModelsShadowSharedMutators(t *testing.T) {
	// signature is a method's function type without its receiver.
	signature := func(typ reflect.Type, name string) reflect.Type {
		m, ok := typ.MethodByName(name)
		if !ok {
			t.Fatalf("%v has no method %s", typ, name)
		}
		in := make([]reflect.Type, m.Type.NumIn()-1)
		for i := range in {
			in[i] = m.Type.In(i + 1)
		}
		out := make([]reflect.Type, m.Type.NumOut())
		for i := range out {
			out[i] = m.Type.Out(i)
		}
		return reflect.FuncOf(in, out, false)
	}
	tasks := reflect.TypeOf((*sched.Tasks)(nil))
	wantPlace := reflect.TypeOf(func(dag.NodeID, int, int64) error { return nil })
	models := []struct {
		typ         reflect.Type
		wantUnplace reflect.Type
	}{
		{reflect.TypeOf((*sched.Schedule)(nil)), reflect.TypeOf(func(dag.NodeID) {})},
		{reflect.TypeOf((*Schedule)(nil)), reflect.TypeOf(func(dag.NodeID) error { return nil })},
	}
	for _, m := range models {
		if got := signature(m.typ, "Place"); got != wantPlace || got == signature(tasks, "Place") {
			t.Errorf("%v.Place is %v, want the model's own %v", m.typ, got, wantPlace)
		}
		if got := signature(m.typ, "Unplace"); got != m.wantUnplace || got == signature(tasks, "Unplace") {
			t.Errorf("%v.Unplace is %v, want the model's own %v", m.typ, got, m.wantUnplace)
		}
	}
	if _, ok := reflect.TypeOf((*Schedule)(nil)).MethodByName("Reset"); ok {
		t.Error("machine.Schedule exposes Reset")
	}
}
