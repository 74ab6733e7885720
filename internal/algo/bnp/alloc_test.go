package bnp

import (
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/gen"
)

func allocTestGraph(tb testing.TB) *dag.Graph {
	tb.Helper()
	g, err := gen.Generate("rgnos", 9, gen.Params{"v": "80", "ccr": "1.0"})
	if err != nil {
		tb.Fatalf("generate: %v", err)
	}
	return g
}

// Allocation-count assertions for the steady-state scheduling inner
// loops. A warm pool hands out fully sized state, so the assertions are
// deterministic: zero allocations, not "few".

// assertSteadyAllocs runs alg once to warm the pools, then requires a
// warm alg call plus Release to allocate exactly want objects. Under the
// race detector the calls still run, but their count is not checked.
func assertSteadyAllocs(t *testing.T, name string, alg Scheduler, g *dag.Graph, want float64) {
	t.Helper()
	const procs = 8
	run := func() {
		s, err := alg(g, procs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s.Release()
	}
	run() // warm the pools
	if allocs := testing.AllocsPerRun(20, run); allocs != want && !raceEnabled {
		t.Errorf("steady-state %s allocates %.1f objects per run, want %.1f", name, allocs, want)
	}
}

func TestETFInnerLoopAllocs(t *testing.T) {
	assertSteadyAllocs(t, "ETF", ETF, allocTestGraph(t), 0)
}

func TestDLSInnerLoopAllocs(t *testing.T) {
	assertSteadyAllocs(t, "DLS", DLS, allocTestGraph(t), 0)
}

// TestMCPInnerLoopAllocs pins MCP's placement loop allocation-free: a
// warm MCP allocates exactly what its per-graph ALAP-list order does.
func TestMCPInnerLoopAllocs(t *testing.T) {
	g := allocTestGraph(t)
	order := testing.AllocsPerRun(20, func() { algo.ALAPListOrder(g) })
	assertSteadyAllocs(t, "MCP", MCP, g, order)
}

// TestPooledSchedulersStayCorrect runs the pooled public entry points
// repeatedly with interleaved releases and checks the output never
// drifts — the pool must hand back fully reset state.
func TestPooledSchedulersStayCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := []*dag.Graph{allocTestGraph(t)}
	g2, err := gen.Generate("rgnos", 11, gen.Params{"v": "40", "ccr": "2.0"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	graphs = append(graphs, g2)
	algs := Algorithms()
	want := map[string]string{}
	for name, alg := range algs {
		for gi, g := range graphs {
			s, err := alg(g, 8)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want[name+string(rune('0'+gi))] = s.String()
			s.Release()
		}
	}
	for round := 0; round < 10; round++ {
		name := []string{"HLFET", "ISH", "ETF", "LAST", "MCP", "DLS"}[rng.Intn(6)]
		gi := rng.Intn(len(graphs))
		s, err := algs[name](graphs[gi], 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := s.String(); got != want[name+string(rune('0'+gi))] {
			t.Fatalf("round %d: %s on graph %d drifted:\n%s\nwant:\n%s",
				round, name, gi, got, want[name+string(rune('0'+gi))])
		}
		s.Release()
	}
}

// BenchmarkETFSteadyState measures the pooled end-to-end ETF call — the
// per-cell cost a warm experiment worker pays.
func BenchmarkETFSteadyState(b *testing.B) {
	g := allocTestGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := ETF(g, 8)
		if err != nil {
			b.Fatal(err)
		}
		s.Release()
	}
}
