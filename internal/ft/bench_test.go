package ft_test

import (
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/ft"
	"repro/internal/gen"
	"repro/internal/machine"
)

// benchOptions is the perturbation of the robustness study.
var benchOptions = ft.SimOptions{Perturb: ft.Perturbation{Dist: ft.DistLognormal, TaskSpread: 0.3, CommSpread: 0.3}, Seed: 9}

// benchExec compiles an MCP schedule of a 100-node RGNOS graph — the
// per-trial workload of the Monte-Carlo study.
func benchExec(tb testing.TB) *ft.Exec {
	tb.Helper()
	g, err := gen.Generate("rgnos", 7, gen.Params{"v": "100", "ccr": "1"})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := bnp.MCP(g, 8)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Release()
	x, err := ft.Compile(s)
	if err != nil {
		tb.Fatal(err)
	}
	return x
}

// TestRunAllocs asserts the steady-state fault-free trial allocates
// nothing: the engine state is pooled and the event heap reused, so
// after one warm-up run every further Exec.Makespan is allocation-free.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	x := benchExec(t)
	trial := 0
	run := func() {
		if _, err := x.Makespan(benchOptions, trial); err != nil {
			t.Fatal(err)
		}
		trial++
	}
	run() // warm the engine pool
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("steady-state trial allocates %.1f objects per run, want 0", allocs)
	}
}

// TestSimMonteCarloAllocsFlat requires a warm fault-free study to
// allocate as many objects at 100 trials as at 10: its allocations are
// a per-study constant, and a trial adds none.
func TestSimMonteCarloAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	x := benchExec(t)
	allocs := func(trials int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := ft.SimMonteCarlo(x, benchOptions, trials); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(1) // warm the engine pool
	if a10, a100 := allocs(10), allocs(100); a10 != a100 {
		t.Errorf("a fault-free study allocates %.1f objects at 10 trials and %.1f at 100", a10, a100)
	}
}

// BenchmarkRun measures one perturbed fault-free execution of a
// 100-node clique schedule.
func BenchmarkRun(b *testing.B) {
	x := benchExec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Makespan(benchOptions, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo measures a full 100-trial fault-free study of
// one schedule, compile included — the per-cell cost of -exp robust.
func BenchmarkMonteCarlo(b *testing.B) {
	g, err := gen.Generate("rgnos", 7, gen.Params{"v": "100", "ccr": "1"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := bnp.MCP(g, 8)
		if err != nil {
			b.Fatal(err)
		}
		x, err := ft.Compile(s)
		s.Release()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ft.SimMonteCarlo(x, benchOptions, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAPN measures one perturbed fault-free execution of an
// APN schedule with link contention on an 8-processor hypercube.
func BenchmarkRunAPN(b *testing.B) {
	g, err := gen.Generate("rgnos", 7, gen.Params{"v": "100", "ccr": "1"})
	if err != nil {
		b.Fatal(err)
	}
	s, err := apn.MH(g, machine.Hypercube(3))
	if err != nil {
		b.Fatal(err)
	}
	x, err := ft.CompileAPN(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Makespan(benchOptions, i); err != nil {
			b.Fatal(err)
		}
	}
}
