package ft_test

import (
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/algo/param"
	"repro/internal/algo/unc"
	"repro/internal/ft"
	"repro/internal/gen"
	"repro/internal/machine"
)

// checkZeroVariance is the fault-free runtime's anchor invariant for
// one compiled schedule: with no perturbation, timetable dispatch
// reproduces the static makespan exactly and eager dispatch never
// exceeds it (eager may only compress idle gaps the plan left
// unexplained).
func checkZeroVariance(t *testing.T, label string, x *ft.Exec, static int64) {
	t.Helper()
	if mk := makespan(t, x, ft.SimOptions{Policy: ft.DispatchTimetable}); mk != static {
		t.Errorf("%s: timetable zero-variance makespan %d != static %d", label, mk, static)
	}
	if mk := makespan(t, x, ft.SimOptions{Policy: ft.DispatchEager}); mk > static {
		t.Errorf("%s: eager zero-variance makespan %d > static %d", label, mk, static)
	}
}

// TestZeroVarianceReproducesStatic checks the anchor invariant for
// every algorithm of the study on every registered generator family.
func TestZeroVarianceReproducesStatic(t *testing.T) {
	topo := machine.Hypercube(3)
	for _, ng := range familyGraphs(t) {
		for name, alg := range bnp.Algorithms() {
			s, err := alg(ng.G, 8)
			if err != nil {
				t.Fatalf("BNP %s on %s: %v", name, ng.Name, err)
			}
			checkZeroVariance(t, "BNP "+name+" on "+ng.Name, mustCompile(t, s), s.Makespan())
			s.Release()
		}
		for name, alg := range unc.Algorithms() {
			s, err := alg(ng.G)
			if err != nil {
				t.Fatalf("UNC %s on %s: %v", name, ng.Name, err)
			}
			checkZeroVariance(t, "UNC "+name+" on "+ng.Name, mustCompile(t, s), s.Makespan())
			s.Release()
		}
		for name, alg := range apn.Algorithms() {
			s, err := alg(ng.G, topo)
			if err != nil {
				t.Fatalf("APN %s on %s: %v", name, ng.Name, err)
			}
			x, err := ft.CompileAPN(s)
			if err != nil {
				t.Fatalf("APN %s on %s: %v", name, ng.Name, err)
			}
			checkZeroVariance(t, "APN "+name+" on "+ng.Name, x, s.Makespan())
		}
	}
}

// TestZeroVarianceReproducesStaticHeterogeneous extends the anchor
// invariant to heterogeneous schedules: the compiled Exec scales each
// task's weight by its processor's speed with sched's rounding rule, so
// per-processor speed vectors replay exactly.
func TestZeroVarianceReproducesStaticHeterogeneous(t *testing.T) {
	speeds := []float64{1.0, 2.5, 4.0, 1.0, 3.0, 2.0, 1.5, 4.0}
	for _, ng := range familyGraphs(t) {
		// One classic kernel and one combination only expressible in the
		// parameterized space (EFT + insertion, the HEFT-style pairing).
		s, err := bnp.ScheduleHet("MCP", ng.G, len(speeds), speeds)
		if err != nil {
			t.Fatalf("MCP het on %s: %v", ng.Name, err)
		}
		checkZeroVariance(t, "MCP-het on "+ng.Name, mustCompile(t, s), s.Makespan())
		s.Release()

		combo := param.Combo{Metric: param.MetricBT, Rule: param.RuleEFT, Slot: param.SlotInsertion, Regime: param.RegimeDynamic}
		ps, err := combo.Schedule(ng.G, len(speeds), speeds)
		if err != nil {
			t.Fatalf("%s het on %s: %v", combo.Name(), ng.Name, err)
		}
		checkZeroVariance(t, combo.Name()+"-het on "+ng.Name, mustCompile(t, ps), ps.Makespan())
		ps.Release()
	}
}

// TestZeroVarianceAPNHeterogeneous runs the same invariant for a
// heterogeneous APN schedule with link contention.
func TestZeroVarianceAPNHeterogeneous(t *testing.T) {
	topo := machine.Hypercube(3)
	speeds := []float64{1.0, 2.0, 4.0, 1.0, 2.0, 4.0, 1.0, 2.0}
	for _, ng := range familyGraphs(t) {
		s, err := apn.ScheduleHet("MH", ng.G, topo, speeds)
		if err != nil {
			t.Fatalf("MH het on %s: %v", ng.Name, err)
		}
		x, err := ft.CompileAPN(s)
		if err != nil {
			t.Fatalf("compile MH het on %s: %v", ng.Name, err)
		}
		checkZeroVariance(t, "MH het on "+ng.Name, x, s.Makespan())
	}
}

// TestPerturbedExecutionStaysValidOrdered spot-checks a stronger
// property than the makespan comparison: under heavy perturbation the
// mean realized/static ratio stays at or above 1 and grows with the
// spread (delays right-shift, speedups are floored by the timetable).
func TestPerturbedExecutionStaysValidOrdered(t *testing.T) {
	g, err := gen.Generate("rgnos", 7, gen.Params{"v": "60", "ccr": "1"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := bnp.MCP(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	x := mustCompile(t, s)
	var prev float64
	for i, spread := range []float64{0.05, 0.3, 0.6} {
		opts := ft.SimOptions{Perturb: ft.Perturbation{Dist: ft.DistLognormal, TaskSpread: spread, CommSpread: spread}, Seed: 5}
		st, err := ft.SimMonteCarlo(x, opts, 60)
		if err != nil {
			t.Fatal(err)
		}
		if st.MeanRatio < 1 {
			t.Errorf("spread %g: mean ratio %.3f below 1 under timetable dispatch", spread, st.MeanRatio)
		}
		if i > 0 && st.MeanRatio <= prev {
			t.Errorf("mean ratio did not grow with spread: %.3f then %.3f", prev, st.MeanRatio)
		}
		prev = st.MeanRatio
	}
}
