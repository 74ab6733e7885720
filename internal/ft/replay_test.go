package ft_test

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/ft"
	"repro/internal/machine"
	"repro/internal/sched"
)

// chainGraph builds A(10) -> C(5) with edge cost 7, plus independent
// B(20): the smallest graph exercising data arrival, processor order,
// and co-location at once.
func chainGraph(t *testing.T) (*dag.Graph, dag.NodeID, dag.NodeID, dag.NodeID) {
	t.Helper()
	b := dag.NewBuilder()
	a := b.AddNode(10)
	bb := b.AddNode(20)
	c := b.AddNode(5)
	b.AddEdge(a, c, 7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, a, bb, c
}

// chainSchedule places chainGraph's A on P0 at 0, B on P1 at 0 and C
// on P1 at cStart.
func chainSchedule(t *testing.T, cStart int64) *sched.Schedule {
	t.Helper()
	g, a, bb, c := chainGraph(t)
	s := sched.New(g, 2)
	s.MustPlace(a, 0, 0)
	s.MustPlace(bb, 1, 0)
	s.MustPlace(c, 1, cStart)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// mustCompile compiles a complete clique schedule.
func mustCompile(t *testing.T, s *sched.Schedule) *ft.Exec {
	t.Helper()
	x, err := ft.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// makespan runs trial 0 of x without faults.
func makespan(t *testing.T, x *ft.Exec, opts ft.SimOptions) int64 {
	t.Helper()
	mk, err := x.Makespan(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return mk
}

var dispatches = []ft.Dispatch{ft.DispatchTimetable, ft.DispatchEager}

// TestCliqueSemantics hand-checks one clique execution: remote data
// arrival (A finishes 10, +7 comm = 17) and processor order (B holds
// P1 until 20) give C start 20, finish 25.
func TestCliqueSemantics(t *testing.T) {
	x := mustCompile(t, chainSchedule(t, 20))
	for _, d := range dispatches {
		if mk := makespan(t, x, ft.SimOptions{Policy: d}); x.Static() != 25 || mk != 25 {
			t.Errorf("dispatch %v: static %d, makespan %d, want both 25", d, x.Static(), mk)
		}
	}
}

// TestSpeedFactors slows P1 by 2x: B takes 40, C waits for the
// processor and runs doubled, finishing at 50.
func TestSpeedFactors(t *testing.T) {
	x := mustCompile(t, chainSchedule(t, 20))
	for _, d := range dispatches {
		if mk := makespan(t, x, ft.SimOptions{Policy: d, Speed: []float64{1, 2}}); mk != 50 {
			t.Errorf("dispatch %v: makespan = %d, want 50", d, mk)
		}
	}
}

// TestPolicies distinguishes the dispatch rules on a schedule with an
// unexplained gap: C planned at 30 though its constraints clear at 20.
// Timetable replays the plan (35); eager compresses the gap (25 — B's
// 20 still runs, C finishes at 25).
func TestPolicies(t *testing.T) {
	x := mustCompile(t, chainSchedule(t, 30))
	if mk := makespan(t, x, ft.SimOptions{Policy: ft.DispatchTimetable}); mk != 35 {
		t.Errorf("timetable: makespan %d, want 35", mk)
	}
	if mk := makespan(t, x, ft.SimOptions{Policy: ft.DispatchEager}); mk != 25 {
		t.Errorf("eager: makespan %d, want 25", mk)
	}
}

// TestAPNContention hand-checks the per-link FIFO queue on a 2-chain:
// two messages share channel 0->1; slowing P0 delays both senders and
// the second transfer must additionally wait for the first to clear
// the link.
func TestAPNContention(t *testing.T) {
	b := dag.NewBuilder()
	a := b.AddNode(2)  // on P0
	c := b.AddNode(3)  // on P0
	bb := b.AddNode(1) // on P1, child of a
	d := b.AddNode(1)  // on P1, child of c
	b.AddEdge(a, bb, 4)
	b.AddEdge(c, d, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := machine.NewSchedule(g, machine.Chain(2))
	s.MustPlace(a, 0, 0)
	s.MustPlace(c, 0, 2)
	est, ok := s.ESTOn(bb, 1, false)
	if !ok || est != 6 {
		t.Fatalf("EST of first receiver = %d (ok=%v), want 6", est, ok)
	}
	s.MustPlace(bb, 1, est)
	est, ok = s.ESTOn(d, 1, false)
	if !ok || est != 10 {
		t.Fatalf("EST of second receiver = %d (ok=%v), want 10 (link busy 2-6)", est, ok)
	}
	s.MustPlace(d, 1, est)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 11 {
		t.Fatalf("static makespan = %d, want 11", s.Makespan())
	}
	x, err := ft.CompileAPN(s)
	if err != nil {
		t.Fatal(err)
	}
	// Unperturbed replay is exact under both policies (this schedule
	// has no unexplained idle).
	for _, p := range dispatches {
		if mk := makespan(t, x, ft.SimOptions{Policy: p}); mk != 11 {
			t.Errorf("dispatch %v: makespan = %d, want 11", p, mk)
		}
	}
	// Slow P0 by 2x: A finishes 4, C finishes 10. A's transfer holds
	// the channel [4,8), B runs [8,9). C's transfer waits for its data
	// (10) and the free channel, holding [10,14); D runs [14,15).
	for _, p := range dispatches {
		if mk := makespan(t, x, ft.SimOptions{Policy: p, Speed: []float64{2, 1}}); mk != 15 {
			t.Errorf("dispatch %v with slow sender: makespan = %d, want 15", p, mk)
		}
	}
}

// TestZeroSpreadIsExact verifies that every distribution with spread 0
// — not just DistNone — replays exactly, keeping the zero-variance
// anchor independent of the distribution switch.
func TestZeroSpreadIsExact(t *testing.T) {
	x := mustCompile(t, chainSchedule(t, 20))
	for _, d := range []ft.Distribution{ft.DistNone, ft.DistUniform, ft.DistLognormal} {
		if mk := makespan(t, x, ft.SimOptions{Perturb: ft.Perturbation{Dist: d}, Seed: 3}); mk != 25 {
			t.Errorf("%v with zero spread: makespan = %d, want 25", d, mk)
		}
	}
}

// TestOptionsValidation exercises the rejection paths of Compile,
// Makespan and the fault-free study.
func TestOptionsValidation(t *testing.T) {
	g, a, bb, c := chainGraph(t)
	s := sched.New(g, 2)
	s.MustPlace(a, 0, 0)
	s.MustPlace(bb, 1, 0)
	// Partial schedule is rejected at compile time.
	if _, err := ft.Compile(s); err == nil {
		t.Error("compiling a partial schedule succeeded")
	}
	s.MustPlace(c, 1, 20)
	x := mustCompile(t, s)
	bad := []ft.SimOptions{
		{Perturb: ft.Perturbation{Dist: ft.Distribution(9)}},
		{Perturb: ft.Perturbation{Dist: ft.DistUniform, TaskSpread: 1.5}},
		{Perturb: ft.Perturbation{Dist: ft.DistLognormal, CommSpread: -0.1}},
		{Perturb: ft.Perturbation{Dist: ft.DistLognormal, TaskSpread: math.NaN()}},
		{Perturb: ft.Perturbation{Dist: ft.DistLognormal, TaskSpread: math.Inf(1)}},
		{Perturb: ft.Perturbation{Dist: ft.DistLognormal, CommSpread: math.Inf(-1)}},
		{Perturb: ft.Perturbation{Dist: ft.DistNone, CommSpread: math.NaN()}},
		{Policy: ft.Dispatch(7)},
		{Speed: []float64{1}},               // wrong length
		{Speed: []float64{1, 0}},            // non-positive factor
		{Speed: []float64{1, 1, 1, 1}},      // wrong length
		{Speed: []float64{math.NaN(), 1}},   // NaN factor
		{Speed: []float64{1, math.Inf(1)}},  // infinite factor
		{Speed: []float64{math.Inf(-1), 1}}, // negative infinite factor
	}
	for i, opts := range bad {
		if _, err := x.Makespan(opts, 0); err == nil {
			t.Errorf("bad options %d accepted by Makespan: %+v", i, opts)
		}
		if _, err := ft.SimMonteCarlo(x, opts, 1); err == nil {
			t.Errorf("bad options %d accepted by SimMonteCarlo: %+v", i, opts)
		}
	}
	if _, err := ft.SimMonteCarlo(x, ft.SimOptions{}, 0); err == nil {
		t.Error("SimMonteCarlo with 0 trials succeeded")
	}
}

// TestFaultModelValidate pins which fault models Validate accepts.
func TestFaultModelValidate(t *testing.T) {
	cases := []struct {
		name string
		m    ft.FaultModel
		ok   bool
	}{
		{"zero", ft.FaultModel{}, true},
		{"crash only", ft.FaultModel{MTBF: 100}, true},
		{"crash and repair", ft.FaultModel{MTBF: 100, MeanRepair: 10}, true},
		{"links", ft.FaultModel{LinkMTBF: 50, MeanOutage: 5}, true},
		{"negative mtbf", ft.FaultModel{MTBF: -1}, false},
		{"negative repair", ft.FaultModel{MeanRepair: -2}, false},
		{"outage without mean", ft.FaultModel{LinkMTBF: 50}, false},
		{"negative outage", ft.FaultModel{LinkMTBF: 50, MeanOutage: -1}, false},
	}
	for _, tc := range cases {
		err := tc.m.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: error expected", tc.name)
		}
	}
}

// TestPercentileIndex pins the nearest-rank percentile indices.
func TestPercentileIndex(t *testing.T) {
	cases := []struct{ n, want int }{{1, 0}, {25, 24}, {100, 98}, {200, 197}, {1000, 989}}
	for _, c := range cases {
		if got := ft.PercentileIndex(c.n, 0.99); got != c.want {
			t.Errorf("PercentileIndex(%d, 0.99) = %d, want %d", c.n, got, c.want)
		}
	}
}

// oneEdgeSchedule places a task of weight w on P0 and, when the edge
// cost c is positive, a zero-weight child on P1 behind a remote edge
// of cost c: the realized makespan then isolates one task multiplier
// (c == 0) or one communication multiplier (w == 0, eager dispatch).
func oneEdgeSchedule(t *testing.T, w, c int64) *sched.Schedule {
	t.Helper()
	b := dag.NewBuilder()
	a := b.AddNode(w)
	procs := 1
	if c > 0 {
		b.AddEdge(a, b.AddNode(0), c)
		procs = 2
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(g, procs)
	s.MustPlace(a, 0, 0)
	if c > 0 {
		s.MustPlace(1, 1, w+c)
	}
	return s
}

// TestLognormalMeanIsOne checks the -sigma^2/2 correction empirically:
// the realized duration of one task, averaged over many trials, must
// approach its weight.
func TestLognormalMeanIsOne(t *testing.T) {
	const w, n = 1_000_000, 50_000
	x := mustCompile(t, oneEdgeSchedule(t, w, 0))
	opts := ft.SimOptions{Perturb: ft.Perturbation{Dist: ft.DistLognormal, TaskSpread: 0.3}, Seed: 1}
	var sum float64
	for i := 0; i < n; i++ {
		mk, err := x.Makespan(opts, i)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(mk) / w
	}
	if mean := sum / n; mean < 0.99 || mean > 1.01 {
		t.Errorf("lognormal multiplier mean = %.4f, want ~1", mean)
	}
}

// TestUniformBounds checks uniform draws stay inside [1-s, 1+s], with
// the task spread on task durations and the communication spread on
// edge costs.
func TestUniformBounds(t *testing.T) {
	const w = 1_000_000
	opts := ft.SimOptions{Perturb: ft.Perturbation{Dist: ft.DistUniform, TaskSpread: 0.25, CommSpread: 0.75}, Policy: ft.DispatchEager, Seed: 2}
	task := mustCompile(t, oneEdgeSchedule(t, w, 0))
	comm := mustCompile(t, oneEdgeSchedule(t, 0, w))
	for i := 0; i < 10000; i++ {
		mt, err := task.Makespan(opts, i)
		if err != nil {
			t.Fatal(err)
		}
		if mt < 0.75*w || mt > 1.25*w {
			t.Fatalf("task duration %d outside [0.75, 1.25] x %d", mt, w)
		}
		mc, err := comm.Makespan(opts, i)
		if err != nil {
			t.Fatal(err)
		}
		if mc < 0.25*w || mc > 1.75*w {
			t.Fatalf("communication delay %d outside [0.25, 1.75] x %d", mc, w)
		}
	}
}
