package sim

import (
	"math"
	"testing"

	"repro/internal/dag"
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

// TestCliqueSemantics hand-checks one clique execution: remote data
// arrival (A finishes 10, +7 comm = 17) and processor order (B holds
// P1 until 20) give C start 20, finish 25.
func TestCliqueSemantics(t *testing.T) {
	g, a, bb, c := chainGraph(t)
	s := sched.New(g, 2)
	s.MustPlace(a, 0, 0)
	s.MustPlace(bb, 1, 0)
	s.MustPlace(c, 1, 20)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Policy{PolicyTimetable, PolicyEager} {
		res, err := Simulate(s, Options{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if res.Static != 25 || res.Makespan != 25 || res.Ratio != 1 {
			t.Errorf("policy %v: got %+v, want static=makespan=25", policy, res)
		}
	}
}

// TestSpeedFactors slows P1 by 2x: B takes 40, C waits for the
// processor and runs doubled, finishing at 50.
func TestSpeedFactors(t *testing.T) {
	g, a, bb, c := chainGraph(t)
	s := sched.New(g, 2)
	s.MustPlace(a, 0, 0)
	s.MustPlace(bb, 1, 0)
	s.MustPlace(c, 1, 20)
	for _, policy := range []Policy{PolicyTimetable, PolicyEager} {
		res, err := Simulate(s, Options{Policy: policy, Speed: []float64{1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != 50 {
			t.Errorf("policy %v: makespan = %d, want 50", policy, res.Makespan)
		}
	}
}

// TestPolicies distinguishes the dispatch rules on a schedule with an
// unexplained gap: C planned at 30 though its constraints clear at 20.
// Timetable replays the plan (35); eager compresses the gap (25 — B's
// 20 still runs, C finishes at 25).
func TestPolicies(t *testing.T) {
	g, a, bb, c := chainGraph(t)
	s := sched.New(g, 2)
	s.MustPlace(a, 0, 0)
	s.MustPlace(bb, 1, 0)
	s.MustPlace(c, 1, 30)
	if res, err := Simulate(s, Options{Policy: PolicyTimetable}); err != nil || res.Makespan != 35 {
		t.Errorf("timetable: res=%+v err=%v, want makespan 35", res, err)
	}
	if res, err := Simulate(s, Options{Policy: PolicyEager}); err != nil || res.Makespan != 25 {
		t.Errorf("eager: res=%+v err=%v, want makespan 25", res, err)
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
	topo := machine.Chain(2)
	s := machine.NewSchedule(g, topo)
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
	// Unperturbed replay is exact under both policies (this schedule
	// has no unexplained idle).
	for _, policy := range []Policy{PolicyTimetable, PolicyEager} {
		res, err := SimulateAPN(s, Options{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != 11 {
			t.Errorf("policy %v: makespan = %d, want 11", policy, res.Makespan)
		}
	}
	// Slow P0 by 2x: A finishes 4, C finishes 10. A's transfer holds
	// the channel [4,8), B runs [8,9). C's transfer waits for its data
	// (10) and the free channel, holding [10,14); D runs [14,15).
	for _, policy := range []Policy{PolicyTimetable, PolicyEager} {
		res, err := SimulateAPN(s, Options{Policy: policy, Speed: []float64{2, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != 15 {
			t.Errorf("policy %v with slow sender: makespan = %d, want 15", policy, res.Makespan)
		}
	}
}

// TestDeterminism pins the counter-based randomness: equal (seed,
// trial) reproduce the same makespan, distinct trials perturb
// differently, and MonteCarlo is reproducible end to end.
func TestDeterminism(t *testing.T) {
	g, a, bb, c := chainGraph(t)
	s := sched.New(g, 2)
	s.MustPlace(a, 0, 0)
	s.MustPlace(bb, 1, 0)
	s.MustPlace(c, 1, 20)
	plan, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Perturb: Perturbation{Dist: DistLognormal, TaskSpread: 0.4, CommSpread: 0.4}, Seed: 11}
	first := make([]int64, 16)
	distinct := false
	for i := range first {
		mk, err := plan.Run(opts, i)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = mk
		if mk != first[0] {
			distinct = true
		}
	}
	if !distinct {
		t.Error("16 lognormal trials all realized the same makespan; perturbation looks inert")
	}
	for i := range first {
		mk, err := plan.Run(opts, i)
		if err != nil {
			t.Fatal(err)
		}
		if mk != first[i] {
			t.Fatalf("trial %d not reproducible: %d then %d", i, first[i], mk)
		}
	}
	st1, err := MonteCarlo(plan, opts, 40)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := MonteCarlo(plan, opts, 40)
	if err != nil {
		t.Fatal(err)
	}
	if st1.MeanMakespan != st2.MeanMakespan || st1.P99Makespan != st2.P99Makespan {
		t.Errorf("MonteCarlo not reproducible: %+v vs %+v", st1, st2)
	}
	if st1.Static != 25 || st1.Trials != 40 || len(st1.Ratios) != 40 {
		t.Errorf("MonteCarlo bookkeeping wrong: %+v", st1)
	}
	if st1.MaxMakespan < st1.P99Makespan {
		t.Errorf("max %d below P99 %d", st1.MaxMakespan, st1.P99Makespan)
	}
}

// TestZeroSpreadIsExact verifies that every distribution with spread 0
// — not just DistNone — replays exactly, keeping the zero-variance
// anchor independent of the distribution switch.
func TestZeroSpreadIsExact(t *testing.T) {
	g, a, bb, c := chainGraph(t)
	s := sched.New(g, 2)
	s.MustPlace(a, 0, 0)
	s.MustPlace(bb, 1, 0)
	s.MustPlace(c, 1, 20)
	for _, d := range []Distribution{DistNone, DistUniform, DistLognormal} {
		res, err := Simulate(s, Options{Perturb: Perturbation{Dist: d}, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != 25 {
			t.Errorf("%v with zero spread: makespan = %d, want 25", d, res.Makespan)
		}
	}
}

// TestOptionsValidation exercises the rejection paths.
func TestOptionsValidation(t *testing.T) {
	g, a, bb, c := chainGraph(t)
	s := sched.New(g, 2)
	s.MustPlace(a, 0, 0)
	s.MustPlace(bb, 1, 0)
	// Partial schedule is rejected at compile time.
	if _, err := Compile(s); err == nil {
		t.Error("compiling a partial schedule succeeded")
	}
	s.MustPlace(c, 1, 20)
	bad := []Options{
		{Perturb: Perturbation{Dist: Distribution(9)}},
		{Perturb: Perturbation{Dist: DistUniform, TaskSpread: 1.5}},
		{Perturb: Perturbation{Dist: DistLognormal, CommSpread: -0.1}},
		{Perturb: Perturbation{Dist: DistLognormal, TaskSpread: math.NaN()}},
		{Perturb: Perturbation{Dist: DistLognormal, TaskSpread: math.Inf(1)}},
		{Perturb: Perturbation{Dist: DistLognormal, CommSpread: math.Inf(-1)}},
		{Perturb: Perturbation{Dist: DistNone, CommSpread: math.NaN()}},
		{Policy: Policy(7)},
		{Speed: []float64{1}},               // wrong length
		{Speed: []float64{1, 0}},            // non-positive factor
		{Speed: []float64{1, 1, 1, 1}},      // wrong length
		{Speed: []float64{math.NaN(), 1}},   // NaN factor
		{Speed: []float64{1, math.Inf(1)}},  // infinite factor
		{Speed: []float64{math.Inf(-1), 1}}, // negative infinite factor
	}
	for i, opts := range bad {
		if _, err := Simulate(s, opts); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, opts)
		}
	}
	if _, err := MonteCarlo(mustCompile(t, s), Options{}, 0); err == nil {
		t.Error("MonteCarlo with 0 trials succeeded")
	}
}

func mustCompile(t *testing.T, s *sched.Schedule) *Plan {
	t.Helper()
	p, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPercentileIndex pins the nearest-rank percentile indices.
func TestPercentileIndex(t *testing.T) {
	cases := []struct{ n, want int }{{1, 0}, {25, 24}, {100, 98}, {200, 197}, {1000, 989}}
	for _, c := range cases {
		if got := PercentileIndex(c.n, 0.99); got != c.want {
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
	plan := mustCompile(t, oneEdgeSchedule(t, w, 0))
	opts := Options{Perturb: Perturbation{Dist: DistLognormal, TaskSpread: 0.3}, Seed: 1}
	var sum float64
	for i := 0; i < n; i++ {
		mk, err := plan.Run(opts, i)
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
	opts := Options{Perturb: Perturbation{Dist: DistUniform, TaskSpread: 0.25, CommSpread: 0.75}, Policy: PolicyEager, Seed: 2}
	task := mustCompile(t, oneEdgeSchedule(t, w, 0))
	comm := mustCompile(t, oneEdgeSchedule(t, 0, w))
	for i := 0; i < 10000; i++ {
		mt, err := task.Run(opts, i)
		if err != nil {
			t.Fatal(err)
		}
		if mt < 0.75*w || mt > 1.25*w {
			t.Fatalf("task duration %d outside [0.75, 1.25] x %d", mt, w)
		}
		mc, err := comm.Run(opts, i)
		if err != nil {
			t.Fatal(err)
		}
		if mc < 0.25*w || mc > 1.75*w {
			t.Fatalf("communication delay %d outside [0.25, 1.75] x %d", mc, w)
		}
	}
}
