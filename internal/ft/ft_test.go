package ft_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/algo/unc"
	"repro/internal/dag"
	"repro/internal/ft"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
)

var (
	bnpNames = []string{"HLFET", "ISH", "ETF", "LAST", "MCP", "DLS"}
	uncNames = []string{"EZ", "LC", "DSC", "MD", "DCP"}
	apnNames = []string{"MH", "DLS", "BU", "BSA"}
)

// familyGraphs returns one instance per registered generator family:
// the full breadth of the registry at a size small enough for an
// exhaustive invariant sweep.
func familyGraphs(t *testing.T) []gen.NamedGraph {
	t.Helper()
	fixed := map[string]gen.Params{
		"psg": {"name": "kwok-ahmad-9"},
	}
	var out []gen.NamedGraph
	for fi, f := range gen.Generators() {
		var (
			g   *dag.Graph
			err error
		)
		if f.Random {
			g, err = gen.Generate(f.Name, int64(100+fi), gen.Params{"v": "40", "ccr": "1"})
		} else {
			g, err = gen.Generate(f.Name, int64(100+fi), fixed[f.Name])
		}
		if err != nil {
			t.Fatalf("generate %s: %v", f.Name, err)
		}
		out = append(out, gen.NamedGraph{Name: f.Name, G: g})
	}
	if len(out) < 11 {
		t.Fatalf("expected at least 11 families, got %d", len(out))
	}
	return out
}

// altSpeeds returns a deterministic heterogeneous speed vector.
func altSpeeds(n int) []float64 {
	sp := make([]float64, n)
	for i := range sp {
		switch i % 3 {
		case 0:
			sp[i] = 1
		case 1:
			sp[i] = 1.5
		default:
			sp[i] = 0.75
		}
	}
	return sp
}

// compiled is one schedule compiled into the arc-engine oracle and,
// independently, into the runtime.
type compiled struct {
	label string
	procs int
	o     *ft.Oracle
	x     *ft.Exec
}

// compileClique compiles a clique schedule both ways and releases it.
func compileClique(t *testing.T, label string, s *sched.Schedule) compiled {
	t.Helper()
	defer s.Release()
	o, err := ft.OracleCompile(s)
	if err != nil {
		t.Fatalf("%s: compile oracle: %v", label, err)
	}
	x, err := ft.Compile(s)
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	return compiled{label, s.NumProcs(), o, x}
}

// compileAPN compiles an APN schedule both ways.
func compileAPN(t *testing.T, label string, s *machine.Schedule) compiled {
	t.Helper()
	o, err := ft.OracleCompileAPN(s)
	if err != nil {
		t.Fatalf("%s: compile oracle: %v", label, err)
	}
	x, err := ft.CompileAPN(s)
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	return compiled{label, s.NumProcs(), o, x}
}

// checkZeroFault runs the runtime without faults against the oracle
// for trials 0..2, through both Exec.Makespan and Exec.Run, and
// requires byte-identical makespans.
func checkZeroFault(t *testing.T, label string, o *ft.Oracle, x *ft.Exec, opts ft.SimOptions) {
	t.Helper()
	for trial := 0; trial < 3; trial++ {
		want, _, err := o.Run(opts, trial)
		if err != nil {
			t.Fatalf("%s trial %d: oracle: %v", label, trial, err)
		}
		mk, err := x.Makespan(opts, trial)
		if err != nil {
			t.Fatalf("%s trial %d: makespan: %v", label, trial, err)
		}
		if mk != want {
			t.Fatalf("%s trial %d: fault-free makespan %d, oracle makespan %d", label, trial, mk, want)
		}
		res, err := x.Run(ft.Options{Sim: opts}, trial)
		if err != nil {
			t.Fatalf("%s trial %d: run: %v", label, trial, err)
		}
		if !res.Finished {
			t.Fatalf("%s trial %d: fault-free run did not finish", label, trial)
		}
		if res.Makespan != want {
			t.Fatalf("%s trial %d: run makespan %d, oracle makespan %d", label, trial, res.Makespan, want)
		}
		if res.Crashes != 0 || res.Lost != 0 {
			t.Fatalf("%s trial %d: fault-free run reports %d crashes, %d lost", label, trial, res.Crashes, res.Lost)
		}
		for p, d := range res.Down {
			if d != 0 {
				t.Fatalf("%s trial %d: processor %d has downtime %d without faults", label, trial, p, d)
			}
		}
		if res.Static != o.Static() {
			t.Fatalf("%s trial %d: static %d vs oracle %d", label, trial, res.Static, o.Static())
		}
	}
}

// zeroFaultOptions returns the option sets the invariant is checked
// under: deterministic replay, lognormal noise with eager dispatch, and
// uniform noise with an optional runtime speed vector.
func zeroFaultOptions(numProcs int, runtimeSpeeds bool) []ft.SimOptions {
	opts := []ft.SimOptions{
		{},
		{Perturb: ft.Perturbation{Dist: ft.DistLognormal, TaskSpread: 0.3, CommSpread: 0.3}, Policy: ft.DispatchEager, Seed: 11},
		{Perturb: ft.Perturbation{Dist: ft.DistUniform, TaskSpread: 0.4, CommSpread: 0.4}, Seed: 5},
	}
	if runtimeSpeeds {
		opts = append(opts, ft.SimOptions{
			Perturb: ft.Perturbation{Dist: ft.DistLognormal, TaskSpread: 0.2, CommSpread: 0.2},
			Seed:    23,
			Speed:   altSpeeds(numProcs),
		})
	}
	return opts
}

// zeroFaultCorpus compiles all 15 algorithms over every registered
// generator family, clique and APN.
func zeroFaultCorpus(t *testing.T) []compiled {
	t.Helper()
	topo := machine.Hypercube(3)
	var out []compiled
	for _, ng := range familyGraphs(t) {
		for _, name := range bnpNames {
			s, err := bnp.ScheduleHet(name, ng.G, 8, nil)
			if err != nil {
				t.Fatalf("bnp %s on %s: %v", name, ng.Name, err)
			}
			out = append(out, compileClique(t, fmt.Sprintf("BNP %s on %s", name, ng.Name), s))
		}
		for _, name := range uncNames {
			s, err := unc.ScheduleHet(name, ng.G, nil)
			if err != nil {
				t.Fatalf("unc %s on %s: %v", name, ng.Name, err)
			}
			out = append(out, compileClique(t, fmt.Sprintf("UNC %s on %s", name, ng.Name), s))
		}
		for _, name := range apnNames {
			s, err := apn.ScheduleHet(name, ng.G, topo, nil)
			if err != nil {
				t.Fatalf("apn %s on %s: %v", name, ng.Name, err)
			}
			out = append(out, compileAPN(t, fmt.Sprintf("APN %s on %s", name, ng.Name), s))
		}
	}
	return out
}

// checkCorpus checks the zero-fault invariant for every compiled case
// under every option set.
func checkCorpus(t *testing.T, cases []compiled) {
	t.Helper()
	for _, c := range cases {
		for oi, opts := range zeroFaultOptions(c.procs, true) {
			checkZeroFault(t, fmt.Sprintf("%s opts[%d]", c.label, oi), c.o, c.x, opts)
		}
	}
}

// TestZeroFaultMatchesSim is the invariant the simulator hangs on: with
// the zero fault model the runtime reproduces the independently
// compiled arc-engine oracle byte-identically for all 15 algorithms
// over every registered generator family, clique and APN, under every
// perturbation/policy combination and runtime speed vector.
func TestZeroFaultMatchesSim(t *testing.T) {
	checkCorpus(t, zeroFaultCorpus(t))
}

// TestZeroFaultMatchesSimHetSchedules repeats the invariant for
// schedules built with per-processor speed vectors (speed-aware static
// plans), one algorithm per class.
func TestZeroFaultMatchesSimHetSchedules(t *testing.T) {
	topo := machine.Hypercube(3)
	var cases []compiled
	for _, ng := range familyGraphs(t) {
		s, err := bnp.ScheduleHet("MCP", ng.G, 8, altSpeeds(8))
		if err != nil {
			t.Fatalf("bnp MCP het on %s: %v", ng.Name, err)
		}
		cases = append(cases, compileClique(t, "BNP MCP het on "+ng.Name, s))
		s, err = unc.ScheduleHet("DCP", ng.G, altSpeeds(max(ng.G.NumNodes(), 1)))
		if err != nil {
			t.Fatalf("unc DCP het on %s: %v", ng.Name, err)
		}
		cases = append(cases, compileClique(t, "UNC DCP het on "+ng.Name, s))
		ms, err := apn.ScheduleHet("MH", ng.G, topo, altSpeeds(topo.NumProcs()))
		if err != nil {
			t.Fatalf("apn MH het on %s: %v", ng.Name, err)
		}
		cases = append(cases, compileAPN(t, "APN MH het on "+ng.Name, ms))
	}
	checkCorpus(t, cases)
}

// TestSimCountersMatchOracle requires the fault-free study
// ft.SimMonteCarlo, with metrics on, to count one sim.runs per trial,
// the oracle's job count per trial in sim.events and the oracle's
// stalls in sim.stalls, over the zero-fault corpus, and to leave the
// ft.* counters alone.
func TestSimCountersMatchOracle(t *testing.T) {
	const trials = 3
	cases := zeroFaultCorpus(t)
	obs.ResetMetrics()
	obs.EnableMetrics(true)
	t.Cleanup(func() { obs.EnableMetrics(false); obs.ResetMetrics() })
	for _, c := range cases {
		for oi, opts := range zeroFaultOptions(c.procs, true) {
			var stalls int64
			for trial := 0; trial < trials; trial++ {
				_, st, err := c.o.Run(opts, trial)
				if err != nil {
					t.Fatalf("%s opts[%d]: oracle: %v", c.label, oi, err)
				}
				stalls += st
			}
			obs.ResetMetrics()
			if _, err := ft.SimMonteCarlo(c.x, opts, trials); err != nil {
				t.Fatalf("%s opts[%d]: %v", c.label, oi, err)
			}
			got := map[string]int64{}
			for _, s := range obs.SnapshotMetrics() {
				got[s.Name] = s.Value
			}
			want := map[string]int64{"sim.runs": trials, "sim.events": int64(trials * c.o.Jobs()), "sim.stalls": stalls, "ft.runs": 0, "ft.events": 0}
			for name, w := range want {
				if got[name] != w {
					t.Fatalf("%s opts[%d]: %s = %d, want %d", c.label, oi, name, got[name], w)
				}
			}
		}
	}
}

// faultyExec builds a medium clique execution used by the fault tests.
func faultyExec(t *testing.T) *ft.Exec {
	t.Helper()
	g, err := gen.Generate("layered", 42, gen.Params{"v": "60", "ccr": "1"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s, err := bnp.ScheduleHet("MCP", g, 6, nil)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	defer s.Release()
	x, err := ft.Compile(s)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return x
}

// faultyOptions returns a fault model aggressive enough that crashes
// are near-certain within the static span.
func faultyOptions(x *ft.Exec, pol ft.RecoveryPolicy) ft.Options {
	static := x.Static()
	return ft.Options{
		Faults: ft.FaultModel{
			MTBF:       max(1, static/2),
			MeanRepair: max(1, static/10),
		},
		Recovery: pol,
		Deadline: static + static/2,
	}
}

// TestUtilizationAccounting checks the exact utilization identity
// Busy[p] + Idle[p] + Down[p] == Horizon for every processor, under
// every recovery policy, with faults injected.
func TestUtilizationAccounting(t *testing.T) {
	x := faultyExec(t)
	static := x.Static()
	for _, pol := range ft.Policies(max(1, static/16), 6) {
		for trial := 0; trial < 12; trial++ {
			res, err := x.Run(faultyOptions(x, pol), trial)
			if err != nil {
				t.Fatalf("%s trial %d: %v", pol.Name(), trial, err)
			}
			if len(res.Busy) != x.NumProcs() || len(res.Idle) != x.NumProcs() || len(res.Down) != x.NumProcs() {
				t.Fatalf("%s trial %d: utilization arrays not sized to %d processors", pol.Name(), trial, x.NumProcs())
			}
			for p := 0; p < x.NumProcs(); p++ {
				b, i, d := res.Busy[p], res.Idle[p], res.Down[p]
				if b < 0 || i < 0 || d < 0 {
					t.Fatalf("%s trial %d proc %d: negative utilization (%d, %d, %d)", pol.Name(), trial, p, b, i, d)
				}
				if got := b + i + d; got != res.Horizon {
					t.Fatalf("%s trial %d proc %d: busy+idle+down = %d, horizon = %d", pol.Name(), trial, p, got, res.Horizon)
				}
			}
			if res.Finished {
				if res.Makespan > res.Horizon {
					t.Fatalf("%s trial %d: makespan %d beyond horizon %d", pol.Name(), trial, res.Makespan, res.Horizon)
				}
				if want := float64(res.Makespan) / float64(static); res.Ratio != want {
					t.Fatalf("%s trial %d: ratio %g, want %g", pol.Name(), trial, res.Ratio, want)
				}
			} else {
				if !math.IsInf(res.Ratio, 1) {
					t.Fatalf("%s trial %d: unfinished run has finite ratio %g", pol.Name(), trial, res.Ratio)
				}
			}
		}
	}
}

// TestRecoveryDominatesNone pins the headline claim: under crash
// faults, resubmit and checkpoint finish strictly more trials than no
// recovery, and every trial the none policy finishes is crash-free.
func TestRecoveryDominatesNone(t *testing.T) {
	x := faultyExec(t)
	const trials = 40
	finished := map[string]int{}
	for _, pol := range ft.Policies(max(1, x.Static()/16), 6) {
		st, err := ft.MonteCarlo(x, faultyOptions(x, pol), trials)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		finished[pol.Name()] = st.Finished
		if st.Survived > st.Finished {
			t.Fatalf("%s: survived %d > finished %d", pol.Name(), st.Survived, st.Finished)
		}
	}
	if finished["none"] >= trials {
		t.Fatalf("fault model too weak: none finished all %d trials", trials)
	}
	if finished["resubmit"] <= finished["none"] {
		t.Fatalf("resubmit finished %d trials, none finished %d: no strict improvement", finished["resubmit"], finished["none"])
	}
	if finished["checkpoint"] <= finished["none"] {
		t.Fatalf("checkpoint finished %d trials, none finished %d: no strict improvement", finished["checkpoint"], finished["none"])
	}
}

// TestCheckpointReducesRework compares checkpoint against resubmit on
// identical failure traces: on trials both finish, the mean checkpoint
// makespan must not exceed the mean resubmit makespan (checkpoints can
// only reduce re-executed work).
func TestCheckpointReducesRework(t *testing.T) {
	x := faultyExec(t)
	const trials = 40
	rs, err := ft.MonteCarlo(x, faultyOptions(x, ft.Resubmit()), trials)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	cp, err := ft.MonteCarlo(x, faultyOptions(x, ft.Checkpoint(max(1, x.Static()/16))), trials)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	var sumRS, sumCP, n int64
	for tr := 0; tr < trials; tr++ {
		if rs.Makespans[tr] >= 0 && cp.Makespans[tr] >= 0 {
			sumRS += rs.Makespans[tr]
			sumCP += cp.Makespans[tr]
			n++
		}
	}
	if n == 0 {
		t.Fatal("no trial finished under both policies")
	}
	if sumCP > sumRS {
		t.Fatalf("checkpoint mean makespan %d over %d paired trials exceeds resubmit %d", sumCP/n, n, sumRS/n)
	}
}

// TestReplicateSurvivesPrimaryCrash builds a single critical task on
// two processors and shows trials where the primary's processor
// crashes but the replica finishes.
func TestReplicateSurvivesPrimaryCrash(t *testing.T) {
	b := dag.NewBuilder()
	v := b.AddNode(100)
	g := b.MustBuild()
	s, err := bnp.ScheduleHet("HLFET", g, 2, nil)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if s.ProcOf(v) != 0 {
		t.Fatalf("expected the task on processor 0, got %d", s.ProcOf(v))
	}
	x, err := ft.Compile(s)
	s.Release()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts := ft.Options{
		Faults: ft.FaultModel{MTBF: 60}, // no repair: a crash is permanent
	}
	var noneMiss, replicateSave int
	for trial := 0; trial < 60; trial++ {
		rn, err := x.Run(opts, trial)
		if err != nil {
			t.Fatalf("none trial %d: %v", trial, err)
		}
		ropts := opts
		ropts.Recovery = ft.Replicate(1)
		rr, err := x.Run(ropts, trial)
		if err != nil {
			t.Fatalf("replicate trial %d: %v", trial, err)
		}
		if !rn.Finished {
			noneMiss++
			if rr.Finished {
				replicateSave++
			}
		}
		if rn.Finished && !rr.Finished {
			t.Fatalf("trial %d: replication lost a trial the baseline finished", trial)
		}
	}
	if noneMiss == 0 {
		t.Fatal("fault model too weak: the unreplicated task always finished")
	}
	if replicateSave == 0 {
		t.Fatal("replication never saved a trial the baseline lost")
	}
}

// apnFaultExec builds the APN fault-injection instance: a layered
// v=40, CCR 2 graph scheduled by MH on a 3-cube, with processor crashes
// (and repairs) plus link outages at rates comparable to the static
// makespan.
func apnFaultExec(t *testing.T) (*ft.Exec, ft.Options) {
	t.Helper()
	g, err := gen.Generate("layered", 7, gen.Params{"v": "40", "ccr": "2"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s, err := apn.ScheduleHet("MH", g, machine.Hypercube(3), nil)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	x, err := ft.CompileAPN(s)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	static := x.Static()
	return x, ft.Options{
		Faults: ft.FaultModel{
			MTBF:       max(1, static),
			MeanRepair: max(1, static/10),
			LinkMTBF:   max(1, static),
			MeanOutage: max(1, static/20),
		},
	}
}

// TestAPNFaultRuns exercises an APN execution under processor crashes
// and link outages: utilization must balance and recovery policies
// other than none must be rejected.
func TestAPNFaultRuns(t *testing.T) {
	x, opts := apnFaultExec(t)
	var unfinished int
	for trial := 0; trial < 20; trial++ {
		res, err := x.Run(opts, trial)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for p := 0; p < x.NumProcs(); p++ {
			if got := res.Busy[p] + res.Idle[p] + res.Down[p]; got != res.Horizon {
				t.Fatalf("trial %d proc %d: busy+idle+down = %d, horizon = %d", trial, p, got, res.Horizon)
			}
		}
		if !res.Finished {
			unfinished++
			if res.Lost == 0 {
				t.Fatalf("trial %d: unfinished with zero lost tasks", trial)
			}
		}
	}
	if unfinished == 0 {
		t.Fatal("fault model too weak: every APN trial finished without recovery")
	}
	if _, err := x.Run(ft.Options{Faults: opts.Faults, Recovery: ft.Resubmit()}, 0); err == nil {
		t.Fatal("APN execution accepted a resubmit policy")
	}
	if _, err := ft.MonteCarlo(x, ft.Options{Recovery: ft.Replicate(2)}, 4); err == nil {
		t.Fatal("APN MonteCarlo accepted a replicate policy")
	}
}

// apnOutcomePin is the SHA-256 of the 20 per-trial outcomes of
// apnFaultExec (see apnOutcomeDigest), captured at commit
// c1ca7d34fa1bbda2eaec15cb07135cfde0e21c3e. It pins the exact crash,
// repair and link-outage behaviour of APN executions.
const apnOutcomePin = "4b01e181601a2dcc6f99ea84174a1073818803e9b2b761e8acf5d5ed89bc338c"

// apnOutcomeDigest hashes the Finished, Makespan, Horizon, Crashes,
// Lost, Busy and Down fields of trials 0..19 of x under opts.
func apnOutcomeDigest(t *testing.T, x *ft.Exec, opts ft.Options) string {
	t.Helper()
	h := sha256.New()
	for trial := 0; trial < 20; trial++ {
		res, err := x.Run(opts, trial)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fmt.Fprintf(h, "%t %d %d %d %d %v %v\n", res.Finished, res.Makespan, res.Horizon,
			res.Crashes, res.Lost, res.Busy, res.Down)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAPNFaultOutcomesPinned requires the APN fault instance to
// reproduce its recorded per-trial outcomes exactly.
func TestAPNFaultOutcomesPinned(t *testing.T) {
	x, opts := apnFaultExec(t)
	if got := apnOutcomeDigest(t, x, opts); got != apnOutcomePin {
		t.Fatalf("APN fault outcomes digest %s, want %s", got, apnOutcomePin)
	}
}

// TestAPNRunPublishesMetrics requires an APN execution to fold into
// the ft.* counters like a clique execution does.
func TestAPNRunPublishesMetrics(t *testing.T) {
	x, opts := apnFaultExec(t)
	obs.ResetMetrics()
	obs.EnableMetrics(true)
	t.Cleanup(func() { obs.EnableMetrics(false); obs.ResetMetrics() })
	if _, err := x.Run(opts, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := map[string]int64{}
	for _, s := range obs.SnapshotMetrics() {
		got[s.Name] = s.Value
	}
	if got["ft.runs"] != 1 {
		t.Fatalf("ft.runs = %d after one APN run, want 1", got["ft.runs"])
	}
	if got["ft.events"] <= 0 {
		t.Fatalf("ft.events = %d after one APN run, want > 0", got["ft.events"])
	}
}

// TestRunDeterminism requires repeat executions and repeat Monte-Carlo
// studies to be byte-identical.
func TestRunDeterminism(t *testing.T) {
	x := faultyExec(t)
	apnX, apnOpts := apnFaultExec(t)
	for _, in := range []struct {
		x    *ft.Exec
		opts ft.Options
	}{
		{x, faultyOptions(x, ft.Checkpoint(max(1, x.Static()/16)))},
		{apnX, apnOpts},
	} {
		checkRunDeterminism(t, in.x, in.opts)
	}
}

// checkRunDeterminism runs trials 0..7 and a 25-trial Monte-Carlo study
// twice each and requires identical results.
func checkRunDeterminism(t *testing.T, x *ft.Exec, opts ft.Options) {
	t.Helper()
	for trial := 0; trial < 8; trial++ {
		a, err := x.Run(opts, trial)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b, err := x.Run(opts, trial)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: repeat run differs:\n%+v\n%+v", trial, a, b)
		}
	}
	s1, err := ft.MonteCarlo(x, opts, 25)
	if err != nil {
		t.Fatalf("monte carlo: %v", err)
	}
	s2, err := ft.MonteCarlo(x, opts, 25)
	if err != nil {
		t.Fatalf("monte carlo: %v", err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("repeat MonteCarlo differs:\n%+v\n%+v", s1, s2)
	}
}

// TestOptionValidation covers the error paths of Run and MonteCarlo.
func TestOptionValidation(t *testing.T) {
	x := faultyExec(t)
	if _, err := x.Run(ft.Options{Deadline: -1}, 0); err == nil {
		t.Fatal("negative deadline accepted")
	}
	if _, err := x.Run(ft.Options{Faults: ft.FaultModel{MTBF: -1}}, 0); err == nil {
		t.Fatal("negative MTBF accepted")
	}
	if _, err := x.Run(ft.Options{Faults: ft.FaultModel{LinkMTBF: 5}}, 0); err == nil {
		t.Fatal("link faults without a mean outage accepted")
	}
	if _, err := ft.MonteCarlo(x, ft.Options{}, 0); err == nil {
		t.Fatal("zero trials accepted")
	}
	bad := make([]float64, x.NumProcs()+1)
	for i := range bad {
		bad[i] = 1
	}
	if _, err := x.Run(ft.Options{Sim: ft.SimOptions{Speed: bad}}, 0); err == nil {
		t.Fatal("mis-sized speed vector accepted")
	}
	bad = bad[:x.NumProcs()]
	for _, sp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0} {
		bad[0] = sp
		if _, err := x.Run(ft.Options{Sim: ft.SimOptions{Speed: bad}}, 0); err == nil {
			t.Fatalf("speed factor %g accepted", sp)
		}
	}
	for _, sp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		opts := ft.SimOptions{Perturb: ft.Perturbation{Dist: ft.DistLognormal, CommSpread: sp}}
		if _, err := x.Makespan(opts, 0); err == nil {
			t.Fatalf("communication spread %g accepted", sp)
		}
	}
}

// TestAPNConcurrentRunsMatchSerial runs the trials of the APN fault
// instance from several goroutines at once and requires every result
// to equal the serial run's: the pooled runtime belongs to one run at a
// time, and no state leaks from one trial into the next.
func TestAPNConcurrentRunsMatchSerial(t *testing.T) {
	const trials, workers = 12, 4
	x, opts := apnFaultExec(t)
	want := make([]ft.Result, trials)
	for trial := range want {
		res, err := x.Run(opts, trial)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want[trial] = res
	}
	got := make([][]ft.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]ft.Result, trials)
			for i := 0; i < trials; i++ {
				trial := (i + w*trials/workers) % trials
				res, err := x.Run(opts, trial)
				if err != nil {
					errs[w] = err
					return
				}
				got[w][trial] = res
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(got[w], want) {
			t.Fatalf("worker %d: concurrent results differ from serial", w)
		}
	}
}

// TestAPNRunAllocs requires a warm APN trial to reuse its per-job,
// per-task and per-channel arrays and its event heap: what is left is
// the Result's per-processor busy, down and idle slices, a handful of
// allocations whatever the plan's job and channel counts.
func TestAPNRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	x, opts := apnFaultExec(t)
	if _, err := x.Run(opts, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := x.Run(opts, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per trial", allocs)
	if allocs > 6 {
		t.Fatalf("%.0f allocations per APN trial, want at most 6", allocs)
	}
}
