package sim

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/algo/unc"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/machine"
)

// invariantInstances builds one representative instance of every
// registered generator family: random (v, ccr) families at a fixed
// matched point, the rest with default parameters.
func invariantInstances(t *testing.T) []gen.NamedGraph {
	t.Helper()
	var out []gen.NamedGraph
	for _, f := range gen.Generators() {
		params := gen.Params{}
		if f.Random {
			params["v"] = "40"
			params["ccr"] = "2"
		}
		if f.Name == "psg" {
			params["name"] = "kwok-ahmad-9"
		}
		g, err := gen.Generate(f.Name, 42, params)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		out = append(out, gen.NamedGraph{Name: f.Name, G: g})
	}
	return out
}

// TestZeroVarianceReproducesStatic is the simulator's anchor
// invariant: for every algorithm of the study and every registered
// generator family, executing the schedule with no perturbation under
// the timetable policy reproduces the static makespan exactly, and
// under the eager policy never exceeds it (eager may only compress
// idle gaps the plan left unexplained).
func TestZeroVarianceReproducesStatic(t *testing.T) {
	topo := machine.Hypercube(3)
	check := func(name, fam string, plan *Plan, static int64) {
		t.Helper()
		mk, err := plan.Run(Options{Policy: PolicyTimetable}, 0)
		if err != nil {
			t.Fatalf("%s on %s: %v", name, fam, err)
		}
		if mk != static {
			t.Errorf("%s on %s: timetable zero-variance makespan %d != static %d", name, fam, mk, static)
		}
		mk, err = plan.Run(Options{Policy: PolicyEager}, 0)
		if err != nil {
			t.Fatalf("%s on %s: %v", name, fam, err)
		}
		if mk > static {
			t.Errorf("%s on %s: eager zero-variance makespan %d > static %d", name, fam, mk, static)
		}
	}
	for _, ng := range invariantInstances(t) {
		for name, alg := range bnp.Algorithms() {
			s, err := alg(ng.G, 8)
			if err != nil {
				t.Fatalf("BNP %s on %s: %v", name, ng.Name, err)
			}
			plan, err := Compile(s)
			if err != nil {
				t.Fatalf("BNP %s on %s: %v", name, ng.Name, err)
			}
			check(fmt.Sprintf("BNP %s", name), ng.Name, plan, s.Makespan())
			s.Release()
		}
		for name, alg := range unc.Algorithms() {
			s, err := alg(ng.G)
			if err != nil {
				t.Fatalf("UNC %s on %s: %v", name, ng.Name, err)
			}
			plan, err := Compile(s)
			if err != nil {
				t.Fatalf("UNC %s on %s: %v", name, ng.Name, err)
			}
			check(fmt.Sprintf("UNC %s", name), ng.Name, plan, s.Makespan())
			s.Release()
		}
		for name, alg := range apn.Algorithms() {
			s, err := alg(ng.G, topo)
			if err != nil {
				t.Fatalf("APN %s on %s: %v", name, ng.Name, err)
			}
			plan, err := CompileAPN(s)
			if err != nil {
				t.Fatalf("APN %s on %s: %v", name, ng.Name, err)
			}
			check(fmt.Sprintf("APN %s", name), ng.Name, plan, s.Makespan())
		}
	}
}

// TestPerturbedExecutionStaysValidOrdered spot-checks a stronger
// property than the makespan comparison: under heavy perturbation the
// realized makespan is still positive and grows with the spread on
// average (delays right-shift, speedups are floored by the timetable).
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
	plan, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for i, spread := range []float64{0.05, 0.3, 0.6} {
		opts := Options{Perturb: Perturbation{Dist: DistLognormal, TaskSpread: spread, CommSpread: spread}, Seed: 5}
		st, err := MonteCarlo(plan, opts, 60)
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

// TestPlanView checks the read-only plan view ft converts APN
// executions from: task jobs carry a processor and no channel, message
// jobs a valid channel and no processor, and channels are distinct
// endpoint pairs. Job stays 32 bytes.
func TestPlanView(t *testing.T) {
	if size := unsafe.Sizeof(Job{}); size != 32 {
		t.Fatalf("Job is %d bytes, want 32", size)
	}
	g, err := gen.Generate("layered", 7, gen.Params{"v": "40", "ccr": "2"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := apn.ScheduleHet("MH", g, machine.Hypercube(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileAPN(s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tasks() != g.NumNodes() || plan.NumProcs() != 8 {
		t.Fatalf("view reports %d tasks on %d procs", plan.Tasks(), plan.NumProcs())
	}
	seen := map[[2]int]bool{}
	for _, ch := range plan.Channels() {
		if seen[ch] {
			t.Fatalf("channel %v listed twice", ch)
		}
		seen[ch] = true
	}
	if len(seen) == 0 || plan.Jobs() == plan.Tasks() {
		t.Fatal("instance has no message jobs")
	}
	// Message jobs follow the schedule's committed hops in (child,
	// parent, route) order, and their channel is the topology's.
	topo := s.Topology()
	j := int32(plan.Tasks())
	for v := 0; v < g.NumNodes(); v++ {
		for _, pr := range g.Preds(dag.NodeID(v)) {
			s.EachMessageHop(pr.To, dag.NodeID(v), func(h machine.LinkHop) {
				jb := plan.Job(j)
				if jb.Planned != h.Start || jb.Base != h.Finish-h.Start {
					t.Fatalf("message job %d: planned %d base %d, hop [%d,%d)", j, jb.Planned, jb.Base, h.Start, h.Finish)
				}
				if plan.Channels()[jb.Chan] != [2]int{h.From, h.To} || int(jb.Chan) != topo.Channel(h.From, h.To) || h.Link != int(jb.Chan) {
					t.Fatalf("message job %d: chan %d, hop %d->%d on channel %d", j, jb.Chan, h.From, h.To, h.Link)
				}
				j++
			})
		}
	}
	if int(j) != plan.Jobs() {
		t.Fatalf("%d message jobs for %d committed hops", plan.Jobs()-plan.Tasks(), int(j)-plan.Tasks())
	}
	for j := int32(0); j < int32(plan.Jobs()); j++ {
		jb := plan.Job(j)
		if int(j) < plan.Tasks() {
			if jb.Proc < 0 || jb.Chan != -1 {
				t.Fatalf("task job %d: proc %d chan %d", j, jb.Proc, jb.Chan)
			}
		} else if jb.Proc != -1 || jb.Chan < 0 || int(jb.Chan) >= len(plan.Channels()) {
			t.Fatalf("message job %d: proc %d chan %d", j, jb.Proc, jb.Chan)
		}
	}
}
