package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// setupSmall builds a workload, shrinking the million pipeline so the
// tests stay quick; every other part of each workload runs in full.
func setupSmall(t *testing.T, w workload, seed int64) body {
	t.Helper()
	b, err := w.setup(seed, nil)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if m, ok := b.(*million); ok {
		m.nodes = warmNodes
	}
	return b
}

func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// The same seed gives the same op results and counts.
			a := setupSmall(t, w, 7).round(nil)
			b := setupSmall(t, w, 7).round(nil)
			if a.digest != b.digest || a.ops != b.ops {
				t.Errorf("seed 7 twice: digests %x / %x, ops %d / %d", a.digest[:6], b.digest[:6], a.ops, b.ops)
			}
			// Another seed passes every check.
			body := setupSmall(t, w, 8)
			o := body.round(nil)
			var c checks
			body.check(nil, &c)
			if o.failed != 0 || c.failed != 0 {
				t.Errorf("seed 8: %d of %d ops failed, %d checks failed: %v", o.failed, o.ops, c.failed, c.msgs)
			}
			if o.digest == a.digest {
				t.Errorf("seeds 7 and 8 give the same digest")
			}
		})
	}
}

// twoNodes is a → b with a communication cost of 5.
func twoNodes(t *testing.T) *dag.Graph {
	t.Helper()
	bld := dag.NewBuilder()
	a, b := bld.AddNode(2), bld.AddNode(3)
	bld.AddEdge(a, b, 5)
	g, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCheckerFlagsStartBeforeData(t *testing.T) {
	g := twoNodes(t)
	s := sched.New(g, 2)
	s.MustPlace(0, 0, 0)
	s.MustPlace(1, 1, 7) // data arrives at 2 + 5
	pl := cliquePlacement(s)
	if err := pl.feasible(); err != nil {
		t.Fatalf("valid clique schedule rejected: %v", err)
	}
	pl.start[1], pl.finish[1], pl.makespan = 6, 9, 9
	if err := pl.feasible(); err == nil || !strings.Contains(err.Error(), "before data") {
		t.Errorf("start shifted before the data-ready time: got %v", err)
	}

	ms := machine.NewSchedule(g, machine.Chain(2))
	ms.MustPlace(0, 0, 0)
	est, ok := ms.ESTOn(1, 1, false)
	if !ok {
		t.Fatal("no EST for the child")
	}
	ms.MustPlace(1, 1, est)
	apl := apnPlacement(ms)
	if err := apl.feasible(); err != nil {
		t.Fatalf("valid APN schedule rejected: %v", err)
	}
	apl.start[1], apl.finish[1] = est-1, est-1+g.Weight(1)
	apl.makespan = apl.finish[1]
	if err := apl.feasible(); err == nil || !strings.Contains(err.Error(), "before data") {
		t.Errorf("APN start shifted before the message arrives: got %v", err)
	}
}

func TestCheckerFlagsReplayMismatch(t *testing.T) {
	g := twoNodes(t)
	s := sched.New(g, 2)
	s.MustPlace(0, 0, 0)
	s.MustPlace(1, 1, 7)
	plan, err := sim.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Run(sim.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := replayMismatch(s.Makespan(), got); err != nil {
		t.Errorf("matching replay flagged: %v", err)
	}
	if err := replayMismatch(s.Makespan()+1, got); err == nil {
		t.Errorf("replay %d against static %d not flagged", got, s.Makespan()+1)
	}
}

// TestBenchmarkJSON pins the metric names and units the program prints
// to the ones BENCHMARK.json declares.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for _, m := range spec.EndToEnd {
		if unit, ok := endToEnd[m.Name]; !ok || unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: program has unit %q (present %v)", m.Name, m.Unit, unit, ok)
		}
	}
	one := timing{rounds: []roundStat{{wall: 1, cpu: 1}}}
	layers := layerMetrics(newTracer(), nil, one, 0)
	if len(spec.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(layers))
	}
	for _, m := range spec.PerLayer {
		if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s [%s]: program has unit %q (present %v)", m.Name, m.Unit, got.Unit, ok)
		}
	}
}

func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the faults workload untraced and traced")
	}
	path := t.TempDir() + "/spans.json"
	var out, errs strings.Builder
	if code := run([]string{"--workload", "faults", "--seed", "3", "--seconds", "1", "--trace", "1", "--trace-out", path}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, errs.String())
	}
	one := timing{rounds: []roundStat{{wall: 1, cpu: 1}}}
	for name := range layerMetrics(newTracer(), nil, one, 0) {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("traced run lacks %s", name)
		}
	}
	for _, name := range []string{"algo.bnp.busy_s", "ft.resubmit.busy_s", "sim.run.busy_s", "gen.busy_s", "dag.decode.busy_s"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, res.Metrics[name].Value)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("spans not written: %v", err)
	}
}
