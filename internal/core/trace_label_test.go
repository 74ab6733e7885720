package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/adversarial"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/obs"
)

// TestDegradationTableLabelsTracedRuns traces degradationTable (the body
// of Tables 2–5) on a two-graph suite and checks that every run header
// names the experiment and the instance it scheduled.
func TestDegradationTableLabelsTracedRuns(t *testing.T) {
	psg := gen.PeerSet()[:2]
	suites := map[float64][]degradationInstance{1: {
		{label: psg[0].Name, g: psg[0].G, optimal: 1, closed: true},
		{label: psg[1].Name, g: psg[1].G, optimal: 1, closed: true},
	}}
	algs := append(ByClass(UNC), ByClass(BNP)...)

	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, obs.TraceJSONL)
	obs.SetTracer(tr)
	err := degradationTable(Config{Workers: 1, Out: io.Discard}, "table9", "labels",
		algs, func(*dag.Graph) int { return 4 }, suites, []float64{1})
	obs.SetTracer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	runs := map[string]int{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec struct{ Type, Exp, Instance, Alg string }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if rec.Type != "run" {
			continue
		}
		if rec.Exp != "table9" || (rec.Instance != psg[0].Name && rec.Instance != psg[1].Name) {
			t.Errorf("%s run header has exp %q, instance %q", rec.Alg, rec.Exp, rec.Instance)
		}
		runs[rec.Instance]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, ng := range psg {
		if runs[ng.Name] != len(algs) {
			t.Errorf("instance %s: %d traced runs, want %d", ng.Name, runs[ng.Name], len(algs))
		}
	}
}

// TestAdversarialSearchLabelsTracedRuns traces a two-generation
// adversarial search and checks that every run header names the
// experiment, the generation and the candidate, and that each evaluated
// candidate is scheduled once by each algorithm of the pair.
func TestAdversarialSearchLabelsTracedRuns(t *testing.T) {
	opts := adversarial.Defaults(7)
	opts.Generations, opts.Population, opts.MaxNodes = 2, 3, 24

	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, obs.TraceJSONL)
	obs.SetTracer(tr)
	rep, err := AdversarialSearch(Config{Seed: 7, Scale: Quick, Out: io.Discard, Workers: 1}, opts, "MCP", "LAST")
	obs.SetTracer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	runs := map[string][]string{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec struct{ Type, Exp, Instance, Alg string }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if rec.Type != "run" {
			continue
		}
		if rec.Exp != "adversarial" {
			t.Errorf("%s run header has exp %q", rec.Alg, rec.Exp)
		}
		runs[rec.Instance] = append(runs[rec.Instance], rec.Alg)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, gs := range rep.Trace {
		for c := 0; c < opts.Population-gs.Invalid; c++ {
			want++
			instance := fmt.Sprintf("gen%d-cand%d", gs.Gen, c)
			if algs := runs[instance]; len(algs) != 2 || algs[0] != "MCP" || algs[1] != "LAST" {
				t.Errorf("instance %s: traced runs %v, want [MCP LAST]", instance, algs)
			}
		}
	}
	if len(runs) != want {
		t.Errorf("%d traced instances, want %d: %v", len(runs), want, runs)
	}
}
