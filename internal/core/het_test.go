package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/algo/unc"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/machine"
)

// hetTestGraphs generates one instance per registered generator family,
// sized so the quadratic algorithms stay fast.
func hetTestGraphs(t *testing.T, seed int64) map[string]*dag.Graph {
	t.Helper()
	out := map[string]*dag.Graph{}
	for _, fam := range gen.Generators() {
		params := gen.Params{}
		if fam.Random {
			params["v"] = "40"
			params["ccr"] = "1.0"
		}
		if fam.Name == "psg" {
			params["name"] = "wu-gajski-18"
		}
		g, err := gen.Generate(fam.Name, seed, params)
		if err != nil {
			t.Fatalf("generate %s: %v", fam.Name, err)
		}
		out[fam.Name] = g
	}
	return out
}

func uniformSpeeds(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1.0
	}
	return out
}

// TestUniformSpeedsReproduceHomogeneous pins the default-compatibility
// half of the heterogeneous extension: running any of the 15 algorithms
// through its heterogeneous entry point with an all-ones speed vector
// yields a byte-identical timeline to the homogeneous entry point, on
// every registered generator family.
func TestUniformSpeedsReproduceHomogeneous(t *testing.T) {
	graphs := hetTestGraphs(t, 2)
	topo := machine.Hypercube(3)
	const procs = 8
	for famName, g := range graphs {
		for _, a := range All() {
			var hom, het string
			switch a.Class {
			case BNP:
				s, err := bnp.Algorithms()[a.Name](g, procs)
				if err != nil {
					t.Fatalf("%s on %s: %v", a.Name, famName, err)
				}
				hom = s.String()
				s.Release()
				hs, err := bnp.ScheduleHet(a.Name, g, procs, uniformSpeeds(procs))
				if err != nil {
					t.Fatalf("%s het on %s: %v", a.Name, famName, err)
				}
				het = hs.String()
				hs.Release()
			case UNC:
				s, err := unc.Algorithms()[a.Name](g)
				if err != nil {
					t.Fatalf("%s on %s: %v", a.Name, famName, err)
				}
				hom = s.String()
				s.Release()
				// UNC algorithms choose their own processor count, so the
				// speed vector must cover one processor per node.
				hs, err := unc.ScheduleHet(a.Name, g, uniformSpeeds(g.NumNodes()))
				if err != nil {
					t.Fatalf("%s het on %s: %v", a.Name, famName, err)
				}
				het = hs.String()
				hs.Release()
			case APN:
				s, err := apn.Algorithms()[a.Name](g, topo)
				if err != nil {
					t.Fatalf("%s on %s: %v", a.Name, famName, err)
				}
				hom = s.String()
				hs, err := apn.ScheduleHet(a.Name, g, topo, uniformSpeeds(topo.NumProcs()))
				if err != nil {
					t.Fatalf("%s het on %s: %v", a.Name, famName, err)
				}
				het = hs.String()
			}
			if hom != het {
				t.Errorf("%s (%s) with uniform speeds diverges from homogeneous run on %s:\nhomogeneous:\n%s\nuniform speeds:\n%s",
					a.Name, a.Class, famName, hom, het)
			}
		}
	}
}

// TestRunOnHeterogeneousAllAlgorithms checks every registered algorithm
// — the 15 of the study and the 60 parameterized combos — produces a
// measurable schedule through RunOn on a genuinely heterogeneous
// machine, and that the Result is deterministic.
func TestRunOnHeterogeneousAllAlgorithms(t *testing.T) {
	g, err := gen.Generate("rgnos", 5, gen.Params{"v": "40", "ccr": "1.0"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ng := gen.NamedGraph{Name: "rgnos-40", G: g}
	topo := machine.Hypercube(3)
	const procs = 8
	speeds := componentsHetSpeeds(procs)
	uncSpeeds := componentsHetSpeeds(g.NumNodes())
	algs := append(All(), Parameterized()...)
	for _, a := range algs {
		sp := speeds
		if a.Class == UNC {
			sp = uncSpeeds
		}
		r1, err := a.RunOn(ng.G, procs, sp, topo)
		if err != nil {
			t.Fatalf("%s (%s): %v", a.Name, a.Class, err)
		}
		if r1.Length <= 0 || r1.Procs < 1 {
			t.Errorf("%s (%s): implausible result %+v", a.Name, a.Class, r1)
		}
		r2, err := a.RunOn(ng.G, procs, sp, topo)
		if err != nil {
			t.Fatalf("%s (%s) rerun: %v", a.Name, a.Class, err)
		}
		if r1.Length != r2.Length || r1.NSL != r2.NSL || r1.Procs != r2.Procs {
			t.Errorf("%s (%s): nondeterministic result: %+v vs %+v", a.Name, a.Class, r1, r2)
		}
	}
}

// TestRunOnRejectsBadSpeeds checks the heterogeneous entry points
// reject malformed speed vectors for every class. The value cases are
// full length for their class (8 processors for BNP and PARAM, one per
// node for UNC, the topology's for APN), so each reaches the values
// rather than failing on length; "tiny" stretches the graph's work past
// the 2^62 weight bound, where execution times would wrap.
func TestRunOnRejectsBadSpeeds(t *testing.T) {
	g, err := gen.Generate("rgnos", 5, gen.Params{"v": "20", "ccr": "1.0"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	topo := machine.Hypercube(3)
	const procs = 8
	// full returns n unit factors but v on processor 3.
	full := func(n int, v float64) []float64 {
		sp := uniformSpeeds(n)
		sp[3] = v
		return sp
	}
	for _, a := range append(All(), Parameterized()...) {
		n := procs
		switch a.Class {
		case UNC:
			n = g.NumNodes()
		case APN:
			n = topo.NumProcs()
		}
		bad := map[string][]float64{
			"short":    {1.0},
			"zero":     full(n, 0),
			"negative": full(n, -2),
			"infinite": full(n, math.Inf(1)),
			"tiny":     full(n, 1e-300),
		}
		for label, sp := range bad {
			if _, err := a.RunOn(g, procs, sp, topo); err == nil {
				t.Errorf("%s (%s) accepted %s speed vector %v", a.Name, a.Class, label, sp)
			}
		}
	}
}

// TestParameterizedRegistry checks the PARAM registry surface: 60
// combos, named canonically, runnable through the core Algorithm
// wrapper like any study algorithm.
func TestParameterizedRegistry(t *testing.T) {
	algs := Parameterized()
	if len(algs) != 60 {
		t.Fatalf("Parameterized() = %d algorithms, want 60", len(algs))
	}
	seen := map[string]bool{}
	for _, a := range algs {
		if a.Class != PARAM {
			t.Errorf("%s has class %s, want PARAM", a.Name, a.Class)
		}
		if seen[a.Name] {
			t.Errorf("duplicate parameterized algorithm %q", a.Name)
		}
		seen[a.Name] = true
	}
	g, err := gen.Generate("rgpos", 3, gen.Params{"v": "30", "ccr": "1.0"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	r, err := algs[0].Run(g, 4, nil)
	if err != nil {
		t.Fatalf("%s: %v", algs[0].Name, err)
	}
	if r.Length <= 0 {
		t.Errorf("%s: implausible length %d", algs[0].Name, r.Length)
	}
	if fmt.Sprint(r.Algorithm) != algs[0].Name {
		t.Errorf("result algorithm %q, want %q", r.Algorithm, algs[0].Name)
	}
}
