package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/adversarial"
	"repro/internal/algo/param"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/table"
)

// This file implements the adversarial instance search (experiment id
// "adversarial"). In the spirit of "PISA: An Adversarial Approach To
// Comparing Task Graph Scheduling Algorithms", an evolutionary loop
// (internal/adversarial) mutates generator-family parameters, seeds,
// and per-instance edge-weight perturbations to find task graphs on
// which the second algorithm of a chosen pair beats the first by the
// widest relative makespan margin — counterexamples to the average-case
// rankings the random suites (and the genx consensus) report. The
// search loop is serial and deterministic; every generation's
// population is evaluated through the experiment worker pool, so output
// is byte-identical for every worker count.

// adversarialProcs is the machine size of the search: 8 processors,
// matching the paper's APN hypercube and the components study.
const adversarialProcs = 8

// AlgorithmByName resolves one scheduler name for an adversarial pair:
// a canonical registry name ("MCP", "DSC", "BSA", ...), a
// class-qualified name ("APN/DLS" — plain "DLS" resolves to the BNP
// variant, which is listed first), or a parameterized combo name like
// "alap/eft/ins/st".
func AlgorithmByName(name string) (Algorithm, error) {
	if cls, rest, ok := strings.Cut(name, "/"); ok {
		switch c := Class(strings.ToUpper(cls)); c {
		case BNP, UNC, APN:
			for _, a := range ByClass(c) {
				if a.Name == rest {
					return a, nil
				}
			}
			return Algorithm{}, fmt.Errorf("core: class %s has no algorithm %q (have %v)",
				c, rest, Names(c))
		}
		if combo, err := param.ParseCombo(name); err == nil {
			return ParamAlgorithm(combo), nil
		}
	}
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return Algorithm{}, fmt.Errorf("core: unknown algorithm %q (valid: %s; or a combo like alap/eft/ins/st)",
		name, strings.Join(PairNames(), ", "))
}

// PairNames returns every algorithm name AlgorithmByName accepts,
// sorted — the canonical names of the 15 study algorithms plus the
// class-qualified forms of the duplicated DLS. (Parameterized combo
// names are accepted too but not enumerated; there are 60.)
func PairNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, a := range All() {
		if !seen[a.Name] {
			seen[a.Name] = true
			names = append(names, a.Name)
		}
	}
	names = append(names, "BNP/DLS", "APN/DLS")
	sort.Strings(names)
	return names
}

// ParseAlgorithmPair parses and validates an "A:B" algorithm pair,
// returning the two validated names. Unknown names fail fast with the
// sorted list of valid ones.
func ParseAlgorithmPair(s string) (algA, algB string, err error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok || a == "" || b == "" {
		return "", "", fmt.Errorf("core: algorithm pair must be \"A:B\" (e.g. \"MCP:LAST\"), got %q", s)
	}
	if _, err := AlgorithmByName(a); err != nil {
		return "", "", err
	}
	if _, err := AlgorithmByName(b); err != nil {
		return "", "", err
	}
	return a, b, nil
}

// AdversarialSearch runs the evolutionary search for instances on which
// algB beats algA, evaluating every generation's population through
// cfg's worker pool. The trajectory is deterministic in (opts, pair)
// for every worker count.
func AdversarialSearch(cfg Config, opts adversarial.Options, algA, algB string) (*adversarial.Report, error) {
	a, err := AlgorithmByName(algA)
	if err != nil {
		return nil, err
	}
	b, err := AlgorithmByName(algB)
	if err != nil {
		return nil, err
	}
	topo := apnTopology()
	// Under the fault-gap objective a candidate's two lengths are
	// fault-effective makespans (FaultEffective); otherwise they are the
	// static makespans the paper compares.
	_, faulty := opts.Objective.(adversarial.FaultObjective)
	measure := func(alg Algorithm, g *dag.Graph, instance string) (int64, error) {
		if faulty {
			length, err := FaultEffective(alg, g, adversarialProcs, topo)
			if err != nil {
				return 0, fmt.Errorf("adversarial: %s on %s: %w", alg.Name, instance, err)
			}
			return length, nil
		}
		// Labelled, so a traced run header names the generation and the
		// candidate it scheduled.
		res, err := runCell("adversarial", alg, instance, g, adversarialProcs, nil, topo)()
		return res.Length, err
	}
	// Search calls eval once per generation, in order (skipping only a
	// generation none of whose candidates builds), with the buildable
	// candidates in population order.
	generation := 0
	eval := func(graphs []*dag.Graph) ([][2]int64, error) {
		var p plan[int64]
		for i, g := range graphs {
			instance := fmt.Sprintf("gen%d-cand%d", generation, i)
			for _, alg := range []Algorithm{a, b} {
				p.add(func() (int64, error) { return measure(alg, g, instance) })
			}
		}
		generation++
		results, err := p.run(cfg)
		if err != nil {
			return nil, err
		}
		out := make([][2]int64, len(graphs))
		cur := cursor[int64]{rs: results}
		for i := range graphs {
			out[i] = [2]int64{cur.next(), cur.next()}
		}
		return out, nil
	}
	rep, err := adversarial.Search(opts, eval)
	if err != nil {
		return nil, err
	}
	rep.AlgA, rep.AlgB = algA, algB
	return rep, nil
}

// adversarialOptions returns the search budget for a scale.
func adversarialOptions(cfg Config) adversarial.Options {
	opts := adversarial.Defaults(cfg.Seed)
	if cfg.Scale == Full {
		opts.Generations = 20
		opts.Population = 40
		opts.Elite = 6
		opts.TopK = 8
		opts.MaxNodes = 120
	}
	return opts
}

// Adversarial runs the adversarial instance search as an experiment:
// the per-generation trace, the top counterexamples found, and — when
// Config.AdversarialArchive names a directory — the archived .tg
// fixtures.
func Adversarial(cfg Config) error {
	pair := cfg.AdversarialPair
	if pair == "" {
		pair = "MCP:LAST"
	}
	algA, algB, err := ParseAlgorithmPair(pair)
	if err != nil {
		return err
	}
	opts := adversarialOptions(cfg)
	if cfg.AdversarialFaults {
		opts.Objective = adversarial.FaultObjective{}
	}
	rep, err := AdversarialSearch(cfg, opts, algA, algB)
	if err != nil {
		return err
	}

	fmt.Fprintf(cfg.Out, "searching instances where %s beats %s (objective %s, %d procs, %d generations x %d candidates)\n",
		algB, algA, rep.Objective, adversarialProcs, opts.Generations, opts.Population)

	tr := table.New("Search trace", "gen", "best "+rep.Objective, "mean", "invalid", "best candidate")
	for _, s := range rep.Trace {
		tr.AddRow(fmt.Sprint(s.Gen), fmt.Sprintf("%.4f", s.Best), fmt.Sprintf("%.4f", s.Mean),
			fmt.Sprint(s.Invalid), s.BestKey)
	}
	if err := tr.Render(cfg.Out); err != nil {
		return err
	}

	tt := table.New(fmt.Sprintf("Top counterexamples (positive gap: %s shorter than %s)", algB, algA),
		"rank", "family", "v", "params", "seed", "perturb", algA, algB, "gap")
	for i, f := range rep.Top {
		v := "?"
		if f.Graph != nil {
			v = fmt.Sprint(f.Graph.NumNodes())
		}
		tt.AddRow(fmt.Sprint(i+1), f.Family, v, gen.CanonicalParams(f.Params),
			fmt.Sprint(f.Seed), fmt.Sprintf("%.3f", f.Perturb),
			fmt.Sprint(f.LenA), fmt.Sprint(f.LenB), fmt.Sprintf("%.4f", f.Score))
	}
	if err := tt.Render(cfg.Out); err != nil {
		return err
	}

	if len(rep.Top) > 0 && rep.Top[0].Score > 0 {
		fmt.Fprintf(cfg.Out, "found %d distinct instances; best: %s beats %s by %.1f%% (%d vs %d)\n",
			len(rep.Top), algB, algA, 100*rep.Top[0].Score, rep.Top[0].LenB, rep.Top[0].LenA)
	} else {
		fmt.Fprintf(cfg.Out, "no instance found on which %s beats %s\n", algB, algA)
	}

	if cfg.AdversarialArchive != "" {
		paths, err := adversarial.Archive(cfg.AdversarialArchive, rep, adversarialProcs, opts.TopK)
		if err != nil {
			return err
		}
		for _, p := range paths {
			fmt.Fprintf(cfg.Out, "archived %s\n", p)
		}
	}
	return nil
}
