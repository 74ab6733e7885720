package core

import (
	"fmt"
	"sort"

	"repro/internal/gen"
	"repro/internal/table"
)

// This file implements the cross-generator sensitivity study (experiment
// id "genx"). Canon, Héam & Philippe (Euro-Par 2019) showed that the
// ranking of scheduling algorithms depends on how the random benchmark
// DAGs were generated; the study quantifies that dependence for this
// repository's BNP algorithms by scheduling every registered random
// family over one matched grid of (size, CCR, instance) points and
// comparing the per-family algorithm rankings with Kendall's tau.

// genxPoints returns the matched (size, CCR, instances-per-point) grid
// every random family is sampled on.
func genxPoints(s Scale) (sizes []int, ccrs []float64, instances int) {
	if s == Full {
		return []int{50, 100, 200, 400}, []float64{0.1, 0.5, 1.0, 2.0, 10.0}, 5
	}
	return []int{30, 60}, []float64{0.1, 1.0, 10.0}, 3
}

// GenX runs the cross-generator sensitivity study: the BNP algorithms
// over every registered random family at matched (size, CCR) points,
// reporting each family's average NSL and algorithm ranking, each
// ranking's Kendall-tau agreement with the consensus (rank-sum)
// ordering, and the mean pairwise tau across families as the overall
// stability score. Output is deterministic in (seed, scale) and
// byte-identical for every worker count.
func GenX(cfg Config) error {
	byFam, err := suiteCacheFor(cfg).genxSuite(cfg)
	if err != nil {
		return err
	}
	fams := gen.RandomFamilies()
	algs := ByClass(BNP)

	var p plan[Result]
	for _, f := range fams {
		for _, ng := range byFam[f.Name] {
			for _, a := range algs {
				p.add(runCell("genx", a, ng.Name, ng.G, BNPProcs(ng.G.NumNodes()), nil, nil))
			}
		}
	}
	results, err := p.run(cfg)
	if err != nil {
		return err
	}

	// Average NSL per (family, algorithm), in plan order.
	cur := cursor[Result]{rs: results}
	avg := make([][]float64, len(fams))
	for fi, f := range fams {
		sums := make([]float64, len(algs))
		for range byFam[f.Name] {
			for ai := range algs {
				sums[ai] += cur.next().NSL
			}
		}
		avg[fi] = sums
		if n := len(byFam[f.Name]); n > 0 {
			for ai := range algs {
				avg[fi][ai] /= float64(n)
			}
		}
	}

	// Per-family rankings (1 = lowest average NSL) and the consensus
	// ranking by rank sum; ties break on canonical algorithm order so
	// the output is fully deterministic.
	ranks := make([][]int, len(fams))
	rankSum := make([]int, len(algs))
	for fi := range fams {
		ranks[fi] = rankAscending(avg[fi])
		for ai, r := range ranks[fi] {
			rankSum[ai] += r
		}
	}
	sums := make([]float64, len(algs))
	for ai, s := range rankSum {
		sums[ai] = float64(s)
	}
	consensus := rankAscending(sums)

	cols := []string{"family", "graphs"}
	for _, a := range algs {
		cols = append(cols, a.Name)
	}
	cols = append(cols, "tau")
	t := table.New("Average NSL (rank) per generator family, BNP algorithms", cols...)
	for fi, f := range fams {
		row := []string{f.Name, fmt.Sprint(len(byFam[f.Name]))}
		for ai := range algs {
			row = append(row, fmt.Sprintf("%.3f (%d)", avg[fi][ai], ranks[fi][ai]))
		}
		row = append(row, fmt.Sprintf("%.3f", kendallTau(ranks[fi], consensus)))
		t.AddRow(row...)
	}
	t.AddSeparator()
	crow := []string{"consensus", ""}
	for ai := range algs {
		crow = append(crow, fmt.Sprintf("(%d)", consensus[ai]))
	}
	crow = append(crow, "")
	t.AddRow(crow...)
	if err := t.Render(cfg.Out); err != nil {
		return err
	}

	// Overall stability: mean Kendall-tau over all family pairs. 1 means
	// every family ranks the algorithms identically; values near 0 mean
	// the benchmark conclusion depends on the generation method.
	var total float64
	pairs := 0
	for i := 0; i < len(fams); i++ {
		for j := i + 1; j < len(fams); j++ {
			total += kendallTau(ranks[i], ranks[j])
			pairs++
		}
	}
	if pairs > 0 {
		fmt.Fprintf(cfg.Out, "mean pairwise Kendall-tau across %d families: %.3f (1 = rankings agree everywhere)\n",
			len(fams), total/float64(pairs))
	}
	fmt.Fprintln(cfg.Out, "tau column: Kendall-tau of the family's ranking against the consensus (rank-sum) ordering")
	return nil
}

// rankAscending assigns rank 1 to the smallest value; ties break on
// index order, keeping rankings deterministic.
func rankAscending(vals []float64) []int {
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
	ranks := make([]int, len(vals))
	for pos, idx := range order {
		ranks[idx] = pos + 1
	}
	return ranks
}

// kendallTau computes Kendall's tau-a between two rankings given as
// per-item rank vectors: the normalized difference between concordant
// and discordant item pairs, +1 for identical orderings and -1 for
// exactly reversed ones.
func kendallTau(a, b []int) float64 {
	n := len(a)
	if n < 2 {
		return 1
	}
	conc, disc := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			switch {
			case da*db > 0:
				conc++
			case da*db < 0:
				disc++
			}
		}
	}
	return float64(conc-disc) / float64(n*(n-1)/2)
}
