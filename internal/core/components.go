package core

import (
	"fmt"

	"repro/internal/algo/param"
	"repro/internal/gen"
	"repro/internal/table"
)

// This file implements the component-attribution study (experiment id
// "components"). In the spirit of the parameterized task graph
// scheduling analysis of Coleman, Titzer & Taufer (2024), the full
// cross-product of internal/algo/param's scheduler components — priority
// metric × processor rule × slot policy × priority regime — runs over
// every registered random family at matched (size, CCR) points, on a
// homogeneous and a heterogeneous machine, and makespan differences are
// attributed to the individual components: for each component value, the
// mean NSL over its combos, the mean NSL deviation within matched
// groups of combos that agree on every other component, and the
// fraction of matched groups it wins outright. Per-axis Kendall-tau
// across families reports whether the component rankings are stable
// across generation methods.

// componentsPoints returns the matched (size, CCR, instances-per-point)
// grid every random family is sampled on.
func componentsPoints(s Scale) (sizes []int, ccrs []float64, instances int) {
	if s == Full {
		return []int{50, 100, 200}, []float64{0.1, 0.5, 1.0, 2.0, 10.0}, 3
	}
	return []int{30, 60}, []float64{0.1, 1.0, 10.0}, 2
}

// componentsProcs is the machine size of the study; 8 processors
// matches the paper's APN machine and keeps the 60-combo cross-product
// tractable at full scale.
const componentsProcs = 8

// componentsHetSpeeds returns the heterogeneous machine's speed
// vector: processor p runs at speed {1, 2, 4}[p%3], a fixed 4:1 spread
// so fast processors are scarce.
func componentsHetSpeeds(procs int) []float64 {
	cycle := [3]float64{1.0, 2.0, 4.0}
	out := make([]float64, procs)
	for p := range out {
		out[p] = cycle[p%3]
	}
	return out
}

// componentAxis is one of the four component dimensions.
type componentAxis struct {
	name string
	n    int                   // number of values
	of   func(param.Combo) int // value index of a combo
	val  func(int) string      // value token
}

func componentAxes() []componentAxis {
	return []componentAxis{
		{"metric", 5, func(c param.Combo) int { return int(c.Metric) }, func(i int) string { return param.Metric(i).String() }},
		{"rule", 3, func(c param.Combo) int { return int(c.Rule) }, func(i int) string { return param.Rule(i).String() }},
		{"slot", 2, func(c param.Combo) int { return int(c.Slot) }, func(i int) string { return param.Slot(i).String() }},
		{"regime", 2, func(c param.Combo) int { return int(c.Regime) }, func(i int) string { return param.Regime(i).String() }},
	}
}

// Components runs the component-attribution study. Output is
// deterministic in (seed, scale) and byte-identical for every worker
// count: cells are planned machine-major, then family, instance, combo,
// and every statistic is assembled from the plan-ordered results.
func Components(cfg Config) error {
	byFam, err := suiteCacheFor(cfg).componentsSuite(cfg)
	if err != nil {
		return err
	}
	fams := gen.RandomFamilies()
	combos := param.Combos()
	algs := Parameterized()
	machines := []struct {
		label  string
		speeds []float64
	}{
		{"homogeneous", nil},
		{"heterogeneous", componentsHetSpeeds(componentsProcs)},
	}

	var p plan[Result]
	for _, m := range machines {
		for _, f := range fams {
			for _, ng := range byFam[f.Name] {
				for _, a := range algs {
					p.add(runCell("components", a, ng.Name, ng.G, componentsProcs, m.speeds, nil))
				}
			}
		}
	}
	results, err := p.run(cfg)
	if err != nil {
		return err
	}

	// nsl[mi][fi][ii][ci]: NSL of combo ci on instance ii of family fi
	// on machine mi, in plan order.
	cur := cursor[Result]{rs: results}
	nsl := make([][][][]float64, len(machines))
	for mi := range machines {
		nsl[mi] = make([][][]float64, len(fams))
		for fi, f := range fams {
			insts := byFam[f.Name]
			nsl[mi][fi] = make([][]float64, len(insts))
			for ii := range insts {
				vals := make([]float64, len(combos))
				for ci := range combos {
					vals[ci] = cur.next().NSL
				}
				nsl[mi][fi][ii] = vals
			}
		}
	}

	axes := componentAxes()
	for mi, m := range machines {
		if err := renderComponentsMachine(cfg, m.label, m.speeds, fams, byFam, combos, axes, nsl[mi]); err != nil {
			return err
		}
	}
	fmt.Fprintln(cfg.Out, "delta: mean NSL difference from the mean of the matched combos that agree on every other component (negative = better)")
	fmt.Fprintln(cfg.Out, "win: fraction of matched groups the value wins outright (ties win for no one)")
	fmt.Fprintln(cfg.Out, "tau: mean pairwise Kendall-tau of the per-family value rankings (1 = every family ranks the values identically)")
	return nil
}

// renderComponentsMachine aggregates and prints one machine's panel.
func renderComponentsMachine(cfg Config, label string, speeds []float64, fams []gen.Generator,
	byFam map[string][]gen.NamedGraph, combos []param.Combo, axes []componentAxis, nsl [][][]float64) error {

	title := fmt.Sprintf("Component attribution, %s machine (%d procs", label, componentsProcs)
	if speeds != nil {
		title += ", speeds 1/2/4"
	}
	title += ")"
	t := table.New(title, "component", "value", "mean NSL", "delta", "win", "tau")
	for axi, ax := range axes {
		if axi > 0 {
			t.AddSeparator()
		}
		// Matched groups: combos that agree on every axis but this one,
		// ordered by the group's representative (value index 0) in combo
		// order. Each group holds exactly ax.n combos.
		var groups [][]int
		for _, c := range combos {
			if ax.of(c) != 0 {
				continue
			}
			group := make([]int, ax.n)
			for cj, cc := range combos {
				same := true
				for _, other := range axes {
					if other.name != ax.name && other.of(cc) != other.of(c) {
						same = false
						break
					}
				}
				if same {
					group[ax.of(cc)] = cj
				}
			}
			groups = append(groups, group)
		}

		sum := make([]float64, ax.n)   // overall NSL sum per value
		count := 0                     // instances × groups (same for every value)
		delta := make([]float64, ax.n) // deviation from matched-group mean
		wins := make([]int, ax.n)
		famSum := make([][]float64, len(fams)) // per-family NSL sum per value
		for fi := range fams {
			famSum[fi] = make([]float64, ax.n)
			for ii := range nsl[fi] {
				vals := nsl[fi][ii]
				for _, group := range groups {
					var groupMean float64
					for _, ci := range group {
						groupMean += vals[ci]
					}
					groupMean /= float64(ax.n)
					best, bestTied := -1, false
					for vi, ci := range group {
						v := vals[ci]
						sum[vi] += v
						famSum[fi][vi] += v
						delta[vi] += v - groupMean
						if best == -1 || v < vals[group[best]] {
							best, bestTied = vi, false
						} else if v == vals[group[best]] {
							bestTied = true
						}
					}
					if !bestTied {
						wins[best]++
					}
					count++
				}
			}
		}

		// Per-family value rankings and their mean pairwise Kendall-tau.
		ranks := make([][]int, len(fams))
		famInsts := 0
		for fi, f := range fams {
			n := float64(len(byFam[f.Name]) * len(groups))
			means := make([]float64, ax.n)
			for vi := range means {
				means[vi] = famSum[fi][vi] / n
			}
			ranks[fi] = rankAscending(means)
			famInsts += len(byFam[f.Name])
		}
		var tauTotal float64
		pairs := 0
		for i := 0; i < len(fams); i++ {
			for j := i + 1; j < len(fams); j++ {
				tauTotal += kendallTau(ranks[i], ranks[j])
				pairs++
			}
		}
		tau := 1.0
		if pairs > 0 {
			tau = tauTotal / float64(pairs)
		}

		for vi := 0; vi < ax.n; vi++ {
			tauCell := ""
			if vi == 0 {
				tauCell = fmt.Sprintf("%.3f", tau)
			}
			t.AddRow(ax.name, ax.val(vi),
				fmt.Sprintf("%.3f", sum[vi]/float64(count)),
				fmt.Sprintf("%+.3f", delta[vi]/float64(count)),
				fmt.Sprintf("%.1f%%", 100*float64(wins[vi])/float64(count)),
				tauCell)
		}
	}
	if err := t.Render(cfg.Out); err != nil {
		return err
	}

	// The best combinations overall, with the classic algorithms they
	// correspond to (if any) for orientation.
	type comboMean struct {
		ci   int
		mean float64
	}
	totalInsts := 0
	for _, f := range fams {
		totalInsts += len(byFam[f.Name])
	}
	means := make([]comboMean, len(combos))
	for ci := range combos {
		var s float64
		for fi := range fams {
			for ii := range nsl[fi] {
				s += nsl[fi][ii][ci]
			}
		}
		means[ci] = comboMean{ci, s / float64(totalInsts)}
	}
	// Selection sort of the top 5: deterministic, ties to combo order.
	top := 5
	if top > len(means) {
		top = len(means)
	}
	named := map[string]string{}
	for _, reg := range param.Named() {
		named[reg.Combo.Name()] = reg.Name
	}
	fmt.Fprintf(cfg.Out, "best combinations (%s): ", label)
	for k := 0; k < top; k++ {
		best := k
		for i := k + 1; i < len(means); i++ {
			if means[i].mean < means[best].mean {
				best = i
			}
		}
		means[k], means[best] = means[best], means[k]
		name := combos[means[k].ci].Name()
		if alias, ok := named[name]; ok {
			name += "=" + alias
		}
		if k > 0 {
			fmt.Fprint(cfg.Out, ", ")
		}
		fmt.Fprintf(cfg.Out, "%s %.3f", name, means[k].mean)
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
