package core

import (
	"fmt"

	"repro/internal/algo/cs"
	"repro/internal/algo/unc"
	"repro/internal/gen"
	"repro/internal/table"
)

// UNCCS runs the study that paper section 7 poses as future work:
// comparing the BNP approach against UNC clustering followed by cluster
// scheduling (CS) onto the same bounded processor count. Each RGNOS
// graph is scheduled by every BNP algorithm on p processors and by
// every UNC algorithm followed by Sarkar's assignment algorithm and
// Yang's RCP, also onto p processors; the table reports average NSL per
// pipeline.
func UNCCS(cfg Config) error {
	const procs = 8
	bySize := suiteCacheFor(cfg).rgnosSuite(cfg)
	sizes := rgnosSizes(cfg.Scale)

	mappers := cs.Mappers()
	// Each cell is one pipeline applied to one graph, planned in the
	// table's column-major row order: the BNP columns, then every
	// UNC+CS combination.
	var p plan[float64]
	for _, v := range sizes {
		for _, a := range ByClass(BNP) {
			for _, ng := range bySize[v] {
				p.add(func() (float64, error) {
					res, err := runCell("unccs", a, ng.Name, ng.G, procs, nil, nil)()
					return res.NSL, err
				})
			}
		}
		for _, u := range Names(UNC) {
			for _, m := range []string{"SARKAR", "RCP"} {
				for _, ng := range bySize[v] {
					p.add(func() (float64, error) {
						clustering, err := unc.ScheduleHet(u, ng.G, nil)
						if err != nil {
							return 0, fmt.Errorf("unccs: %s on %s: %w", u, ng.Name, err)
						}
						defer clustering.Release()
						mapped, err := mappers[m](clustering, procs)
						if err != nil {
							return 0, fmt.Errorf("unccs: %s+%s on %s: %w", u, m, ng.Name, err)
						}
						nsl := mapped.NSL()
						mapped.Release()
						return nsl, nil
					})
				}
			}
		}
	}
	results, err := p.run(cfg)
	if err != nil {
		return err
	}

	pipelines := []string{}
	for _, a := range ByClass(BNP) {
		pipelines = append(pipelines, a.Name)
	}
	for _, u := range Names(UNC) {
		pipelines = append(pipelines, u+"+SARKAR", u+"+RCP")
	}
	cols := append([]string{"v"}, pipelines...)
	t := table.New(fmt.Sprintf("BNP vs UNC+CS on %d processors: average NSL", procs), cols...)
	cur := cursor[float64]{rs: results}
	avgCell := func(graphs []gen.NamedGraph) string {
		var total float64
		for range graphs {
			total += cur.next()
		}
		if len(graphs) == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", total/float64(len(graphs)))
	}
	for _, v := range sizes {
		row := []string{fmt.Sprint(v)}
		for range ByClass(BNP) {
			row = append(row, avgCell(bySize[v]))
		}
		for range Names(UNC) {
			row = append(row, avgCell(bySize[v]), avgCell(bySize[v]))
		}
		t.AddRow(row...)
	}
	return t.Render(cfg.Out)
}
