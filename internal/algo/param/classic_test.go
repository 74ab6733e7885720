package param_test

import (
	"testing"

	"repro/internal/algo/bnp"
	"repro/internal/algo/param"
	"repro/internal/dag"
	"repro/internal/sched"
)

// TestRegisteredCombosMatchKernels pins the wiring of the four classic
// algorithms: the bnp entry points, plain and heterogeneous, produce
// byte-identical schedules to their registered component combinations
// over every registered generator family × seeds × CCRs × processor
// counts. (bnp's reference pair-scan kernels pin the combos themselves.)
func TestRegisteredCombosMatchKernels(t *testing.T) {
	kernels := bnp.Algorithms()
	for _, seed := range []int64{1, 2, 3} {
		for _, ccr := range []float64{0.5, 2.0} {
			graphs := param.EquivalenceGraphs(t, seed, ccr)
			for famName, g := range graphs {
				for _, procs := range []int{2, 8} {
					speeds := make([]float64, procs)
					for p := range speeds {
						speeds[p] = 1 + float64(p%3)/2
					}
					for _, name := range []string{"HLFET", "MCP", "ETF", "DLS"} {
						combo, ok := param.Lookup(name)
						if !ok {
							t.Fatalf("combo %q not registered", name)
						}
						for _, sp := range [][]float64{nil, speeds} {
							s, err := combo.Schedule(g, procs, sp)
							if err != nil {
								t.Fatalf("combo %s on %s: %v", name, famName, err)
							}
							want := s.String()
							s.Release()
							entry := kernels[name]
							if sp != nil {
								entry = func(g *dag.Graph, procs int) (*sched.Schedule, error) {
									return bnp.ScheduleHet(name, g, procs, sp)
								}
							}
							ref, err := entry(g, procs)
							if err != nil {
								t.Fatalf("bnp %s on %s: %v", name, famName, err)
							}
							if got := ref.String(); got != want {
								t.Errorf("bnp %s diverges from combo %s on %s (seed=%d ccr=%g procs=%d het=%t):\nbnp:\n%s\ncombo:\n%s",
									name, combo.Name(), famName, seed, ccr, procs, sp != nil, got, want)
							}
							ref.Release()
						}
					}
				}
			}
		}
	}
}
