package param

import (
	"testing"

	"repro/internal/gen"
)

// TestRegisteredCombosAllocs pins the pooled engine's steady state: a
// warm Combo.Schedule plus Release allocates nothing, for every
// registered combo whose metric is not alap (the ALAP-list order is
// computed per graph and allocates). Under the race detector the runs
// still happen, but their count is not checked.
func TestRegisteredCombosAllocs(t *testing.T) {
	g, err := gen.Generate("rgnos", 9, gen.Params{"v": "80", "ccr": "1.0"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	tested := 0
	for _, reg := range Named() {
		if reg.Combo.Metric == MetricALAP {
			continue
		}
		tested++
		run := func() {
			s, err := reg.Combo.Schedule(g, 8, nil)
			if err != nil {
				t.Fatalf("%s: %v", reg.Name, err)
			}
			s.Release()
		}
		run() // warm the pools
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 && !raceEnabled {
			t.Errorf("steady-state %s (%s) allocates %.1f objects per run, want 0",
				reg.Name, reg.Combo.Name(), allocs)
		}
	}
	if tested == 0 {
		t.Fatal("no registered non-alap combo to measure")
	}
}
