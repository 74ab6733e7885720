package ft_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/algo/unc"
	"repro/internal/dag"
	"repro/internal/ft"
	"repro/internal/gen"
	"repro/internal/machine"
)

// oracleStats is what the fault-free Monte-Carlo aggregation of the
// former internal/sim harness filled.
type oracleStats struct {
	Static       int64
	Trials       int
	MeanMakespan float64
	P99Makespan  int64
	MaxMakespan  int64
	MeanRatio    float64
	P99Ratio     float64
	Ratios       []float64
}

// oracleRatio divides realized by static makespan, defining 0/0 as 1.
func oracleRatio(makespan, static int64) float64 {
	if static == 0 {
		return 1
	}
	return float64(makespan) / float64(static)
}

// oracleMonteCarlo is that harness's aggregation, kept verbatim as the
// migration oracle of ft.SimMonteCarlo: it runs each trial through
// Exec.Makespan and folds realized makespans, not runtime state.
func oracleMonteCarlo(x *ft.Exec, opts ft.SimOptions, trials int) (oracleStats, error) {
	static := x.Static()
	mks := make([]int64, trials)
	st := oracleStats{Static: static, Trials: trials, Ratios: make([]float64, trials)}
	var sum, sumRatio float64
	for t := range mks {
		mk, err := x.Makespan(opts, t)
		if err != nil {
			return oracleStats{}, err
		}
		mks[t] = mk
		r := oracleRatio(mk, static)
		st.Ratios[t] = r
		sum += float64(mk)
		sumRatio += r
	}
	st.MeanMakespan = sum / float64(trials)
	st.MeanRatio = sumRatio / float64(trials)
	sorted := append([]int64(nil), mks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	st.P99Makespan = sorted[ft.PercentileIndex(trials, 0.99)]
	st.MaxMakespan = sorted[trials-1]
	st.P99Ratio = oracleRatio(st.P99Makespan, static)
	return st, nil
}

// zeroWeightGraph is an rgnos graph with every task weight and edge
// cost set to 0: every schedule of it has static makespan 0.
func zeroWeightGraph(t *testing.T) *dag.Graph {
	t.Helper()
	src, err := gen.Generate("rgnos", 3, gen.Params{"v": "30", "ccr": "1"})
	if err != nil {
		t.Fatal(err)
	}
	b := dag.NewBuilder()
	for v := 0; v < src.NumNodes(); v++ {
		b.AddNode(0)
	}
	for v := 0; v < src.NumNodes(); v++ {
		for _, a := range src.Succs(dag.NodeID(v)) {
			b.AddEdge(dag.NodeID(v), a.To, 0)
		}
	}
	return b.MustBuild()
}

// oracleExecs compiles the oracle corpus: clique and APN (3-cube)
// schedules, homogeneous and with speed vectors, of two generator
// families and of the all-zero-weight graph.
func oracleExecs(t *testing.T) []compiled {
	t.Helper()
	topo := machine.Hypercube(3)
	var out []compiled
	for _, fam := range []string{"rgnos", "layered"} {
		g, err := gen.Generate(fam, 17, gen.Params{"v": "40", "ccr": "2"})
		if err != nil {
			t.Fatal(err)
		}
		for _, speeds := range [][]float64{nil, altSpeeds(8)} {
			s, err := bnp.ScheduleHet("MCP", g, 8, speeds)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, compileClique(t, fmt.Sprintf("MCP on %s speeds %v", fam, speeds), s))
			ms, err := apn.ScheduleHet("BSA", g, topo, speeds)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, compileAPN(t, fmt.Sprintf("BSA on %s speeds %v", fam, speeds), ms))
		}
		s, err := unc.ScheduleHet("DCP", g, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, compileClique(t, "DCP on "+fam, s))
	}
	zero := zeroWeightGraph(t)
	s, err := bnp.ScheduleHet("HLFET", zero, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, compileClique(t, "HLFET on zero weights", s))
	ms, err := apn.ScheduleHet("MH", zero, topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, compileAPN(t, "MH on zero weights", ms))
	for _, c := range out[len(out)-2:] {
		if c.x.Static() != 0 {
			t.Fatalf("%s: static makespan %d, want 0", c.label, c.x.Static())
		}
	}
	return out
}

// TestSimMonteCarloMatchesOracle requires the fault-free study to fill
// every field the former harness filled, Ratios included, bit for bit,
// under timetable and eager dispatch, lognormal and uniform spreads,
// and with and without a runtime speed vector; every trial finishes
// and survives. On the zero-weight graph the static makespan is 0 and
// every ratio is 1.
func TestSimMonteCarloMatchesOracle(t *testing.T) {
	for _, c := range oracleExecs(t) {
		var options []ft.SimOptions
		for _, d := range dispatches {
			for _, dist := range []ft.Distribution{ft.DistLognormal, ft.DistUniform} {
				opts := ft.SimOptions{Perturb: ft.Perturbation{Dist: dist, TaskSpread: 0.4, CommSpread: 0.3}, Policy: d, Seed: 31}
				options = append(options, opts)
				opts.Speed = altSpeeds(c.procs)
				options = append(options, opts)
			}
		}
		for oi, opts := range options {
			for _, trials := range []int{1, 7, 101} {
				label := fmt.Sprintf("%s opts[%d] %d trials", c.label, oi, trials)
				want, err := oracleMonteCarlo(c.x, opts, trials)
				if err != nil {
					t.Fatalf("%s: oracle: %v", label, err)
				}
				st, err := ft.SimMonteCarlo(c.x, opts, trials)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got := oracleStats{st.Static, st.Trials, st.MeanMakespan, st.P99Makespan, st.MaxMakespan, st.MeanRatio, st.P99Ratio, st.Ratios}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: study\n%+v\noracle\n%+v", label, got, want)
				}
				if st.Finished != trials || st.Survived != trials || st.SurvivalRate != 1 || st.MeanCrashes != 0 || st.MeanDownFrac != 0 {
					t.Fatalf("%s: fault-free study reports %+v", label, st)
				}
				if st.Static == 0 {
					for tr, r := range st.Ratios {
						if r != 1 {
							t.Fatalf("%s: zero static makespan, trial %d ratio %g", label, tr, r)
						}
					}
				}
			}
		}
	}
}
