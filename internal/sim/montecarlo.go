package sim

import (
	"fmt"
	"sort"

	"repro/internal/ft"
)

// Stats summarizes a Monte-Carlo execution study of one compiled
// schedule: the distribution of realized makespans over independent
// perturbation trials.
type Stats struct {
	// Static is the planned makespan of the schedule.
	Static int64
	// Trials is the number of simulated executions.
	Trials int
	// MeanMakespan is the average realized makespan.
	MeanMakespan float64
	// P99Makespan is the 99th-percentile realized makespan (the
	// smallest realized value at or above 99% of the trials).
	P99Makespan int64
	// MaxMakespan is the worst realized makespan.
	MaxMakespan int64
	// MeanRatio is the average of realized/static makespan ratios.
	MeanRatio float64
	// P99Ratio is the 99th-percentile realized/static ratio.
	P99Ratio float64
	// Ratios holds the per-trial realized/static ratios in trial
	// order, for callers that aggregate across schedules.
	Ratios []float64
}

// MonteCarlo executes the plan for the given number of independent
// trials (trial numbers 0..trials-1) and returns the realized-makespan
// statistics. Results are deterministic in (opts, trials) and
// byte-reproducible at any concurrency: each trial's perturbation is a
// pure function of (opts.Seed, trial, entity).
func MonteCarlo(p *Plan, opts Options, trials int) (Stats, error) {
	if trials < 1 {
		return Stats{}, fmt.Errorf("sim: MonteCarlo needs at least one trial, got %d", trials)
	}
	static := p.Static()
	mks := make([]int64, trials)
	st := Stats{Static: static, Trials: trials, Ratios: make([]float64, trials)}
	var sum, sumRatio float64
	for t := range mks {
		mk, err := p.Run(opts, t)
		if err != nil {
			return Stats{}, err
		}
		mks[t] = mk
		r := ratio(mk, static)
		st.Ratios[t] = r
		sum += float64(mk)
		sumRatio += r
	}
	st.MeanMakespan = sum / float64(trials)
	st.MeanRatio = sumRatio / float64(trials)
	sorted := append([]int64(nil), mks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	st.P99Makespan = sorted[PercentileIndex(trials, 0.99)]
	st.MaxMakespan = sorted[trials-1]
	st.P99Ratio = ratio(st.P99Makespan, static)
	return st, nil
}

// PercentileIndex returns the index of the q-th percentile in a
// sorted sample of n values: the smallest index covering at least q
// of the mass (nearest-rank method). Exported so consumers pooling
// ratios across several Stats use the same method as Stats itself.
func PercentileIndex(n int, q float64) int { return ft.PercentileIndex(n, q) }
