package ft

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Stats summarizes a Monte-Carlo fault-injection study of one compiled
// schedule: the distribution of realized makespans, the survival rate
// against the deadline, and the mean utilization split.
type Stats struct {
	// Static is the planned makespan of the schedule.
	Static int64
	// Trials is the number of simulated executions.
	Trials int
	// Finished counts the trials in which every task completed.
	Finished int
	// Survived counts the trials that finished with a makespan at or
	// under Options.Deadline (every finished trial when no deadline is
	// set).
	Survived int
	// SurvivalRate is Survived/Trials.
	SurvivalRate float64
	// MeanRatio is the mean realized/static ratio over the finished
	// trials (0 when none finished).
	MeanRatio float64
	// P99Ratio is the nearest-rank 99th-percentile ratio over all
	// trials, with unfinished trials counted as +Inf — the SLO view.
	P99Ratio float64
	// MeanCrashes is the mean number of processor crashes per trial
	// within the execution horizon.
	MeanCrashes float64
	// MeanBusyFrac, MeanIdleFrac, and MeanDownFrac split the mean
	// processor-time of the execution horizon (they sum to 1 whenever
	// some trial had a positive horizon).
	MeanBusyFrac, MeanIdleFrac, MeanDownFrac float64
	// Ratios holds the per-trial ratios in trial order (+Inf for
	// unfinished trials), for callers that aggregate across schedules.
	Ratios []float64
	// Makespans holds the per-trial realized makespans in trial order,
	// -1 for unfinished trials.
	Makespans []int64
}

// MonteCarlo executes the schedule for the given number of independent
// trials (trial numbers 0..trials-1) and returns the fault-injection
// statistics. Results are deterministic in (opts, trials) and
// byte-reproducible at any concurrency, exactly as sim.MonteCarlo.
func MonteCarlo(x *Exec, opts Options, trials int) (Stats, error) {
	if trials < 1 {
		return Stats{}, fmt.Errorf("ft: MonteCarlo needs at least one trial, got %d", trials)
	}
	pol, err := x.check(&opts)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{
		Static:    x.static,
		Trials:    trials,
		Ratios:    make([]float64, trials),
		Makespans: make([]int64, trials),
	}
	var sumRatio, sumBusy, sumIdle, sumDown float64
	var sumCrashes int64
	for t := 0; t < trials; t++ {
		res := x.run(&opts, pol, t)
		st.Ratios[t] = res.Ratio
		sumCrashes += int64(res.Crashes)
		if res.Finished {
			st.Finished++
			st.Makespans[t] = res.Makespan
			sumRatio += res.Ratio
			if opts.Deadline == 0 || res.Makespan <= opts.Deadline {
				st.Survived++
			}
		} else {
			st.Makespans[t] = -1
		}
		if res.Horizon > 0 {
			span := float64(res.Horizon) * float64(x.numProcs)
			var b, i, d int64
			for p := 0; p < x.numProcs; p++ {
				b += res.Busy[p]
				i += res.Idle[p]
				d += res.Down[p]
			}
			sumBusy += float64(b) / span
			sumIdle += float64(i) / span
			sumDown += float64(d) / span
		} else {
			sumIdle++ // an empty horizon is all idle
		}
	}
	st.SurvivalRate = float64(st.Survived) / float64(trials)
	if st.Finished > 0 {
		st.MeanRatio = sumRatio / float64(st.Finished)
	}
	sorted := append([]float64(nil), st.Ratios...)
	sort.Float64s(sorted)
	st.P99Ratio = sorted[sim.PercentileIndex(trials, 0.99)]
	st.MeanCrashes = float64(sumCrashes) / float64(trials)
	st.MeanBusyFrac = sumBusy / float64(trials)
	st.MeanIdleFrac = sumIdle / float64(trials)
	st.MeanDownFrac = sumDown / float64(trials)
	return st, nil
}
