package ft

import (
	"fmt"
	"math"
	"slices"
)

// Stats summarizes a Monte-Carlo study of one compiled schedule: the
// distribution of realized makespans, the survival rate against the
// deadline, and the mean utilization split.
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
	// MeanMakespan is the mean realized makespan over the finished
	// trials (0 when none finished).
	MeanMakespan float64
	// P99Makespan is the nearest-rank 99th-percentile realized
	// makespan over the finished trials (0 when none finished).
	P99Makespan int64
	// MaxMakespan is the worst realized makespan over the finished
	// trials (0 when none finished).
	MaxMakespan int64
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
// trials (trial numbers 0..trials-1) under the fault model and
// recovery policy of opts and returns the study's statistics. Each run
// counts in the ft.* metrics. Results are deterministic in
// (opts, trials) and byte-reproducible at any concurrency.
func MonteCarlo(x *Exec, opts Options, trials int) (Stats, error) {
	return x.study(opts, trials, (*runtime).countFT)
}

// SimMonteCarlo is the fault-free study: MonteCarlo without faults or
// recovery, each trial run as by Makespan, so a warm trial allocates
// nothing and counts in the sim.* metrics instead of ft.*.
func SimMonteCarlo(x *Exec, opts SimOptions, trials int) (Stats, error) {
	return x.study(Options{Sim: opts}, trials, (*runtime).countSim)
}

// study runs trials 0..trials-1, counts each run with count, and folds
// the outcomes straight off the pooled runtime. Its allocations are
// per study, never per trial.
func (x *Exec) study(opts Options, trials int, count func(*runtime)) (Stats, error) {
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
	var sumMakespan, sumRatio, sumBusy, sumIdle, sumDown float64
	var sumCrashes int64
	for t := 0; t < trials; t++ {
		rt := x.execute(&opts, pol, t)
		count(rt)
		sumCrashes += int64(rt.crashes)
		if rt.finished() {
			r := ratio(rt.makespan, x.static)
			st.Finished++
			st.Ratios[t], st.Makespans[t] = r, rt.makespan
			sumMakespan += float64(rt.makespan)
			sumRatio += r
			if opts.Deadline == 0 || rt.makespan <= opts.Deadline {
				st.Survived++
			}
		} else {
			st.Ratios[t], st.Makespans[t] = math.Inf(1), -1
		}
		if rt.horizon > 0 {
			span := float64(rt.horizon) * float64(x.numProcs)
			var b, i, d int64
			for p := 0; p < x.numProcs; p++ {
				dp := rt.downOf(p)
				b += rt.busy[p]
				i += rt.horizon - rt.busy[p] - dp
				d += dp
			}
			sumBusy += float64(b) / span
			sumIdle += float64(i) / span
			sumDown += float64(d) / span
		} else {
			sumIdle++ // an empty horizon is all idle
		}
		rt.release()
	}
	st.SurvivalRate = float64(st.Survived) / float64(trials)
	st.MeanCrashes = float64(sumCrashes) / float64(trials)
	st.MeanBusyFrac = sumBusy / float64(trials)
	st.MeanIdleFrac = sumIdle / float64(trials)
	st.MeanDownFrac = sumDown / float64(trials)
	sorted := slices.Clone(st.Ratios)
	slices.Sort(sorted)
	st.P99Ratio = sorted[PercentileIndex(trials, 0.99)]
	if st.Finished > 0 {
		mks := slices.DeleteFunc(slices.Clone(st.Makespans), func(mk int64) bool { return mk < 0 })
		slices.Sort(mks)
		st.MeanMakespan = sumMakespan / float64(st.Finished)
		st.MeanRatio = sumRatio / float64(st.Finished)
		st.P99Makespan = mks[PercentileIndex(st.Finished, 0.99)]
		st.MaxMakespan = mks[st.Finished-1]
	}
	return st, nil
}

// PercentileIndex returns the index of the q-th percentile in a
// sorted sample of n values: the smallest index covering at least q
// of the mass (nearest-rank method). Exported so consumers pooling
// ratios across several studies use the same method as the studies.
func PercentileIndex(n int, q float64) int {
	i := int(math.Ceil(float64(n)*q)) - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
