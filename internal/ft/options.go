package ft

import (
	"fmt"
	"math"
)

// Distribution selects the shape of the multiplicative perturbation
// applied to task durations and communication costs.
type Distribution int

const (
	// DistNone applies no perturbation: every multiplier is exactly 1
	// and no random draws are made.
	DistNone Distribution = iota
	// DistUniform draws multipliers uniformly from [1-s, 1+s], where s
	// is the spread parameter (0 <= s <= 1).
	DistUniform
	// DistLognormal draws multipliers from a lognormal distribution
	// with mean 1 and log-standard-deviation s (the spread parameter).
	DistLognormal
)

// String returns the distribution's name.
func (d Distribution) String() string {
	switch d {
	case DistNone:
		return "none"
	case DistUniform:
		return "uniform"
	case DistLognormal:
		return "lognormal"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// Dispatch selects when a unit may start relative to its static plan.
type Dispatch int

const (
	// DispatchTimetable releases each unit no earlier than its planned
	// static start time; delays right-shift through the dependency
	// chains. With zero perturbation the execution reproduces the
	// static schedule — every start time and the makespan — exactly.
	DispatchTimetable Dispatch = iota
	// DispatchEager starts each unit as soon as its dependencies clear,
	// ignoring planned start times (a work-conserving runtime that
	// keeps the static assignment and ordering). With zero
	// perturbation the realized makespan never exceeds the static one.
	DispatchEager
)

// String returns the dispatch policy's name.
func (d Dispatch) String() string {
	switch d {
	case DispatchTimetable:
		return "timetable"
	case DispatchEager:
		return "eager"
	}
	return fmt.Sprintf("Dispatch(%d)", int(d))
}

// Perturbation configures the stochastic duration model of a run.
type Perturbation struct {
	// Dist is the multiplier distribution (none, uniform, lognormal).
	Dist Distribution
	// TaskSpread is the spread parameter applied to task durations:
	// the half-width for DistUniform, the log-stddev for DistLognormal.
	TaskSpread float64
	// CommSpread is the spread parameter applied to communication
	// costs (clique edge delays and APN link transfers).
	CommSpread float64
}

// SimOptions parameterizes the fault-free side of an execution: how
// durations are perturbed and when units are dispatched.
type SimOptions struct {
	// Perturb is the stochastic duration model. The zero value (no
	// perturbation) replays the schedule deterministically.
	Perturb Perturbation
	// Policy selects the dispatch rule; the zero value is
	// DispatchTimetable.
	Policy Dispatch
	// Seed is the base random seed. Together with the trial number it
	// fully determines every multiplier of a run.
	Seed int64
	// Speed optionally slows processors non-uniformly: task durations
	// on processor p are additionally multiplied by Speed[p]. Nil
	// means all processors run at nominal speed; otherwise the length
	// must equal the schedule's processor count and every entry must
	// be positive and finite.
	Speed []float64
}

// validate checks the options against a processor count.
func (o *SimOptions) validate(numProcs int) error {
	switch o.Perturb.Dist {
	case DistNone, DistUniform, DistLognormal:
	default:
		return fmt.Errorf("ft: unknown distribution %d", int(o.Perturb.Dist))
	}
	switch o.Policy {
	case DispatchTimetable, DispatchEager:
	default:
		return fmt.Errorf("ft: unknown dispatch policy %d", int(o.Policy))
	}
	for _, s := range [...]float64{o.Perturb.TaskSpread, o.Perturb.CommSpread} {
		if !(s >= 0) || math.IsInf(s, 1) {
			return fmt.Errorf("ft: spread %g must be non-negative and finite", s)
		}
		if o.Perturb.Dist == DistUniform && s > 1 {
			return fmt.Errorf("ft: uniform spread %g > 1 would allow negative durations", s)
		}
	}
	if o.Speed != nil {
		if len(o.Speed) != numProcs {
			return fmt.Errorf("ft: %d speed factors for %d processors", len(o.Speed), numProcs)
		}
		for p, s := range o.Speed {
			if !(s > 0) || math.IsInf(s, 1) {
				return fmt.Errorf("ft: speed factor %g for processor %d must be positive and finite", s, p)
			}
		}
	}
	return nil
}

// FaultModel configures deterministic fail-stop processor crashes and
// transient link outages for an execution. The zero value injects no
// faults.
type FaultModel struct {
	// MTBF is the mean uptime before a processor crashes (exponential
	// time-to-failure, drawn per processor); 0 disables crashes. A crash
	// kills the task running on the processor and all unstarted work
	// placed there.
	MTBF int64
	// MeanRepair is the mean downtime before a crashed processor
	// returns to service (exponential, drawn per crash); 0 means crashed
	// processors never return.
	MeanRepair int64
	// LinkMTBF is the mean up time between transient outages of a
	// directed link channel (APN schedules only); 0 disables outages.
	// During an outage the channel's FIFO queue stalls: no new transfer
	// may start until the outage window closes (in-flight transfers
	// complete, store-and-forward).
	LinkMTBF int64
	// MeanOutage is the mean length of one link-outage window; it must
	// be positive when LinkMTBF is.
	MeanOutage int64
}

// Validate checks the model's parameters.
func (f *FaultModel) Validate() error {
	for _, v := range [...]int64{f.MTBF, f.MeanRepair, f.LinkMTBF, f.MeanOutage} {
		if v < 0 {
			return fmt.Errorf("ft: negative fault-model duration %d", v)
		}
	}
	if f.LinkMTBF > 0 && f.MeanOutage == 0 {
		return fmt.Errorf("ft: link outages need a positive MeanOutage")
	}
	return nil
}
