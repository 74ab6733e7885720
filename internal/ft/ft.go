// Package ft executes static schedules: a deterministic, seeded
// discrete-event runtime that replays a completed sched.Schedule
// (clique model) or machine.Schedule (arbitrary processor network)
// under perturbed task durations and communication costs, fail-stop
// processor crashes, transient link outages, and pluggable recovery
// policies that react to failures at runtime. It is the one execution
// engine and the one execution API of the repository: the robustness
// study, the fault study and the public facade all call it directly.
//
// The paper's benchmark assumes every processor survives the execution
// and every duration is exact. This package closes both gaps: a crash
// kills the task running on the processor and all unstarted work placed
// there, and a RecoveryPolicy decides what happens next.
//
// # Engine
//
// A schedule is compiled once into an Exec: a graph of units, each
// bound to a resource with a static queue. For a clique schedule the
// units are the tasks and the resources the processors; an APN schedule
// adds one unit per committed link reservation (a message hop) and one
// resource per directed link channel, numbered after the processors.
// The runtime releases a unit when its resource is free, the units
// ahead of it in the resource's queue have finished, and its
// predecessors' data has arrived: precedence with communication delay,
// processor exclusivity in static start order, and, for APN schedules,
// link exclusivity in static reservation order, store-and-forward along
// the committed route. Channels never crash, take no runtime speed
// factor and no busy accounting; a transfer's start is pushed past the
// outage windows of its channel. Recovery policies re-place and
// replicate units at runtime, which is why the runtime replays queues
// over a graph instead of a fixed release order.
//
// Two dispatch policies are supported. DispatchTimetable (the default)
// releases every unit no earlier than its planned static start, so
// delays right-shift through the dependency chains while the plan's
// ordering decisions are preserved exactly: with zero perturbation and
// no faults an execution reproduces every static start time, and hence
// the static makespan, for any valid schedule. DispatchEager starts a
// unit as soon as its dependencies clear, which can only move work
// earlier under zero perturbation.
//
// # Determinism contract
//
// Every random quantity of a run — duration multipliers, uptimes,
// downtimes, outage windows — is a counter-based hash of
// (seed, trial, entity): none, uniform over [1-s, 1+s], or mean-one
// lognormal multipliers with log-stddev s, and exponential fault
// durations. Failure traces are a property of the machine and the
// trial, not of the schedule being executed, so the same trial presents
// the same failures to every algorithm and every recovery policy
// (paired comparisons), and results are byte-reproducible at any
// worker count. All hops of one message share the edge's multiplier.
//
// Runtimes are pooled: a warm fault-free execution through
// Exec.Makespan allocates nothing. One aggregation folds repeated runs
// into Stats: MonteCarlo under faults (counted in ft.*), SimMonteCarlo
// without, each trial run as by Exec.Makespan (counted in sim.*).
//
// # Recovery policies
//
// None lets lost work stay lost: a run whose tasks cannot all finish
// reports Finished == false and a +Inf ratio (an SLO miss). Resubmit
// remaps the unfinished suffix of the execution onto the surviving
// processors with a list-scheduling repair pass (descending static
// b-level, non-insertion earliest start) that places on the runtime's
// own arrays: each processor's availability floor and last planned
// finish, each unit's copy. The pass places on demand: at the crash
// until every task that can start is placed, and the others as
// completions make them runnable. Checkpoint is resubmit plus periodic
// checkpoints: a re-executed task resumes from its last checkpoint
// boundary instead of from zero. Replicate
// duplicates the top-k static-b-level tasks on distinct processors at
// compile time and takes the first finisher at runtime. Recovery
// policies apply to clique schedules; APN executions support None
// (rerouting around failures is out of scope — see docs/faults.md).
package ft

import (
	"fmt"
	"math"
)

// RecoveryPolicy reacts to processor failures during a simulated
// execution. Implementations are stateless and safe for concurrent use
// by independent runs.
type RecoveryPolicy interface {
	// Name identifies the policy in experiment output.
	Name() string

	// prepare augments the runtime before execution starts (replicate
	// adds its task copies here); most policies do nothing.
	prepare(rt *runtime)

	// onCrash reacts to the crash of processor p at the runtime's
	// current clock, after the runtime has killed the processor's work.
	onCrash(rt *runtime, p int)

	// interval returns the checkpoint period, or 0 when the policy does
	// not checkpoint. The runtime credits completed intervals of a killed
	// task's progress against its re-execution.
	interval() int64
}

type nonePolicy struct{}

func (nonePolicy) Name() string          { return "none" }
func (nonePolicy) prepare(*runtime)      {}
func (nonePolicy) onCrash(*runtime, int) {}
func (nonePolicy) interval() int64       { return 0 }

// None is the degradation baseline: no recovery. Tasks lost to a crash
// never finish and the run reports an SLO miss.
func None() RecoveryPolicy { return nonePolicy{} }

type resubmitPolicy struct{}

func (resubmitPolicy) Name() string               { return "resubmit" }
func (resubmitPolicy) prepare(*runtime)           {}
func (resubmitPolicy) onCrash(rt *runtime, p int) { rt.resubmit() }
func (resubmitPolicy) interval() int64            { return 0 }

// Resubmit remaps the unfinished suffix of the execution onto the
// surviving processors at every crash, re-executing killed tasks from
// zero.
func Resubmit() RecoveryPolicy { return resubmitPolicy{} }

type checkpointPolicy struct{ every int64 }

func (c checkpointPolicy) Name() string               { return "checkpoint" }
func (c checkpointPolicy) prepare(*runtime)           {}
func (c checkpointPolicy) onCrash(rt *runtime, p int) { rt.resubmit() }
func (c checkpointPolicy) interval() int64            { return c.every }

// Checkpoint is Resubmit with periodic checkpoints of period every: a
// killed task resumes from its last completed checkpoint boundary
// instead of from zero. A non-positive period is clamped to 1.
func Checkpoint(every int64) RecoveryPolicy {
	if every < 1 {
		every = 1
	}
	return checkpointPolicy{every: every}
}

type replicatePolicy struct{ k int }

func (r replicatePolicy) Name() string { return "replicate" }

// prepare adds the replicas only when the fault model can actually
// crash a processor: a replica that wins the first-finisher race can
// reroute a child's data arrival through a cross-processor lag the
// static schedule never paid, so speculative copies are pure overhead
// (and would break the zero-fault invariant) on a reliable machine.
func (r replicatePolicy) prepare(rt *runtime) {
	if rt.opts.Faults.MTBF > 0 {
		rt.addReplicas(r.k)
	}
}
func (r replicatePolicy) onCrash(*runtime, int) {}
func (r replicatePolicy) interval() int64       { return 0 }

// Replicate duplicates the k tasks with the highest static b-level
// (the critical-path prefix) on distinct processors in the spare
// capacity of the static schedule; the execution takes each task's
// first finisher and cancels the not-yet-started sibling. k is clamped
// to the task count; on a single processor no replica can be placed,
// and with a fault model that cannot crash processors none is.
func Replicate(k int) RecoveryPolicy {
	if k < 1 {
		k = 1
	}
	return replicatePolicy{k: k}
}

// Policies returns one instance of every recovery policy with the given
// checkpoint period and replication degree, in the canonical order the
// faults experiment reports them.
func Policies(checkpointEvery int64, replicateK int) []RecoveryPolicy {
	return []RecoveryPolicy{None(), Resubmit(), Checkpoint(checkpointEvery), Replicate(replicateK)}
}

// PolicyNames returns the canonical policy order of Policies.
func PolicyNames() []string { return []string{"none", "resubmit", "checkpoint", "replicate"} }

// Options parameterizes one fault-injected execution.
type Options struct {
	// Sim carries the perturbation model, dispatch policy, base seed,
	// and optional runtime speed factors.
	Sim SimOptions
	// Faults is the failure model; the zero value injects no faults.
	Faults FaultModel
	// Recovery selects the failure response; nil means None.
	Recovery RecoveryPolicy
	// Deadline, when positive, is the SLO used by MonteCarlo's survival
	// statistic: a trial survives when it finishes with a makespan at or
	// under the deadline. The engine itself does not stop at it.
	Deadline int64
}

// validate checks the options against a processor count.
func (o *Options) validate(numProcs int) error {
	if err := o.Sim.validate(numProcs); err != nil {
		return err
	}
	if err := o.Faults.Validate(); err != nil {
		return err
	}
	if o.Deadline < 0 {
		return fmt.Errorf("ft: negative deadline %d", o.Deadline)
	}
	return nil
}

// recovery returns the configured policy, defaulting to None.
func (o *Options) recovery() RecoveryPolicy {
	if o.Recovery == nil {
		return nonePolicy{}
	}
	return o.Recovery
}

// Result reports one fault-injected execution of a schedule.
type Result struct {
	// Static is the makespan of the schedule as planned.
	Static int64
	// Finished reports whether every task completed. A run with lost
	// tasks (or an aborted repair pass with no surviving processors)
	// does not finish.
	Finished bool
	// Makespan is the realized makespan when Finished; 0 otherwise.
	Makespan int64
	// Ratio is Makespan/Static for a finished run (1 when Static is 0)
	// and +Inf otherwise — an unfinished schedule misses every deadline.
	Ratio float64
	// Horizon is the time of the last processed event: the span the
	// utilization accounting covers. Horizon >= Makespan on a finished
	// run.
	Horizon int64
	// Crashes counts processor crash events within the horizon.
	Crashes int
	// Lost counts the tasks that never finished.
	Lost int
	// Busy, Idle, and Down split each processor's share of the horizon:
	// Busy[p] + Idle[p] + Down[p] == Horizon for every p. Busy covers
	// task execution (including killed partial runs and wasted replica
	// runs); Down covers crash-to-repair intervals clamped to the
	// horizon.
	Busy, Idle, Down []int64
}

// ratio divides realized by static makespan, defining 0/0 as 1.
func ratio(makespan, static int64) float64 {
	if static == 0 {
		return 1
	}
	return float64(makespan) / float64(static)
}

// never marks a repair that will not happen.
const never int64 = math.MaxInt64
