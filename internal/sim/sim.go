// Package sim executes static schedules under runtime variability: it
// replays a completed sched.Schedule (clique model) or machine.Schedule
// (arbitrary processor network) with perturbed task durations and
// communication costs, and a Monte-Carlo harness turns repeated
// executions into robustness statistics.
//
// The paper ranks algorithms by the static makespan of the schedule
// they emit; real systems execute those schedules under stochastic task
// durations and network contention, where the static ranking can flip
// (Beránek et al., "Analysis of Workflow Schedulers in Simulated
// Distributed Environments"). This package supplies the missing
// execution axis.
//
// It is the fault-free face of internal/ft, which owns the one compiled
// form and the one event loop: a Plan wraps an ft.Exec, and every run
// is an ft execution without faults (ft.Exec.Makespan). The execution
// model, the dispatch policies and the counter-based perturbation are
// documented there; the names below alias ft's so callers need not
// import it. With zero perturbation, timetable dispatch reproduces every
// static start time, and hence the static makespan, exactly, and eager
// dispatch never exceeds it. Warm trials allocate nothing.
package sim

import (
	"repro/internal/ft"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Distribution selects the shape of the multiplicative perturbation
// applied to task durations and communication costs.
type Distribution = ft.Distribution

// The perturbation distributions.
const (
	// DistNone applies no perturbation: every multiplier is exactly 1.
	DistNone = ft.DistNone
	// DistUniform draws multipliers uniformly from [1-s, 1+s].
	DistUniform = ft.DistUniform
	// DistLognormal draws mean-one lognormal multipliers with
	// log-stddev s.
	DistLognormal = ft.DistLognormal
)

// Policy selects when a job may start relative to its static plan.
type Policy = ft.Dispatch

// The dispatch policies.
const (
	// PolicyTimetable releases each job no earlier than its planned
	// static start time; zero perturbation replays the schedule exactly.
	PolicyTimetable = ft.DispatchTimetable
	// PolicyEager starts each job as soon as its dependencies clear.
	PolicyEager = ft.DispatchEager
)

// Perturbation configures the stochastic duration model of a run.
type Perturbation = ft.Perturbation

// Options parameterizes one simulated execution: perturbation,
// dispatch policy, seed and optional per-processor slowdowns.
type Options = ft.SimOptions

// FaultModel configures processor crashes and link outages for
// internal/ft executions.
type FaultModel = ft.FaultModel

// Plan is a compiled schedule, executable any number of times. It is
// immutable after compilation and safe for concurrent Run calls.
type Plan struct{ x *ft.Exec }

// Compile translates a complete clique-model schedule (BNP and UNC
// classes) into an executable Plan.
func Compile(s *sched.Schedule) (*Plan, error) { return wrap(ft.Compile(s)) }

// CompileAPN translates a complete APN schedule, tasks plus its
// committed link reservations, into an executable Plan that replays
// every message through per-link contention queues.
func CompileAPN(s *machine.Schedule) (*Plan, error) { return wrap(ft.CompileAPN(s)) }

func wrap(x *ft.Exec, err error) (*Plan, error) {
	if err != nil {
		return nil, err
	}
	return &Plan{x: x}, nil
}

// Static returns the planned (unperturbed) makespan of the compiled
// schedule.
func (p *Plan) Static() int64 { return p.x.Static() }

// Jobs returns the number of simulated jobs: one per task, plus one
// per committed link transfer for APN schedules.
func (p *Plan) Jobs() int { return p.x.Units() }

// Run executes the plan once under the given options and trial number
// and returns the realized makespan. Runs are deterministic in
// (Options, trial) and independent of each other; a Plan may be Run
// concurrently.
func (p *Plan) Run(opts Options, trial int) (int64, error) { return p.x.Makespan(opts, trial) }

// Result reports one simulated execution of a schedule.
type Result struct {
	// Static is the makespan of the schedule as planned.
	Static int64
	// Makespan is the realized makespan of the simulated execution.
	Makespan int64
	// Ratio is Makespan / Static (1 when Static is 0).
	Ratio float64
}

// Simulate compiles and executes a complete clique-model schedule once
// under the given options (trial 0). For repeated execution compile
// once with Compile and call Plan.Run or MonteCarlo.
func Simulate(s *sched.Schedule, opts Options) (Result, error) {
	plan, err := Compile(s)
	if err != nil {
		return Result{}, err
	}
	return plan.once(opts)
}

// SimulateAPN compiles and executes a complete APN schedule once under
// the given options (trial 0). For repeated execution compile once
// with CompileAPN and call Plan.Run or MonteCarlo.
func SimulateAPN(s *machine.Schedule, opts Options) (Result, error) {
	plan, err := CompileAPN(s)
	if err != nil {
		return Result{}, err
	}
	return plan.once(opts)
}

// once runs trial 0 and reports it against the static makespan.
func (p *Plan) once(opts Options) (Result, error) {
	mk, err := p.Run(opts, 0)
	if err != nil {
		return Result{}, err
	}
	return Result{Static: p.Static(), Makespan: mk, Ratio: ratio(mk, p.Static())}, nil
}

// ratio divides realized by static makespan, defining 0/0 as 1.
func ratio(makespan, static int64) float64 {
	if static == 0 {
		return 1
	}
	return float64(makespan) / float64(static)
}
