package ft

import "repro/internal/obs"

// Fault-injection metrics: executions, events drained from the queue,
// crashes injected, and tasks lost unrecoverably. Accumulated locally
// per execution and folded in once at the end; fault-free executions
// through Exec.Makespan and SimMonteCarlo do not count here.
var (
	ftRuns    = obs.NewCounter("ft.runs")
	ftEvents  = obs.NewCounter("ft.events")
	ftCrashes = obs.NewCounter("ft.crashes")
	ftLost    = obs.NewCounter("ft.lost")
)

// Fault-free simulator metrics, published by Exec.Makespan and
// SimMonteCarlo only: executions, completion events processed (one per
// unit), and stalls — units whose realized start exceeded their static
// start, i.e. placements right-shifted by upstream perturbation. Eager
// dispatch also counts against the static start. Added once per
// execution, so the enabled path costs three atomic adds per run, not
// per event.
var (
	simRuns   = obs.NewCounter("sim.runs")
	simEvents = obs.NewCounter("sim.events")
	simStalls = obs.NewCounter("sim.stalls")
)
