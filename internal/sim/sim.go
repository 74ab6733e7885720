// Package sim is perfbench's import surface and nothing else: the
// names perfbench uses, each an alias of or a forward to internal/ft,
// the one execution package. Everything else calls ft directly. The
// next change to perfbench's sources should move them onto ft and
// delete this package.
package sim

import (
	"repro/internal/ft"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Options is ft.SimOptions.
type Options = ft.SimOptions

// Perturbation is ft.Perturbation.
type Perturbation = ft.Perturbation

// FaultModel is ft.FaultModel.
type FaultModel = ft.FaultModel

// Stats is ft.Stats.
type Stats = ft.Stats

// DistLognormal is ft.DistLognormal.
const DistLognormal = ft.DistLognormal

// Plan is an ft.Exec whose Run is the fault-free ft.Exec.Makespan.
type Plan ft.Exec

// Compile is ft.Compile.
func Compile(s *sched.Schedule) (*Plan, error) {
	x, err := ft.Compile(s)
	return (*Plan)(x), err
}

// CompileAPN is ft.CompileAPN.
func CompileAPN(s *machine.Schedule) (*Plan, error) {
	x, err := ft.CompileAPN(s)
	return (*Plan)(x), err
}

// Run is ft.Exec.Makespan.
func (p *Plan) Run(opts Options, trial int) (int64, error) {
	return (*ft.Exec)(p).Makespan(opts, trial)
}

// MonteCarlo is ft.SimMonteCarlo.
func MonteCarlo(p *Plan, opts Options, trials int) (Stats, error) {
	return ft.SimMonteCarlo((*ft.Exec)(p), opts, trials)
}
