package sim

import (
	"fmt"
	"math"

	"repro/internal/dag"
)

// Fault entities extend the counter-based randomness of rng.go to
// machine failures: every uptime, downtime, and link-outage duration is
// a pure hash of (seed, trial, entity), so failure traces are
// independent of event-processing order, identical for the same machine
// across algorithms and recovery policies (paired comparisons), and
// byte-reproducible at any worker count. The entFault kind occupies the
// remaining top-bit pattern next to entTask and entComm; bit 61
// separates processor-fault entities from link-outage entities, and the
// low bits carry the processor (or directed channel) plus the draw
// index along that entity's alternating up/down sequence.
const (
	entFault     uint64 = 3 << 62
	entFaultLink uint64 = 1 << 61
)

// ProcFaultEntity returns the entity key of the k-th fault draw of
// processor p: draws alternate uptime, downtime, uptime, ... along k.
func ProcFaultEntity(p, k int) uint64 {
	return entFault | uint64(uint32(p))<<32 | uint64(uint32(k))
}

// LinkFaultEntity returns the entity key of the k-th outage draw of the
// directed channel u -> v: draws alternate up-window, outage-window,
// ... along k.
func LinkFaultEntity(u, v, k int) uint64 {
	return entFault | entFaultLink | uint64(uint16(u))<<44 | uint64(uint16(v))<<28 | uint64(uint32(k))&0xfffffff
}

// ExpDuration draws a deterministic exponential duration with the given
// mean for one (trial, entity) pair, rounded to the nearest tick with a
// one-tick minimum. It is the counter-based analogue of sampling a
// time-to-failure or repair time: the draw depends only on the hash
// inputs, never on simulation state.
func ExpDuration(mean int64, trial, ent uint64) int64 {
	h := splitmix64(trial ^ splitmix64(ent))
	d := int64(math.Round(-float64(mean) * math.Log(u01pos(h))))
	if d < 1 {
		return 1
	}
	return d
}

// FaultModel configures deterministic fail-stop processor crashes and
// transient link outages for a simulated execution. The zero value
// injects no faults.
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
			return fmt.Errorf("sim: negative fault-model duration %d", v)
		}
	}
	if f.LinkMTBF > 0 && f.MeanOutage == 0 {
		return fmt.Errorf("sim: link outages need a positive MeanOutage")
	}
	return nil
}

// The exported counter-based randomness surface: internal/ft replays
// schedules under faults with its own event loop and must draw
// byte-identical multipliers for the same (seed, trial, entity) as this
// package's engine, so the zero-fault path reproduces Plan.Run exactly.
// It reads an APN execution's entities off the compiled Plan; for a
// clique execution, which it replays over the task graph, it derives
// durations and lags through TaskEntity and CommEntity.

// TrialSeed mixes the base seed with a trial number into the 64-bit
// stream selector shared by every entity of that trial.
func TrialSeed(seed int64, trial int) uint64 { return trialSeed(seed, trial) }

// TaskEntity returns the entity key of node n's duration.
func TaskEntity(n dag.NodeID) uint64 { return taskEnt(n) }

// CommEntity returns the entity key of edge (u, v)'s communication
// cost; all hops of one message share it.
func CommEntity(u, v dag.NodeID) uint64 { return commEnt(u, v) }

// Multiplier draws the duration multiplier of one entity for one trial,
// exactly as the engine does.
func (p *Perturbation) Multiplier(trial, ent uint64) float64 { return p.multiplier(trial, ent) }

// ScaleDur scales an integer duration by a multiplier, rounding to the
// nearest tick and never going negative. m == 1 returns base exactly.
func ScaleDur(base int64, m float64) int64 { return scaleDur(base, m) }

// Validate checks the options against a processor count, exactly as
// Plan.Run does before executing.
func (o *Options) Validate(numProcs int) error { return o.validate(numProcs) }
