package ft

import (
	"math"

	"repro/internal/dag"
)

// Counter-based randomness: every multiplier, uptime, downtime and
// outage window is a pure hash of (seed, trial, entity), so draws are
// independent of event-processing order, identical for the same entity
// across algorithms, recovery policies and worker counts (paired
// comparisons), and reproducible without carrying generator state.

// Entity keys name the random quantities of a run. The top two bits
// carry the kind: task duration, communication cost (which selects the
// spread parameter), or fault. The low bits of a task or communication
// key identify the task or the task-graph edge; all hops of one message
// share the edge's key, so a message is slow on every link of its route
// or on none. Bit 61 separates processor-fault keys from link-outage
// keys, whose low bits carry the processor (or directed channel) plus
// the draw index along that entity's alternating up/down sequence.
const (
	entTask      uint64 = 1 << 62
	entComm      uint64 = 2 << 62
	entFault     uint64 = 3 << 62
	entFaultLink uint64 = 1 << 61
)

// taskEnt returns the entity key of node n's duration.
func taskEnt(n dag.NodeID) uint64 { return entTask | uint64(uint32(n)) }

// commEnt returns the entity key of edge (u,v)'s communication cost.
func commEnt(u, v dag.NodeID) uint64 {
	return entComm | uint64(uint32(u))<<31 | uint64(uint32(v))
}

// procFaultEnt returns the entity key of the k-th fault draw of
// processor p: draws alternate uptime, downtime, uptime, ... along k.
func procFaultEnt(p, k int) uint64 {
	return entFault | uint64(uint32(p))<<32 | uint64(uint32(k))
}

// linkFaultEnt returns the entity key of the k-th outage draw of the
// directed channel u -> v: draws alternate up-window, outage-window,
// ... along k.
func linkFaultEnt(u, v, k int) uint64 {
	return entFault | entFaultLink | uint64(uint16(u))<<44 | uint64(uint16(v))<<28 | uint64(uint32(k))&0xfffffff
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche mix used here as a counter-based hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// trialSeed mixes the base seed with a trial number into the 64-bit
// stream selector shared by every entity of that trial.
func trialSeed(seed int64, trial int) uint64 {
	return splitmix64(splitmix64(uint64(seed)) + uint64(int64(trial)))
}

// u01 maps 64 random bits to a float in [0, 1).
func u01(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// u01pos maps 64 random bits to a float in (0, 1], safe for log.
func u01pos(x uint64) float64 { return float64(x>>11+1) / (1 << 53) }

// multiplier draws the duration multiplier of one entity for one
// trial. DistNone and a zero spread yield exactly 1 with no draws, so
// unperturbed runs stay in exact integer arithmetic.
func (p *Perturbation) multiplier(trial uint64, ent uint64) float64 {
	spread := p.TaskSpread
	if ent&entComm != 0 {
		spread = p.CommSpread
	}
	if p.Dist == DistNone || spread == 0 {
		return 1
	}
	h := splitmix64(trial ^ splitmix64(ent))
	switch p.Dist {
	case DistUniform:
		return 1 + spread*(2*u01(h)-1)
	case DistLognormal:
		// Box-Muller; the -spread²/2 shift makes the mean exactly 1.
		z := math.Sqrt(-2*math.Log(u01pos(h))) * math.Cos(2*math.Pi*u01(splitmix64(h)))
		return math.Exp(spread*z - spread*spread/2)
	}
	return 1
}

// ticks rounds a non-negative real duration to the nearest tick,
// saturating at never; NaN reads as 0.
func ticks(d float64) int64 {
	d = math.Round(d)
	switch {
	case d >= 1<<63:
		return never
	case d > 0:
		return int64(d)
	}
	return 0
}

// scaleDur scales an integer duration by a multiplier, rounding to the
// nearest tick, never going negative and saturating at never. m == 1
// returns base exactly.
func scaleDur(base int64, m float64) int64 {
	if m == 1 || base == 0 {
		return base
	}
	return ticks(float64(base) * m)
}

// expDuration draws a deterministic exponential duration with the given
// mean for one (trial, entity) pair, rounded to the nearest tick with a
// one-tick minimum and saturating at never. It is the counter-based
// analogue of sampling a time-to-failure or repair time: the draw
// depends only on the hash inputs, never on simulation state, and for
// a fixed (trial, entity) it never falls as the mean rises.
func expDuration(mean int64, trial, ent uint64) int64 {
	h := splitmix64(trial ^ splitmix64(ent))
	return max(1, ticks(-float64(mean)*math.Log(u01pos(h))))
}

// later returns t + d for a non-negative duration d, saturating at
// never so that a huge draw or duration stays in the future.
func later(t, d int64) int64 {
	if d > never-t {
		return never
	}
	return t + d
}
