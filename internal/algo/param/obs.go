package param

import (
	"repro/internal/dag"
	"repro/internal/obs"
)

// tracePriority stages node n's selection value on the active tracer
// for the placement record the imminent Place emits: the priority key
// in the static regime; in the dynamic one the dynamic level for
// MetricDL and the rule objective otherwise. One atomic load and a nil
// check when disabled.
func tracePriority(n dag.NodeID, prio int64) {
	if t := obs.ActiveTracer(); t != nil && t.InRun() {
		t.Priority(int32(n), prio)
	}
}
