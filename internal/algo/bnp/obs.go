package bnp

import (
	"repro/internal/dag"
	"repro/internal/obs"
)

// tracePriority stages node n's selection priority on the active
// tracer, for attachment to the placement record the imminent Place
// will emit. The disabled path is one atomic load and a nil check, and
// it runs once per placement, not per candidate. ISH stages the static
// level and LAST D_NODE in micro-units; the combo-backed algorithms
// stage what the param engine stages — documented per algorithm in
// docs/observability.md.
func tracePriority(n dag.NodeID, prio int64) {
	if t := obs.ActiveTracer(); t != nil && t.InRun() {
		t.Priority(int32(n), prio)
	}
}
