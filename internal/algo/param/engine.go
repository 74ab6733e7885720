package param

import (
	"sync"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sched"
)

// engine is the pooled per-run state of the generic component
// scheduler: level attributes, the static priority key, the median
// execution times (RuleDL only), and — in the dynamic regime — the
// per-ready-node cache of the best placement under the combo's rule.
// Arrays a combo never reads are not sized for it.
type engine struct {
	lv       dag.Levels
	prio     []int64 // per-node key, higher first; aliases lv.Static for sl/dl
	key      []int64 // owned backing of prio for the other metrics
	med      []int64
	execBuf  []int64
	bestProc []int32
	bestEST  []int64
	bestObj  []int64
}

var enginePool = sync.Pool{New: func() any { return new(engine) }}

func acquireEngine(g *dag.Graph) *engine {
	e := enginePool.Get().(*engine)
	e.lv.Compute(g)
	return e
}

func (e *engine) release() {
	e.prio = nil
	enginePool.Put(e)
}

// resize returns buf with length n, reusing its backing array when it
// is large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// Run executes the combo on an empty schedule of g prepared by
// sched.AcquireOn, homogeneous or heterogeneous, and leaves it complete.
// The combo must be valid (a Lookup result or a Combos point).
func (c Combo) Run(g *dag.Graph, s *sched.Schedule) {
	e := acquireEngine(g)
	defer e.release()
	e.computePrio(c.Metric, g)
	if c.Rule == RuleDL {
		e.computeMedians(g, s)
	}

	if c.Regime == RegimeStatic {
		// Fixed priority list: pop by the static key, place by rule+slot.
		ready := algo.AcquireReadyHeap(g, e.prio)
		defer ready.Release()
		for !ready.Empty() {
			n := ready.PopMax()
			p, est, _ := e.eval(c, s, n)
			obs.TracePriority(int32(n), e.prio[n])
			s.MustPlace(n, int(p), est)
			ready.MarkScheduled(g, n)
		}
		return
	}

	// Dynamic regime: every ready node caches its best placement under
	// the rule; each step schedules the globally best (node, processor)
	// pair and re-evaluates only the nodes whose cached processor just
	// changed, plus the newly released ones. A ready node's parents are
	// all placed, so its data arrivals are fixed; a placement affects
	// only the receiving processor, and only for the worse — under
	// either slot policy, adding a slot can never open an earlier fit on
	// it — so a cached best on another processor stays optimal.
	n := g.NumNodes()
	e.bestProc = resize(e.bestProc, n)
	e.bestEST = resize(e.bestEST, n)
	e.bestObj = resize(e.bestObj, n)
	cache := func(m dag.NodeID) {
		e.bestProc[m], e.bestEST[m], e.bestObj[m] = e.eval(c, s, m)
	}
	ready := algo.AcquireReadySet(g)
	defer ready.Release()
	for _, m := range ready.Ready() {
		cache(m)
	}
	for !ready.Empty() {
		bestNode := dag.None
		var bestVal int64
		if c.Metric == MetricDL {
			// Maximize the dynamic level SL − objective, ties toward the
			// smaller node ID (Sih & Lee).
			for _, m := range ready.Ready() {
				dl := e.lv.Static[m] - e.bestObj[m]
				if bestNode == dag.None || dl > bestVal || (dl == bestVal && m < bestNode) {
					bestNode, bestVal = m, dl
				}
			}
		} else {
			// Minimize the objective, ties by the static key (for
			// MetricSL this is ETF's higher-static-level-then-smaller-ID
			// chain).
			for _, m := range ready.Ready() {
				obj := e.bestObj[m]
				if bestNode == dag.None || obj < bestVal || (obj == bestVal &&
					(e.prio[m] > e.prio[bestNode] || (e.prio[m] == e.prio[bestNode] && m < bestNode))) {
					bestNode, bestVal = m, obj
				}
			}
		}
		placed := e.bestProc[bestNode]
		ready.Pop(bestNode)
		obs.TracePriority(int32(bestNode), bestVal)
		s.MustPlace(bestNode, int(placed), e.bestEST[bestNode])
		for _, m := range ready.Ready() {
			if e.bestProc[m] == placed {
				cache(m)
			}
		}
		for _, m := range ready.MarkScheduled(g, bestNode) {
			cache(m)
		}
	}
}

// eval returns the best placement of ready node n under the combo's
// rule and slot policy: the processor minimizing the rule's objective,
// ties toward lower indices, its EST there, and the objective value.
func (e *engine) eval(c Combo, s *sched.Schedule, n dag.NodeID) (proc int32, est, obj int64) {
	insertion := c.Slot == SlotInsertion
	if c.Rule == RuleEST {
		var (
			p  int
			ok bool
		)
		if insertion {
			p, est, ok = s.BestEST(n, true)
		} else {
			p, est, ok = s.BestESTNonInsertion(n)
		}
		if !ok {
			panic("param: ready node has unscheduled parent")
		}
		return int32(p), est, est
	}
	best := -1
	for p := 0; p < s.NumProcs(); p++ {
		pest, ok := s.ESTOn(n, p, insertion)
		if !ok {
			panic("param: ready node has unscheduled parent")
		}
		pobj := pest + s.ExecTime(n, p)
		if best == -1 || pobj < obj {
			best, est, obj = p, pest, pobj
		}
	}
	if c.Rule == RuleDL {
		// The median is a per-node constant: it cannot change the argmin
		// over processors, only the objective value carried into dynamic
		// node selection.
		obj -= e.med[n]
	}
	return int32(best), est, obj
}

// computePrio sets e.prio to the metric's static key: higher keys are
// scheduled first and equal keys go to the smaller node ID, so the
// key is a total order for algo.ReadyHeap.
func (e *engine) computePrio(m Metric, g *dag.Graph) {
	n := g.NumNodes()
	if m == MetricSL || m == MetricDL {
		// Descending static level; MetricDL's static part is the static
		// level, so the two share a key.
		e.prio = e.lv.Static
		return
	}
	e.key = resize(e.key, n)
	switch m {
	case MetricTL:
		// Ascending t-level: earliest possible start first.
		for v := range e.key {
			e.key[v] = -e.lv.T[v]
		}
	case MetricBT:
		// Descending t-level + b-level: critical-path nodes first.
		for v := range e.key {
			e.key[v] = e.lv.T[v] + e.lv.B[v]
		}
	case MetricALAP:
		for i, nd := range algo.ALAPListOrder(g) {
			e.key[nd] = -int64(i)
		}
	default:
		panic("param: unknown metric")
	}
	e.prio = e.key
}

// computeMedians fills e.med with each node's lower median execution
// time across processors, the reference point of RuleDL's objective. On
// a homogeneous schedule this is simply the node weight.
func (e *engine) computeMedians(g *dag.Graph, s *sched.Schedule) {
	e.med = resize(e.med, g.NumNodes())
	if s.Speeds() == nil {
		for v := 0; v < g.NumNodes(); v++ {
			e.med[v] = g.Weight(dag.NodeID(v))
		}
		return
	}
	numProcs := s.NumProcs()
	buf := e.execBuf[:0]
	for v := 0; v < g.NumNodes(); v++ {
		buf = buf[:0]
		for p := 0; p < numProcs; p++ {
			// Insertion sort: numProcs is small (≤ 32 in the study).
			t := s.ExecTime(dag.NodeID(v), p)
			i := len(buf)
			buf = append(buf, t)
			for i > 0 && buf[i-1] > buf[i] {
				buf[i-1], buf[i] = buf[i], buf[i-1]
				i--
			}
		}
		e.med[v] = buf[(numProcs-1)/2]
	}
	e.execBuf = buf
}
