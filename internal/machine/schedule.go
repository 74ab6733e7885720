package machine

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sched"
)

// hopRes is one committed or planned reservation of a message on a
// topology channel. idx is the slot's index on the channel's timeline
// when it was reserved: the hint for its removal, exact whenever the
// reservations made after it are gone.
type hopRes struct {
	ch     int32
	idx    int32
	start  int64
	finish int64
}

// Schedule is a task-and-message schedule on an arbitrary processor
// network. Tasks occupy processor timelines exactly as in the clique
// model — the embedded sched.Tasks holds them, with the placement
// arrays, makespan and speeds; in addition, every cross-processor
// message occupies each directed link channel on its (deterministic
// shortest) route for the full edge cost, store-and-forward, with
// insertion-based slot search.
//
// An EST query routes the node's inbound messages and leaves their
// reservations on the links as the one pending plan, so the Place that
// usually follows commits the plan instead of routing the messages a
// second time. Every other call that changes or reads the links drops
// the plan first, so it is never observable.
//
// A bounded query (ESTWithin) serves the pruned scans, which only need
// to know whether a probe beats the best so far: it stops routing once
// the messages routed so far put the data-ready time past its limit,
// drops their reservations and leaves no plan. Reservations are always
// dropped in the reverse order they were made (a plan last-first, a
// node's committed messages in reverse routing order), so under the
// last-in first-out order of probes and replay rewinds every removal
// finds its slot at the index it was reserved at.
type Schedule struct {
	sched.Tasks
	topo  *Topology
	links []sched.Timeline // indexed by the topology's channel

	// msgs is the dense message store: the committed hops of the message
	// on in-arc i of node n, Preds(n)[i], are msgs[inOff[n]+i]. An
	// uncommitted message has an empty slice, whose backing array the
	// next commit on the arc reuses.
	inOff []int32
	msgs  [][]hopRes
	// routed[inOff[n]:inOff[n]+nRouted[n]] are the arcs of n whose
	// committed messages hold hops, in routing order.
	routed  []int32
	nRouted []int32

	// Query scratch, reused across planInbound calls so the hot
	// ready×processor EST scans of the APN schedulers allocate nothing.
	// qPlan and qHops hold the pending plan; its reservations are on the
	// links while pend is not dag.None.
	qOrder   []int32 // in-arc indices of the queried node, in routing order
	qPlan    []edgePlan
	qHops    []hopRes
	qProcs   []procBound // BestEST's visiting order
	pend     dag.NodeID
	pendProc int
	pendDRT  int64
}

// edgePlan is the planned reservation chain of one inbound message: the
// hops qHops[first:end] for the dense store's arc.
type edgePlan struct {
	arc        int32
	first, end int32
}

// NewSchedule returns an empty schedule for g on the given topology.
func NewSchedule(g *dag.Graph, topo *Topology) *Schedule {
	inOff := make([]int32, g.NumNodes()+1)
	for v := 0; v < g.NumNodes(); v++ {
		inOff[v+1] = inOff[v] + int32(g.InDegree(dag.NodeID(v)))
	}
	return &Schedule{
		Tasks:   sched.NewTasks(g, topo.NumProcs()),
		topo:    topo,
		links:   make([]sched.Timeline, topo.NumChannels()),
		inOff:   inOff,
		msgs:    make([][]hopRes, g.NumEdges()),
		routed:  make([]int32, g.NumEdges()),
		nRouted: make([]int32, g.NumNodes()),
		pend:    dag.None,
	}
}

// Topology returns the processor network.
func (s *Schedule) Topology() *Topology { return s.topo }

// LinkHop is one committed link reservation of a message, exposed for
// consumers that replay schedules (the execution simulator): the
// directed channel it occupies and the reserved interval.
type LinkHop struct {
	// Link is the topology's channel (see Topology.Channel).
	Link int
	// From and To are the channel's endpoint processors.
	From, To int
	// Start and Finish bound the reservation on the link.
	Start, Finish int64
}

// EachMessageHop calls fn for every committed link reservation of the
// message on edge (parent → child), in route order. It calls fn zero
// times when the edge needs no link time (co-located endpoints or a
// zero-cost edge), when the edge is not committed, or when there is no
// such edge. The callback style avoids allocating a hop slice per
// query.
func (s *Schedule) EachMessageHop(parent, child dag.NodeID, fn func(LinkHop)) {
	for i, pr := range s.Graph().Preds(child) {
		if pr.To != parent {
			continue
		}
		for _, h := range s.msgs[s.inOff[child]+int32(i)] {
			from, to := s.topo.Ends(int(h.ch))
			fn(LinkHop{Link: int(h.ch), From: from, To: to, Start: h.start, Finish: h.finish})
		}
		return
	}
}

// LinkSlots returns the message reservations on the directed channel
// from processor u to its neighbor v, in start order. Empty when the
// channel carries no messages or u and v are not linked. The Slot.Node
// field holds the receiving task of each message.
func (s *Schedule) LinkSlots(u, v int) []sched.Slot {
	s.DiscardPlan()
	c := s.topo.Channel(u, v)
	if c < 0 {
		return nil
	}
	return s.links[c].Slots()
}

// DiscardPlan removes the pending plan of the last EST query from the
// links. Every method that changes or reads the links calls it first;
// the APN schedulers call it before they return a schedule, so reading
// a finished schedule writes nothing. It is a no-op without a plan.
func (s *Schedule) DiscardPlan() {
	if s.pend == dag.None {
		return
	}
	for k := len(s.qHops) - 1; k >= 0; k-- {
		h := s.qHops[k]
		s.links[h.ch].RemoveHinted(s.pend, h.start, int(h.idx))
	}
	s.pend = dag.None
}

// planEdge routes the message for edge (parent -> child of weight c),
// which needs link time, from processor src to destination processor
// dst, reserving each hop on its channel as soon as it is planned, so
// that the hops of messages planned later in the same query see it as an
// ordinary slot. The reserved hops are appended to the qHops arena; the
// result is the data arrival time at dst. A shortest route never visits
// a channel twice, so the hops of one message cannot conflict with each
// other.
func (s *Schedule) planEdge(parent, child dag.NodeID, c int64, src, dst int) int64 {
	ready := s.FinishOf(parent)
	for _, ch := range s.topo.route(src, dst) {
		start, idx := s.links[ch].Reserve(child, ready, c)
		s.qHops = append(s.qHops, hopRes{ch: ch, idx: int32(idx), start: start, finish: start + c})
		ready = start + c
	}
	return ready
}

// plan makes the messages from all of n's parents to processor p the
// pending plan and returns their data-ready time. It keeps the pending
// plan when that is already (n, p); otherwise it discards it and routes
// the messages that take link time in a deterministic order (parents by
// ascending finish time, then ID), reserving their hops on the link
// timelines. A co-located parent or a zero-cost edge contributes its
// bare finish. ok is false, and nothing is pending, when some parent is
// unscheduled.
//
// Routing stops as soon as the messages routed so far put the data-ready
// time past limit: the reservations made so far are dropped, nothing is
// pending, and the result is that partial data-ready time, which exceeds
// limit.
func (s *Schedule) plan(n dag.NodeID, p int, limit int64) (drt int64, ok bool) {
	if s.pend == n && s.pendProc == p {
		return s.pendDRT, true
	}
	s.DiscardPlan()
	preds := s.Graph().Preds(n)
	// Insertion sort the routed in-arcs into the reused order scratch.
	// The (finish, ID) key is a total order — IDs are unique — so the
	// result is the same permutation any sort would produce.
	order := s.qOrder[:0]
	for i, pr := range preds {
		src := s.ProcOf(pr.To)
		if src < 0 {
			s.qOrder = order
			return 0, false
		}
		fi := s.FinishOf(pr.To)
		if src == p || pr.Weight == 0 {
			drt = max(drt, fi)
			continue
		}
		j := len(order)
		order = append(order, int32(i))
		for ; j > 0; j-- {
			prev := preds[order[j-1]].To
			if fp := s.FinishOf(prev); fp < fi || (fp == fi && prev < pr.To) {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	s.qOrder = order
	plan := s.qPlan[:0]
	s.qHops = s.qHops[:0]
	s.pend, s.pendProc = n, p // DiscardPlan drops a partial plan
	for _, i := range order {
		if drt > limit {
			break
		}
		pr := preds[i]
		first := int32(len(s.qHops))
		drt = max(drt, s.planEdge(pr.To, n, pr.Weight, s.ProcOf(pr.To), p))
		plan = append(plan, edgePlan{arc: s.inOff[n] + i, first: first, end: int32(len(s.qHops))})
	}
	s.qPlan = plan
	if drt > limit {
		s.DiscardPlan()
		return drt, true
	}
	s.pendDRT = drt
	return drt, true
}

// ESTOn returns the earliest start time of n on processor p under the
// routed message model. The routed messages stay reserved as the
// pending plan, which a following Place of n on p commits.
func (s *Schedule) ESTOn(n dag.NodeID, p int, insertion bool) (int64, bool) {
	return s.ESTWithin(n, p, insertion, math.MaxInt64)
}

// ESTWithin is ESTOn bounded by limit, for scans that only need a probe
// that beats the best so far: it returns the exact EST, with the plan
// pending, when that is at most limit. Otherwise it returns some value
// above limit and leaves no plan, and it stops routing as soon as the
// messages routed so far put the data-ready time past limit.
func (s *Schedule) ESTWithin(n dag.NodeID, p int, insertion bool, limit int64) (int64, bool) {
	est, ok := s.plan(n, p, limit)
	if !ok {
		return 0, false
	}
	if est <= limit {
		est = s.EarliestFit(p, est, s.ExecTime(n, p), insertion)
	}
	if est > limit {
		s.DiscardPlan() // a kept plan for (n, p) can lose too
	}
	return est, true
}

// ESTLowerBound returns a lower bound on ESTOn(n, p, false) that routes
// no message: the later of p's last finish and DataReadyLowerBound(n,
// p). ok is false when some parent is unscheduled, exactly as for ESTOn.
func (s *Schedule) ESTLowerBound(n dag.NodeID, p int) (int64, bool) {
	drt, ok := s.DataReadyLowerBound(n, p)
	if !ok {
		return 0, false
	}
	return max(s.LastFinish(p), drt), true
}

// DataReadyLowerBound returns a lower bound on n's data-ready time on p
// that routes no message: over n's parents, the latest parent finish
// plus the edge cost times the hop count from its processor to p, 0
// without parents. Under store-and-forward every hop of a message takes
// the full edge cost and starts only after the previous hop ends, so no
// routing delivers a message sooner; a co-located parent or a zero-cost
// edge contributes the parent's bare finish. It depends only on the
// parents' placements. ok is false when some parent is unscheduled.
func (s *Schedule) DataReadyLowerBound(n dag.NodeID, p int) (int64, bool) {
	var drt int64
	for _, pr := range s.Graph().Preds(n) {
		src := s.ProcOf(pr.To)
		if src < 0 {
			return 0, false
		}
		drt = max(drt, s.FinishOf(pr.To)+pr.Weight*int64(s.topo.Dist(src, p)))
	}
	return drt, true
}

// procBound is a processor with the lower bound on a node's start there.
type procBound struct {
	proc int
	lb   int64
}

// BestEST returns the processor with the smallest non-insertion EST for
// n, ties toward lower processor indices. It visits the processors by
// ascending (ESTLowerBound, index) and routes n's messages to one only
// while its bound can still beat the best (EST, index) so far, and only
// until they show that it cannot (ESTWithin), so the result is the
// exhaustive scan's and the winner is often the last plan routed, which
// the following Place commits. ok is false when some parent is
// unscheduled.
func (s *Schedule) BestEST(n dag.NodeID) (proc int, est int64, ok bool) {
	ps := s.qProcs[:0]
	for p := 0; p < s.NumProcs(); p++ {
		lb, k := s.ESTLowerBound(n, p)
		if !k {
			return -1, 0, false
		}
		i := len(ps)
		ps = append(ps, procBound{proc: p, lb: lb})
		for ; i > 0 && ps[i-1].lb > lb; i-- {
			ps[i-1], ps[i] = ps[i], ps[i-1]
		}
	}
	s.qProcs = ps
	proc = -1
	for _, c := range ps {
		limit := int64(math.MaxInt64)
		if proc >= 0 {
			if c.lb > est || (c.lb == est && c.proc > proc) {
				break // neither this processor nor a later one can win
			}
			limit = est - 1 // c must start earlier, or tie from a lower index
			if c.proc < proc {
				limit = est
			}
		}
		e, _ := s.ESTWithin(n, c.proc, false, limit)
		if e <= limit {
			proc, est = c.proc, e
		}
	}
	return proc, est, true
}

// Place schedules n on processor p at the given start time, committing
// the message reservations of all inbound edges: the pending plan when
// the last EST query was for n on p, freshly routed ones otherwise. The
// start time must be at or after the data-ready time.
func (s *Schedule) Place(n dag.NodeID, p int, start int64) error {
	return s.place(n, p, start, true)
}

// place is Place with the decision record optional: a replay that
// restores placements it already committed once (see Replay.Migrate)
// does not trace them again.
func (s *Schedule) place(n dag.NodeID, p int, start int64, trace bool) error {
	if err := s.CheckPlace(n, p, start); err != nil {
		s.DiscardPlan()
		return err
	}
	finish := start + s.ExecTime(n, p)
	if t := obs.ActiveTracer(); trace && t != nil && t.InRun() {
		// Candidate probing replaces the pending plan; plan below routes
		// n's messages again unless the last probe was for p.
		s.TracePlacement(t, n, p, start, finish, s.ESTOn)
	}
	drt, ok := s.plan(n, p, math.MaxInt64)
	if !ok {
		return fmt.Errorf("machine: node %d has unscheduled parents", n)
	}
	if start < drt {
		s.DiscardPlan()
		return fmt.Errorf("machine: node %d start %d before data-ready %d on P%d", n, start, drt, p)
	}
	if err := s.Tasks.Place(n, p, start, finish); err != nil {
		s.DiscardPlan()
		return err
	}
	// The plan's reservations stay on the links as the committed
	// messages; copy their hops into the store's reused slots.
	for j, ep := range s.qPlan {
		s.msgs[ep.arc] = append(s.msgs[ep.arc][:0], s.qHops[ep.first:ep.end]...)
		s.routed[s.inOff[n]+int32(j)] = ep.arc
	}
	s.nRouted[n] = int32(len(s.qPlan))
	s.pend = dag.None
	return nil
}

// MustPlace is Place that panics on error, for use by schedulers after a
// successful EST query.
func (s *Schedule) MustPlace(n dag.NodeID, p int, start int64) {
	if err := s.Place(n, p, start); err != nil {
		panic(err)
	}
}

// Unplace removes n and its inbound message reservations. It returns an
// error when a child of n is already scheduled, because the child's
// committed messages would become dangling.
func (s *Schedule) Unplace(n dag.NodeID) error {
	if !s.IsScheduled(n) {
		return nil
	}
	for _, a := range s.Graph().Succs(n) {
		if s.IsScheduled(a.To) {
			return fmt.Errorf("machine: cannot unplace node %d: child %d is scheduled", n, a.To)
		}
	}
	s.DiscardPlan()
	// Drop the hops in the reverse of the order they were reserved.
	for j := s.inOff[n] + s.nRouted[n] - 1; j >= s.inOff[n]; j-- {
		arc := s.routed[j]
		hops := s.msgs[arc]
		for k := len(hops) - 1; k >= 0; k-- {
			s.links[hops[k].ch].RemoveHinted(n, hops[k].start, int(hops[k].idx))
		}
		s.msgs[arc] = hops[:0]
	}
	s.nRouted[n] = 0
	s.Tasks.Unplace(n)
	return nil
}

// Validate checks the processor side (see sched.Tasks.Validate), link
// timelines, and that every scheduled node starts only after all parent
// data has arrived — locally for co-located parents, and through a
// complete, route-consistent chain of link reservations for remote
// parents.
func (s *Schedule) Validate() error {
	s.DiscardPlan()
	if err := s.Tasks.Validate(); err != nil {
		return err
	}
	for c := range s.links {
		if err := s.links[c].Validate(); err != nil {
			from, to := s.topo.Ends(c)
			return fmt.Errorf("machine: link %d->%d: %w", from, to, err)
		}
	}
	g := s.Graph()
	for v := 0; v < g.NumNodes(); v++ {
		n := dag.NodeID(v)
		if !s.IsScheduled(n) {
			continue
		}
		for i, pr := range g.Preds(n) {
			if !s.IsScheduled(pr.To) {
				return fmt.Errorf("machine: node %d scheduled before parent %d", n, pr.To)
			}
			if err := s.validateEdge(pr.To, n, pr.Weight, s.msgs[s.inOff[n]+int32(i)]); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateEdge checks the message on edge (parent -> child of weight c)
// whose committed hops are hops.
func (s *Schedule) validateEdge(parent, child dag.NodeID, c int64, hops []hopRes) error {
	srcP, dstP := s.ProcOf(parent), s.ProcOf(child)
	if srcP == dstP || c == 0 {
		if s.StartOf(child) < s.FinishOf(parent) {
			return fmt.Errorf("machine: node %d starts before parent %d finishes", child, parent)
		}
		return nil
	}
	route := s.topo.route(srcP, dstP)
	if len(hops) != len(route) {
		return fmt.Errorf("machine: edge (%d,%d) has %d hops, route needs %d",
			parent, child, len(hops), len(route))
	}
	prev := s.FinishOf(parent)
	for i, h := range hops {
		if h.ch != route[i] {
			gf, gt := s.topo.Ends(int(h.ch))
			wf, wt := s.topo.Ends(int(route[i]))
			return fmt.Errorf("machine: edge (%d,%d) hop %d uses link %d->%d, route says %d->%d",
				parent, child, i, gf, gt, wf, wt)
		}
		if h.start < prev {
			return fmt.Errorf("machine: edge (%d,%d) hop %d starts %d before data ready %d",
				parent, child, i, h.start, prev)
		}
		if h.finish-h.start != c {
			return fmt.Errorf("machine: edge (%d,%d) hop %d duration %d != cost %d",
				parent, child, i, h.finish-h.start, c)
		}
		if s.links[h.ch].Index(child, h.start) < 0 {
			return fmt.Errorf("machine: edge (%d,%d) hop %d reservation missing from link timeline",
				parent, child, i)
		}
		prev = h.finish
	}
	if s.StartOf(child) < prev {
		return fmt.Errorf("machine: node %d starts %d before message from %d arrives %d",
			child, s.StartOf(child), parent, prev)
	}
	return nil
}

// String renders the processor timelines under a header naming the
// topology.
func (s *Schedule) String() string {
	return fmt.Sprintf("apn schedule length=%d procs=%d topo=%s\n",
		s.Length(), s.ProcessorsUsed(), s.topo.Name()) + s.Tasks.String()
}
