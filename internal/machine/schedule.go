package machine

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sched"
)

// edgeKey identifies one task-graph edge whose message has been committed.
type edgeKey struct {
	parent, child dag.NodeID
}

// hopRes is one committed or planned reservation of a message on a
// topology channel.
type hopRes struct {
	ch     int32
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
type Schedule struct {
	sched.Tasks
	topo  *Topology
	links []sched.Timeline // indexed by the topology's channel
	msgs  map[edgeKey][]hopRes

	// Query scratch, reused across planInbound calls so the hot
	// ready×processor EST scans of the APN schedulers allocate nothing.
	// A plan's hop slices point into qHops and stay readable until the
	// next query; Place copies the hops it commits.
	qOrder []dag.Arc
	qPlan  []edgePlan
	qHops  []hopRes
}

// NewSchedule returns an empty schedule for g on the given topology.
func NewSchedule(g *dag.Graph, topo *Topology) *Schedule {
	return &Schedule{
		Tasks: sched.NewTasks(g, topo.NumProcs()),
		topo:  topo,
		links: make([]sched.Timeline, topo.NumChannels()),
		msgs:  make(map[edgeKey][]hopRes),
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
// zero-cost edge) or when the edge is not committed. The callback
// style avoids allocating a hop slice per query.
func (s *Schedule) EachMessageHop(parent, child dag.NodeID, fn func(LinkHop)) {
	for _, h := range s.msgs[edgeKey{parent, child}] {
		from, to := s.topo.Ends(int(h.ch))
		fn(LinkHop{Link: int(h.ch), From: from, To: to, Start: h.start, Finish: h.finish})
	}
}

// LinkSlots returns the message reservations on the directed channel
// from processor u to its neighbor v, in start order. Empty when the
// channel carries no messages or u and v are not linked. The Slot.Node
// field holds the receiving task of each message.
func (s *Schedule) LinkSlots(u, v int) []sched.Slot {
	c := s.topo.Channel(u, v)
	if c < 0 {
		return nil
	}
	return s.links[c].Slots()
}

// planEdge routes the message for edge (parent -> child of weight c) to
// destination processor dst, reserving each hop on its channel as soon
// as it is planned, so that the hops of messages planned later in the
// same query see it as an ordinary slot. The reserved hops are appended
// to the qHops arena; the returned pair is the data arrival time at dst
// and the arena index the hops start at (len(qHops) when no link time is
// needed). A shortest route never visits a channel twice, so the hops
// of one message cannot conflict with each other.
func (s *Schedule) planEdge(parent, child dag.NodeID, c int64, dst int) (int64, int) {
	src := s.ProcOf(parent)
	ready := s.FinishOf(parent)
	first := len(s.qHops)
	if src == dst || c == 0 {
		return ready, first
	}
	for _, ch := range s.topo.route(src, dst) {
		tl := &s.links[ch]
		start := tl.EarliestFit(ready, c, true)
		if err := tl.Insert(sched.Slot{Node: child, Start: start, Finish: start + c}); err != nil {
			panic(fmt.Sprintf("machine: internal link conflict: %v", err))
		}
		s.qHops = append(s.qHops, hopRes{ch: ch, start: start, finish: start + c})
		ready = start + c
	}
	return ready, first
}

// unreserve removes the link reservations in hops, all of which carry
// messages to n.
func (s *Schedule) unreserve(n dag.NodeID, hops []hopRes) {
	for _, h := range hops {
		s.links[h.ch].Remove(n, h.start)
	}
}

// edgePlan is the planned reservation chain of one inbound edge.
type edgePlan struct {
	key  edgeKey
	hops []hopRes
}

// planInbound plans the messages from all of n's parents to processor p
// in a deterministic order (parents by ascending finish time, then ID),
// reserving their hops on the link timelines, and returns the overall
// data-ready time plus the per-edge hop plan. ok is false, and nothing
// is reserved, when some parent is unscheduled. The caller either keeps
// the reservations (Place) or unreserves s.qHops. The plan aliases the
// schedule's query scratch and is valid until the next planInbound
// call; Place copies what it commits.
func (s *Schedule) planInbound(n dag.NodeID, p int) (drt int64, plan []edgePlan, ok bool) {
	preds := s.Graph().Preds(n)
	for _, pr := range preds {
		if !s.IsScheduled(pr.To) {
			return 0, nil, false
		}
	}
	// Insertion sort into the reused order scratch. The (finish, ID) key
	// is a total order — IDs are unique — so the result is the same
	// permutation any sort would produce.
	order := s.qOrder[:0]
	for _, pr := range preds {
		i := len(order)
		order = append(order, pr)
		for i > 0 {
			fi, fj := s.FinishOf(order[i-1].To), s.FinishOf(order[i].To)
			if fi < fj || (fi == fj && order[i-1].To < order[i].To) {
				break
			}
			order[i-1], order[i] = order[i], order[i-1]
			i--
		}
	}
	s.qOrder = order
	plan = s.qPlan[:0]
	s.qHops = s.qHops[:0]
	for _, pr := range order {
		arrival, first := s.planEdge(pr.To, n, pr.Weight, p)
		if hops := s.qHops[first:]; len(hops) > 0 {
			plan = append(plan, edgePlan{key: edgeKey{pr.To, n}, hops: hops})
		}
		if arrival > drt {
			drt = arrival
		}
	}
	s.qPlan = plan
	return drt, plan, true
}

// ESTOn returns the earliest start time of n on processor p under the
// routed message model.
func (s *Schedule) ESTOn(n dag.NodeID, p int, insertion bool) (int64, bool) {
	drt, _, ok := s.planInbound(n, p)
	if !ok {
		return 0, false
	}
	s.unreserve(n, s.qHops)
	return s.EarliestFit(p, drt, s.ExecTime(n, p), insertion), true
}

// ESTLowerBound returns a lower bound on ESTOn(n, p, false) that routes
// no message: the later of p's last finish and, over n's parents, the
// parent's finish plus the edge cost times the hop count from its
// processor to p. Under store-and-forward every hop of a message takes
// the full edge cost and starts only after the previous hop ends, so no
// routing delivers a message sooner; a co-located parent or a zero-cost
// edge contributes the parent's bare finish. ok is false when some
// parent is unscheduled, exactly as for ESTOn.
func (s *Schedule) ESTLowerBound(n dag.NodeID, p int) (int64, bool) {
	lb := s.LastFinish(p)
	for _, pr := range s.Graph().Preds(n) {
		src := s.ProcOf(pr.To)
		if src < 0 {
			return 0, false
		}
		if t := s.FinishOf(pr.To) + pr.Weight*int64(s.topo.Dist(src, p)); t > lb {
			lb = t
		}
	}
	return lb, true
}

// BestEST returns the processor with the smallest EST for n, ties toward
// lower processor indices.
func (s *Schedule) BestEST(n dag.NodeID, insertion bool) (proc int, est int64, ok bool) {
	proc = -1
	for p := 0; p < s.NumProcs(); p++ {
		e, k := s.ESTOn(n, p, insertion)
		if !k {
			return -1, 0, false
		}
		if proc == -1 || e < est {
			proc, est = p, e
		}
	}
	return proc, est, true
}

// Place schedules n on processor p at the given start time, committing
// the message reservations of all inbound edges. The start time must be
// at or after the planned data-ready time.
func (s *Schedule) Place(n dag.NodeID, p int, start int64) error {
	return s.place(n, p, start, true)
}

// place is Place with the decision record optional: a replay that
// restores placements it already committed once (see Replay.Migrate)
// does not trace them again.
func (s *Schedule) place(n dag.NodeID, p int, start int64, trace bool) error {
	if err := s.CheckPlace(n, p, start); err != nil {
		return err
	}
	finish := start + s.ExecTime(n, p)
	if t := obs.ActiveTracer(); trace && t != nil && t.InRun() {
		// Must precede planInbound: candidate probing reuses the query
		// scratch the committed plan aliases, and it must not see this
		// placement's own reservations.
		s.TracePlacement(t, n, p, start, finish, s.ESTOn)
	}
	drt, plan, ok := s.planInbound(n, p)
	if !ok {
		return fmt.Errorf("machine: node %d has unscheduled parents", n)
	}
	if start < drt {
		s.unreserve(n, s.qHops)
		return fmt.Errorf("machine: node %d start %d before data-ready %d on P%d", n, start, drt, p)
	}
	if err := s.Tasks.Place(n, p, start, finish); err != nil {
		s.unreserve(n, s.qHops)
		return err
	}
	// The plan's reservations stay on the links; commit an owned copy of
	// its hops, which alias the query scratch.
	for _, ep := range plan {
		s.msgs[ep.key] = append([]hopRes(nil), ep.hops...)
	}
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
	for _, pr := range s.Graph().Preds(n) {
		key := edgeKey{pr.To, n}
		s.unreserve(n, s.msgs[key])
		delete(s.msgs, key)
	}
	s.Tasks.Unplace(n)
	return nil
}

// Validate checks the processor side (see sched.Tasks.Validate), link
// timelines, and that every scheduled node starts only after all parent
// data has arrived — locally for co-located parents, and through a
// complete, route-consistent chain of link reservations for remote
// parents.
func (s *Schedule) Validate() error {
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
		for _, pr := range g.Preds(n) {
			if !s.IsScheduled(pr.To) {
				return fmt.Errorf("machine: node %d scheduled before parent %d", n, pr.To)
			}
			if err := s.validateEdge(pr.To, n, pr.Weight); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Schedule) validateEdge(parent, child dag.NodeID, c int64) error {
	srcP, dstP := s.ProcOf(parent), s.ProcOf(child)
	if srcP == dstP || c == 0 {
		if s.StartOf(child) < s.FinishOf(parent) {
			return fmt.Errorf("machine: node %d starts before parent %d finishes", child, parent)
		}
		return nil
	}
	hops := s.msgs[edgeKey{parent, child}]
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
		found := false
		for _, sl := range s.links[h.ch].Slots() {
			if sl.Node == child && sl.Start == h.start {
				found = true
				break
			}
		}
		if !found {
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
