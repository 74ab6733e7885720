package machine

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dag"
)

// ReplaySequencesHet builds a complete schedule from an assignment
// expressed as one execution sequence per processor. It repeatedly
// places, among the heads of the remaining sequences whose parents are
// all scheduled, the node with the smallest earliest start time (ties
// toward the lower node ID), using non-insertion placement so each
// processor runs its sequence in the given order.
//
// The optional speed vector (one positive factor per processor, nil for
// uniform) is applied to the schedule before any placement, so both the
// earliest-start selection and the committed execution times are
// speed-aware.
//
// Fixed-assignment algorithms (BU) use it to derive a consistent
// task-and-message schedule; migration-style ones (BSA) keep the Replay
// it is built on and revise it with Replay.Migrate.
func ReplaySequencesHet(g *dag.Graph, topo *Topology, seqs [][]dag.NodeID, speeds []float64) (*Schedule, error) {
	r, err := NewReplay(g, topo, seqs, speeds)
	if err != nil {
		return nil, err
	}
	return r.Schedule(), nil
}

// step is one placement of a replay: node committed on proc at start.
type step struct {
	node  dag.NodeID
	proc  int
	start int64
}

// head is an eligible sequence head with the lower bound on its start.
type head struct {
	node dag.NodeID
	proc int
	lb   int64
}

// Replay is the sequence-replay engine behind ReplaySequencesHet. It
// keeps the log of its placements, so a migration that changes two
// sequences rewinds the schedule (Unplace in reverse order) to the
// first step the change can affect and replays only the suffix after
// it.
type Replay struct {
	s     *Schedule
	seqs  [][]dag.NodeID
	idx   []int  // per processor: the placed prefix length of its sequence
	log   []step // the placements, in replay order
	at    []int  // node -> its index in log
	saved []step // the suffix a migration rewound, kept to restore it
	heads []head // scratch of next
}

// NewReplay validates the sequences, which it copies, and replays them
// into a complete schedule (see ReplaySequencesHet).
func NewReplay(g *dag.Graph, topo *Topology, seqs [][]dag.NodeID, speeds []float64) (*Replay, error) {
	if len(seqs) != topo.NumProcs() {
		return nil, fmt.Errorf("machine: %d sequences for %d processors", len(seqs), topo.NumProcs())
	}
	seen := make([]bool, g.NumNodes())
	total := 0
	for _, q := range seqs {
		for _, n := range q {
			if n < 0 || int(n) >= g.NumNodes() {
				return nil, fmt.Errorf("machine: sequence references unknown node %d", n)
			}
			if seen[n] {
				return nil, fmt.Errorf("machine: node %d appears twice in sequences", n)
			}
			seen[n] = true
			total++
		}
	}
	if total != g.NumNodes() {
		return nil, fmt.Errorf("machine: sequences cover %d of %d nodes", total, g.NumNodes())
	}

	s := NewSchedule(g, topo)
	if speeds != nil {
		if err := s.SetSpeeds(speeds); err != nil {
			return nil, err
		}
	}
	r := &Replay{
		s:    s,
		seqs: make([][]dag.NodeID, len(seqs)),
		idx:  make([]int, len(seqs)),
		log:  make([]step, 0, g.NumNodes()),
		at:   make([]int, g.NumNodes()),
	}
	for p, q := range seqs {
		r.seqs[p] = slices.Clone(q)
	}
	if _, err := r.advance(dag.None, 0, math.MaxInt64); err != nil {
		return nil, err
	}
	return r, nil
}

// Schedule returns the replayed schedule. It is the replay's own and
// changes in place with every accepted Migrate.
func (r *Replay) Schedule() *Schedule { return r.s }

// Sequence returns processor p's execution sequence. The slice is
// shared with the replay and must not be modified.
func (r *Replay) Sequence(p int) []dag.NodeID { return r.seqs[p] }

// Migrate moves node n from its processor to processor to, inserted at
// index pos of to's sequence, and keeps the move when n then starts
// strictly earlier and the makespan does not grow — BSA's acceptance
// rule. Otherwise it restores the previous sequences and schedule
// exactly and reports false.
//
// It rewinds to the divergence step (see divergence), replays the
// changed sequences from there, and stops as soon as n starts no
// earlier than before or the makespan, which a replay only grows,
// exceeds the old one. A rejected move is undone by rewinding again and
// re-committing the logged suffix without tracing it, so a decision
// trace holds only the placements each candidate actually replayed.
func (r *Replay) Migrate(n dag.NodeID, to, pos int) bool {
	from := r.s.ProcOf(n)
	if from < 0 || from == to {
		return false
	}
	i := slices.Index(r.seqs[from], n)
	d := r.divergence(n, from, i, to, pos)
	oldStart, oldLen := r.s.StartOf(n), r.s.Length()
	r.saved = append(r.saved[:0], r.log[d:]...)
	r.rewind(d)
	// Steps before d placed neither n nor the node at to[pos], so every
	// processor's placed prefix is the same in the moved sequences.
	r.seqs[from] = slices.Delete(r.seqs[from], i, i+1)
	r.seqs[to] = slices.Insert(r.seqs[to], pos, n)
	stopped, err := r.advance(n, oldStart, oldLen)
	if err == nil && !stopped {
		return true
	}
	r.rewind(d)
	r.seqs[to] = slices.Delete(r.seqs[to], pos, pos+1)
	r.seqs[from] = slices.Insert(r.seqs[from], i, n)
	for _, e := range r.saved {
		r.commit(e, false)
	}
	return false
}

// divergence returns the first step at which the replay of the
// sequences with n moved from index i of from's sequence to index pos
// of to's can decide differently from the logged one. A step picks the
// argmin over the eligible heads, and the heads differ only on from and
// to:
//   - on from, n heads the old sequence from the step after its
//     predecessor's placement until its own at[n]; the new head, n's
//     successor, can win only once its parents are placed;
//   - on to, the old head m displaced by n is picked at at[m]; n heads
//     the new sequence from the step after its new predecessor's
//     placement and can win only once its own parents are placed.
//
// Before the returned step, every differing head is either never the
// argmin or not yet eligible, so each step repeats the log.
func (r *Replay) divergence(n dag.NodeID, from, i, to, pos int) int {
	src, dst := r.seqs[from], r.seqs[to]
	d := r.at[n]
	if i+1 < len(src) {
		d = min(d, max(r.headFrom(src, i), r.readyStep(src[i+1])))
	}
	dq := max(r.headFrom(dst, pos), r.readyStep(n))
	if pos < len(dst) {
		dq = min(dq, r.at[dst[pos]])
	}
	return min(d, dq)
}

// headFrom returns the step from which index i of seq heads it: one past
// the placement of seq[i-1], 0 for the first index.
func (r *Replay) headFrom(seq []dag.NodeID, i int) int {
	if i == 0 {
		return 0
	}
	return r.at[seq[i-1]] + 1
}

// readyStep returns the first step at which every parent of n is placed:
// one past the latest parent's step, 0 for an entry node.
func (r *Replay) readyStep(n dag.NodeID) int {
	k := 0
	for _, pr := range r.s.Graph().Preds(n) {
		k = max(k, r.at[pr.To]+1)
	}
	return k
}

// advance places the head with the smallest (EST, node ID), step by
// step, until every node is placed. It stops early, reporting true,
// right after placing watch at or after watchStart, or once the
// makespan exceeds maxLen. It fails when no head is eligible.
func (r *Replay) advance(watch dag.NodeID, watchStart, maxLen int64) (stopped bool, err error) {
	for len(r.log) < len(r.at) {
		e, ok := r.next()
		if !ok {
			return false, fmt.Errorf("machine: sequences deadlock after %d placements "+
				"(per-processor order conflicts with precedence)", len(r.log))
		}
		r.commit(e, true)
		if (e.node == watch && e.start >= watchStart) || r.s.Length() > maxLen {
			return true, nil
		}
	}
	return false, nil
}

// next returns the placement of the next replay step: the eligible head
// with the smallest (EST, node ID). It visits the heads by ascending
// (ESTLowerBound, node ID) and routes a head's messages only while its
// bound can still beat the best so far, bounded (ESTWithin) by the start
// it must reach to win; ok is false when no head is eligible.
func (r *Replay) next() (e step, ok bool) {
	hs := r.heads[:0]
	for p, q := range r.seqs {
		if r.idx[p] >= len(q) {
			continue
		}
		n := q[r.idx[p]]
		lb, eligible := r.s.ESTLowerBound(n, p)
		if !eligible {
			continue // a parent is not scheduled yet
		}
		i := len(hs)
		hs = append(hs, head{node: n, proc: p, lb: lb})
		for ; i > 0 && (hs[i-1].lb > lb || (hs[i-1].lb == lb && hs[i-1].node > n)); i-- {
			hs[i-1], hs[i] = hs[i], hs[i-1]
		}
	}
	r.heads = hs
	for _, h := range hs {
		limit := int64(math.MaxInt64)
		if ok {
			if h.lb > e.start || (h.lb == e.start && h.node > e.node) {
				break // neither this head nor a later one can win
			}
			limit = e.start - 1 // h must start earlier, or tie with a lower ID
			if h.node < e.node {
				limit = e.start
			}
		}
		if est, _ := r.s.ESTWithin(h.node, h.proc, false, limit); est <= limit {
			e, ok = step{node: h.node, proc: h.proc, start: est}, true
		}
	}
	return e, ok
}

// commit places e and logs it.
func (r *Replay) commit(e step, trace bool) {
	if err := r.s.place(e.node, e.proc, e.start, trace); err != nil {
		panic(fmt.Sprintf("machine: replay placement: %v", err))
	}
	r.at[e.node] = len(r.log)
	r.log = append(r.log, e)
	r.idx[e.proc]++
}

// rewind unplaces the logged steps from the last back to step d.
func (r *Replay) rewind(d int) {
	for k := len(r.log) - 1; k >= d; k-- {
		e := r.log[k]
		if err := r.s.Unplace(e.node); err != nil {
			panic(fmt.Sprintf("machine: replay rewind: %v", err))
		}
		r.idx[e.proc]--
	}
	r.log = r.log[:d]
}
