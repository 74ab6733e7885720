// Package dag implements the weighted directed acyclic task-graph model
// used throughout the repository: the "macro-dataflow graph" of Kwok and
// Ahmad, "Benchmarking the Task Graph Scheduling Algorithms" (IPPS 1998),
// section 2.
//
// A node represents a task with a computation cost; a directed edge
// represents a precedence constraint with a communication cost that is
// incurred only when the two incident tasks execute on different
// processors. Graphs are built with a Builder and are immutable after
// Build, which lets every scheduling algorithm share one graph safely
// across goroutines.
//
// All costs and times are int64. Integer arithmetic keeps schedule
// validation exact; fractional measures such as NSL and CCR are derived
// at the metrics layer.
package dag

import (
	"errors"
	"fmt"
	"slices"
)

// NodeID identifies a node within one Graph. IDs are dense: a graph with
// n nodes uses IDs 0..n-1 in insertion order.
type NodeID int32

// None is the sentinel NodeID used where "no node" must be representable.
const None NodeID = -1

// Arc is one directed adjacency entry. In a successor list, To is the
// child and Weight the communication cost of the edge to it; in a
// predecessor list, To is the parent.
type Arc struct {
	To     NodeID
	Weight int64
}

// Graph is an immutable weighted DAG. The zero value is an empty graph;
// use a Builder to construct a non-empty one.
//
// Adjacency is stored in compressed sparse row (CSR) form: all successor
// arcs live in one shared backing array indexed by per-node offsets, and
// likewise for predecessor arcs. Schedulers iterate adjacency in their
// innermost loops, so the flat layout keeps those scans cache-friendly
// and costs two allocations per graph instead of two per node.
type Graph struct {
	weight   []int64
	label    []string
	succArcs []Arc
	succOff  []int32
	predArcs []Arc
	predOff  []int32
	topo     []NodeID
	numEdges int
}

// NumNodes returns the number of tasks in the graph.
func (g *Graph) NumNodes() int { return len(g.weight) }

// NumEdges returns the number of precedence edges in the graph.
func (g *Graph) NumEdges() int { return g.numEdges }

// Weight returns the computation cost of node n.
func (g *Graph) Weight(n NodeID) int64 { return g.weight[n] }

// Label returns the optional human-readable label of node n ("" if unset).
// Graphs without any labels keep no per-node label storage at all.
func (g *Graph) Label(n NodeID) string {
	if g.label == nil {
		return ""
	}
	return g.label[n]
}

// Succs returns the successor arcs of n. The returned slice is shared
// with the graph and must not be modified.
func (g *Graph) Succs(n NodeID) []Arc { return g.succArcs[g.succOff[n]:g.succOff[n+1]] }

// Preds returns the predecessor arcs of n. The returned slice is shared
// with the graph and must not be modified.
func (g *Graph) Preds(n NodeID) []Arc { return g.predArcs[g.predOff[n]:g.predOff[n+1]] }

// OutDegree returns the number of children of n.
func (g *Graph) OutDegree(n NodeID) int { return int(g.succOff[n+1] - g.succOff[n]) }

// InDegree returns the number of parents of n.
func (g *Graph) InDegree(n NodeID) int { return int(g.predOff[n+1] - g.predOff[n]) }

// EdgeWeight returns the communication cost of edge (u,v) and whether the
// edge exists.
func (g *Graph) EdgeWeight(u, v NodeID) (int64, bool) {
	for _, a := range g.Succs(u) {
		if a.To == v {
			return a.Weight, true
		}
	}
	return 0, false
}

// HasEdge reports whether the edge (u,v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.EdgeWeight(u, v)
	return ok
}

// TopoOrder returns a topological order of the nodes. The returned slice
// is a copy and may be modified by the caller.
func (g *Graph) TopoOrder() []NodeID {
	out := make([]NodeID, len(g.topo))
	copy(out, g.topo)
	return out
}

// topoOrder returns the cached topological order without copying. For
// package-internal use where the caller promises not to mutate it.
func (g *Graph) topoOrder() []NodeID { return g.topo }

// Entries returns the nodes with no predecessors, in ID order.
func (g *Graph) Entries() []NodeID {
	return zeroDegreeNodes(g.NumNodes(), g.predOff)
}

// Exits returns the nodes with no successors, in ID order.
func (g *Graph) Exits() []NodeID {
	return zeroDegreeNodes(g.NumNodes(), g.succOff)
}

// zeroDegreeNodes returns the nodes whose CSR offset row is empty. A
// counting pass sizes the result exactly, so the caller gets one
// allocation instead of a grow-by-append sequence.
func zeroDegreeNodes(n int, off []int32) []NodeID {
	count := 0
	for v := 0; v < n; v++ {
		if off[v] == off[v+1] {
			count++
		}
	}
	out := make([]NodeID, 0, count)
	for v := 0; v < n; v++ {
		if off[v] == off[v+1] {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// TotalComputation returns the sum of all node computation costs.
func (g *Graph) TotalComputation() int64 {
	var sum int64
	for _, w := range g.weight {
		sum += w
	}
	return sum
}

// TotalCommunication returns the sum of all edge communication costs.
func (g *Graph) TotalCommunication() int64 {
	var sum int64
	for _, a := range g.succArcs {
		sum += a.Weight
	}
	return sum
}

// CCR returns the communication-to-computation ratio of the graph: the
// average edge cost divided by the average node cost (paper section 2).
// A graph with no edges has CCR 0.
func (g *Graph) CCR() float64 {
	if g.NumNodes() == 0 || g.numEdges == 0 {
		return 0
	}
	avgComm := float64(g.TotalCommunication()) / float64(g.numEdges)
	avgComp := float64(g.TotalComputation()) / float64(g.NumNodes())
	if avgComp == 0 {
		return 0
	}
	return avgComm / avgComp
}

// Validate checks the internal consistency of the graph: mirrored
// adjacency lists, non-negative costs, and acyclicity. Graphs produced by
// Builder.Build always validate; this is a guard for hand-constructed or
// deserialized graphs and for use in tests.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if g.label != nil && len(g.label) != n {
		return errors.New("dag: inconsistent slice lengths")
	}
	if n > 0 && (len(g.succOff) != n+1 || len(g.predOff) != n+1) {
		return errors.New("dag: inconsistent adjacency offsets")
	}
	edges := 0
	for u := 0; u < n; u++ {
		for _, a := range g.Succs(NodeID(u)) {
			if a.To < 0 || int(a.To) >= n {
				return fmt.Errorf("dag: edge from %d to out-of-range node %d", u, a.To)
			}
			if a.To == NodeID(u) {
				return fmt.Errorf("dag: self-loop at node %d", u)
			}
			if a.Weight < 0 {
				return fmt.Errorf("dag: negative communication cost on edge (%d,%d)", u, a.To)
			}
			w, ok := reverseLookup(g.Preds(a.To), NodeID(u))
			if !ok || w != a.Weight {
				return fmt.Errorf("dag: edge (%d,%d) not mirrored in predecessor list", u, a.To)
			}
			edges++
		}
	}
	if edges != g.numEdges {
		return fmt.Errorf("dag: edge count %d does not match stored %d", edges, g.numEdges)
	}
	for _, w := range g.weight {
		if w < 0 {
			return errors.New("dag: negative computation cost")
		}
	}
	if _, err := topoSort(g); err != nil {
		return err
	}
	return nil
}

func reverseLookup(arcs []Arc, from NodeID) (int64, bool) {
	for _, a := range arcs {
		if a.To == from {
			return a.Weight, true
		}
	}
	return 0, false
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// The zero value is ready to use.
//
// Internally the builder is an arena: edges append to three flat parallel
// arrays (source, target, weight) and Build scatters them into the CSR
// backing arrays with two stable counting sorts. Nothing is allocated per
// node or per edge beyond amortized slice growth, so generators and
// parsers can stream millions of arcs through without intermediate maps
// or slice-of-slice adjacency. Grow pre-sizes the arena when the caller
// knows the instance size up front.
type Builder struct {
	weight []int64
	label  []string // nil until the first non-empty label
	efrom  []int32
	eto    []int32
	ew     []int64
	err    error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Grow preallocates capacity for at least nodes additional nodes and
// edges additional edges, so that streaming generators of known size
// fill the arena without reallocation.
func (b *Builder) Grow(nodes, edges int) {
	if nodes > 0 {
		b.weight = slices.Grow(b.weight, nodes)
		if b.label != nil {
			b.label = slices.Grow(b.label, nodes)
		}
	}
	if edges > 0 {
		b.efrom = slices.Grow(b.efrom, edges)
		b.eto = slices.Grow(b.eto, edges)
		b.ew = slices.Grow(b.ew, edges)
	}
}

// AddNode adds a task with the given computation cost and returns its ID.
// Negative costs are recorded as a build error reported by Build.
func (b *Builder) AddNode(weight int64) NodeID {
	if weight < 0 && b.err == nil {
		b.err = fmt.Errorf("dag: node %d has negative cost %d", len(b.weight), weight)
	}
	b.weight = append(b.weight, weight)
	if b.label != nil {
		b.label = append(b.label, "")
	}
	return NodeID(len(b.weight) - 1)
}

// AddLabeledNode adds a task with a computation cost and a label.
func (b *Builder) AddLabeledNode(weight int64, label string) NodeID {
	if label == "" {
		return b.AddNode(weight)
	}
	if b.label == nil {
		// First labeled node: materialize the label column lazily so
		// unlabeled graphs never pay for per-node strings.
		b.label = make([]string, len(b.weight), cap(b.weight))
	}
	id := b.AddNode(weight)
	b.label[id] = label
	return id
}

// AddEdge adds a precedence edge from one task to another with the given
// communication cost. Invalid endpoints, self-loops, and negative costs
// are recorded immediately; duplicate edges are detected during Build's
// grouping pass. All such errors are reported by Build.
func (b *Builder) AddEdge(from, to NodeID, weight int64) {
	if b.err != nil {
		return
	}
	n := NodeID(len(b.weight))
	switch {
	case from < 0 || from >= n || to < 0 || to >= n:
		b.err = fmt.Errorf("dag: edge (%d,%d) references unknown node", from, to)
	case from == to:
		b.err = fmt.Errorf("dag: self-loop at node %d", from)
	case weight < 0:
		b.err = fmt.Errorf("dag: edge (%d,%d) has negative cost %d", from, to, weight)
	default:
		b.efrom = append(b.efrom, int32(from))
		b.eto = append(b.eto, int32(to))
		b.ew = append(b.ew, weight)
	}
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.weight) }

// Build finalizes the graph, scattering the flat edge arena into the CSR
// backing arrays with two stable counting sorts (by source for successor
// lists, by target for predecessor lists). Stability preserves per-node
// insertion order, so the resulting adjacency is byte-identical to
// appending into per-node lists. It fails if any recorded construction
// error exists, if the weights sum past MaxTotalWeight, if an edge was
// added twice, or if the edges form a cycle.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := checkTotalWeight(b.weight, b.ew); err != nil {
		return nil, err
	}
	n := len(b.weight)
	m := len(b.efrom)
	// One allocation backs both arc arrays and one both offset rows.
	arcs := make([]Arc, 2*m)
	offs := make([]int32, 2*(n+1))
	g := &Graph{
		weight:   b.weight,
		label:    b.label,
		succArcs: arcs[:m:m],
		predArcs: arcs[m:],
		succOff:  offs[: n+1 : n+1],
		predOff:  offs[n+1:],
		numEdges: m,
	}
	cursor := make([]int32, n)
	scatter := func(key []int32, off []int32, dst []Arc, other []int32) {
		for _, k := range key {
			off[k+1]++
		}
		for v := 0; v < n; v++ {
			off[v+1] += off[v]
		}
		copy(cursor, off[:n])
		for i, k := range key {
			p := cursor[k]
			cursor[k] = p + 1
			dst[p] = Arc{To: NodeID(other[i]), Weight: b.ew[i]}
		}
	}
	scatter(b.efrom, g.succOff, g.succArcs, b.eto)
	scatter(b.eto, g.predOff, g.predArcs, b.efrom)
	// Duplicate detection: successor lists are now grouped by source, so
	// an epoch-marked scratch array finds repeats in one O(V+E) sweep.
	if m > 0 {
		mark := cursor
		for i := range mark {
			mark[i] = -1
		}
		for u := 0; u < n; u++ {
			for _, a := range g.Succs(NodeID(u)) {
				if mark[a.To] == int32(u) {
					return nil, fmt.Errorf("dag: duplicate edge (%d,%d)", u, a.To)
				}
				mark[a.To] = int32(u)
			}
		}
	}
	topo, err := topoSort(g)
	if err != nil {
		return nil, err
	}
	g.topo = topo
	// Detach the builder so further mutation cannot alias the graph.
	b.weight, b.label, b.efrom, b.eto, b.ew = nil, nil, nil, nil, nil
	return g, nil
}

// MaxTotalWeight bounds the sum of all node and edge weights. Every
// path length and level, and every start and finish time of a
// unit-speed schedule, is at most that sum, so the int64 arithmetic
// keeps a factor-two margin from wrapping. sched.Tasks.SetSpeeds holds
// a heterogeneous machine to the same bound.
const MaxTotalWeight int64 = 1 << 62

// checkTotalWeight rejects weights summing past MaxTotalWeight; being
// non-negative, the running sum cannot overflow before that.
func checkTotalWeight(nodes, edges []int64) error {
	var total int64
	for _, ws := range [2][]int64{nodes, edges} {
		for _, w := range ws {
			if w > MaxTotalWeight-total {
				return fmt.Errorf("dag: total node and edge weight exceeds %d", MaxTotalWeight)
			}
			total += w
		}
	}
	return nil
}

// MustBuild is Build that panics on error, for tests and fixed fixtures.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// ErrCycle is returned when the edge set contains a directed cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// topoSort returns a topological order using Kahn's algorithm, preferring
// smaller IDs first so the order is deterministic.
func topoSort(g *Graph) ([]NodeID, error) {
	n := g.NumNodes()
	indeg := make([]int32, n)
	for v := 0; v < n; v++ {
		indeg[v] = int32(g.InDegree(NodeID(v)))
	}
	// A simple FIFO queue seeded in ID order gives a stable order without
	// the cost of a priority queue; determinism is what matters here. The
	// order slice doubles as the queue (consumed entries are never
	// revisited), so the sort needs only one V-sized scratch array.
	order := make([]NodeID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, NodeID(v))
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, a := range g.Succs(v) {
			indeg[a.To]--
			if indeg[a.To] == 0 {
				order = append(order, a.To)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}
