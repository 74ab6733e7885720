// Package machine models the processor network assumed by the APN
// (arbitrary processor network) scheduling algorithms of Kwok & Ahmad
// (IPPS 1998): processors connected by an arbitrary topology whose links
// are not contention-free. In addition to tasks, messages are scheduled
// on the links (paper section 4).
//
// The model is store-and-forward with full-duplex links: each undirected
// link provides two directed channels, a message occupies each channel on
// its route for the full communication cost of the edge, and channels are
// exclusive resources with insertion-based slot search — the model used
// by the MH and BSA evaluations.
package machine

import (
	"fmt"
	"sort"
)

// Topology is an undirected, connected processor network with
// deterministic shortest-path routing. Immutable after construction.
//
// The topology is the one owner of channel identity: its directed
// channels are numbered densely 0..NumChannels()-1 in (from, to) order,
// and every route is stored as the sequence of channels it crosses.
type Topology struct {
	n       int
	adj     [][]int32 // sorted neighbor lists
	chanOff []int32   // channel of (u, adj[u][i]) is chanOff[u]+i
	ends    [][2]int  // ends[c]: the (from, to) processors of channel c
	dist    [][]int32
	routes  [][]int32 // routes[s*n+d]: channels of the s->d path, precomputed
	name    string
}

// NewTopology builds a topology for n processors from an undirected link
// list. The network must be connected, without self-links or duplicates.
func NewTopology(n int, links [][2]int) (*Topology, error) {
	return newTopology(n, links, fmt.Sprintf("custom-%dp", n))
}

func newTopology(n int, links [][2]int, name string) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("machine: topology needs at least one processor, got %d", n)
	}
	adj := make([][]int32, n)
	seen := make(map[[2]int]bool, len(links))
	for _, l := range links {
		u, v := l[0], l[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("machine: link (%d,%d) out of range", u, v)
		}
		if u == v {
			return nil, fmt.Errorf("machine: self-link at processor %d", u)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return nil, fmt.Errorf("machine: duplicate link (%d,%d)", u, v)
		}
		seen[key] = true
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
	}
	for p := range adj {
		sort.Slice(adj[p], func(i, j int) bool { return adj[p][i] < adj[p][j] })
	}
	t := &Topology{n: n, adj: adj, name: name, chanOff: make([]int32, n+1)}
	for u := range adj {
		t.chanOff[u+1] = t.chanOff[u] + int32(len(adj[u]))
		for _, v := range adj[u] {
			t.ends = append(t.ends, [2]int{u, int(v)})
		}
	}
	t.computeRoutes()
	for d := 0; d < n; d++ {
		if t.dist[0][d] < 0 {
			return nil, fmt.Errorf("machine: topology is disconnected (processor %d unreachable)", d)
		}
	}
	return t, nil
}

// computeRoutes runs a BFS from every destination. Because neighbor lists
// are sorted ascending, the chosen next hop is the smallest-indexed
// neighbor on a shortest path, making routes deterministic.
func (t *Topology) computeRoutes() {
	next := make([][]int32, t.n) // next[s][d]: neighbor of s on a shortest s->d path
	t.dist = make([][]int32, t.n)
	for s := 0; s < t.n; s++ {
		next[s] = make([]int32, t.n)
		t.dist[s] = make([]int32, t.n)
		for d := range next[s] {
			next[s][d] = -1
			t.dist[s][d] = -1
		}
	}
	queue := make([]int32, 0, t.n)
	for d := 0; d < t.n; d++ {
		// BFS outward from d; dist[v][d] and next[v][d] for all v.
		t.dist[d][d] = 0
		queue = queue[:0]
		queue = append(queue, int32(d))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, nb := range t.adj[v] {
				if t.dist[nb][d] < 0 {
					t.dist[nb][d] = t.dist[v][d] + 1
					next[nb][d] = v
					queue = append(queue, nb)
				}
			}
		}
	}
	// Materialize every route once, as channels, so the message planners
	// can walk shortest paths without allocating per query.
	t.routes = make([][]int32, t.n*t.n)
	for s := 0; s < t.n; s++ {
		for d := 0; d < t.n; d++ {
			if t.dist[s][d] < 0 {
				continue // disconnected; NewTopology rejects these anyway
			}
			path := make([]int32, 0, t.dist[s][d])
			for v := s; v != d; v = int(next[v][d]) {
				path = append(path, int32(t.Channel(v, int(next[v][d]))))
			}
			t.routes[s*t.n+d] = path
		}
	}
}

// route returns the precomputed shortest path from src to dst as its
// channel sequence, empty when src == dst. The slice is shared with the
// topology and must not be modified.
func (t *Topology) route(src, dst int) []int32 { return t.routes[src*t.n+dst] }

// NumChannels returns the number of directed channels, two per link.
func (t *Topology) NumChannels() int { return len(t.ends) }

// Channel returns the directed channel from processor u to processor v,
// or -1 when u and v are not linked (or either is out of range).
func (t *Topology) Channel(u, v int) int {
	if u < 0 || u >= t.n || v < 0 || v >= t.n {
		return -1
	}
	nb := t.adj[u]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	if i == len(nb) || nb[i] != int32(v) {
		return -1
	}
	return int(t.chanOff[u]) + i
}

// Ends returns the (from, to) processors of channel c.
func (t *Topology) Ends(c int) (from, to int) { return t.ends[c][0], t.ends[c][1] }

// NumProcs returns the number of processors.
func (t *Topology) NumProcs() int { return t.n }

// Name returns a short descriptive name ("hypercube-8", "ring-6", ...).
func (t *Topology) Name() string { return t.name }

// Neighbors returns the processors adjacent to p in ascending order. The
// slice is shared with the topology and must not be modified.
func (t *Topology) Neighbors(p int) []int32 { return t.adj[p] }

// Degree returns the number of links at processor p.
func (t *Topology) Degree(p int) int { return len(t.adj[p]) }

// NumLinks returns the number of undirected links.
func (t *Topology) NumLinks() int { return len(t.ends) / 2 }

// Dist returns the hop distance between two processors.
func (t *Topology) Dist(src, dst int) int { return int(t.dist[src][dst]) }

// Route returns the shortest path from src to dst as a processor
// sequence including both endpoints; Route(p, p) is [p]. The returned
// slice is a fresh copy; internal callers use the precomputed channels.
func (t *Topology) Route(src, dst int) []int {
	r := t.route(src, dst)
	path := make([]int, 1, len(r)+1)
	path[0] = src
	for _, c := range r {
		path = append(path, t.ends[c][1])
	}
	return path
}

// Clique returns the fully connected topology on n processors. With a
// clique the APN model differs from BNP only in that messages still
// occupy the (single-hop) links exclusively.
func Clique(n int) *Topology {
	var links [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			links = append(links, [2]int{u, v})
		}
	}
	t, err := newTopology(n, links, fmt.Sprintf("clique-%d", n))
	if err != nil {
		panic(err) // regular constructions cannot fail
	}
	return t
}

// Ring returns the cycle topology on n >= 3 processors.
func Ring(n int) *Topology {
	links := make([][2]int, n)
	for u := 0; u < n; u++ {
		links[u] = [2]int{u, (u + 1) % n}
	}
	t, err := newTopology(n, links, fmt.Sprintf("ring-%d", n))
	if err != nil {
		panic(err)
	}
	return t
}

// Chain returns the linear array topology on n processors.
func Chain(n int) *Topology {
	links := make([][2]int, 0, n-1)
	for u := 0; u+1 < n; u++ {
		links = append(links, [2]int{u, u + 1})
	}
	t, err := newTopology(n, links, fmt.Sprintf("chain-%d", n))
	if err != nil {
		panic(err)
	}
	return t
}

// Mesh returns the rows x cols 2-D mesh (no wraparound).
func Mesh(rows, cols int) *Topology {
	var links [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				links = append(links, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				links = append(links, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	t, err := newTopology(rows*cols, links, fmt.Sprintf("mesh-%dx%d", rows, cols))
	if err != nil {
		panic(err)
	}
	return t
}

// Hypercube returns the dim-dimensional hypercube on 2^dim processors.
func Hypercube(dim int) *Topology {
	n := 1 << dim
	var links [][2]int
	for u := 0; u < n; u++ {
		for b := 0; b < dim; b++ {
			v := u ^ (1 << b)
			if u < v {
				links = append(links, [2]int{u, v})
			}
		}
	}
	t, err := newTopology(n, links, fmt.Sprintf("hypercube-%d", n))
	if err != nil {
		panic(err)
	}
	return t
}

// Star returns the star topology: processor 0 is the hub.
func Star(n int) *Topology {
	links := make([][2]int, 0, n-1)
	for u := 1; u < n; u++ {
		links = append(links, [2]int{0, u})
	}
	t, err := newTopology(n, links, fmt.Sprintf("star-%d", n))
	if err != nil {
		panic(err)
	}
	return t
}
