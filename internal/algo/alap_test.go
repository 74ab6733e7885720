package algo

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
)

// TestALAPListOrderPrefixSortsFirst pins the prefix branch of the group
// rule: a and b tie on ALAP 0 with descendant ALAPs [5, 5] against [5].
// b has no bits past the group, so its list is a prefix of a's and b
// sorts first, although a has the smaller ID.
func TestALAPListOrderPrefixSortsFirst(t *testing.T) {
	b := dag.NewBuilder()
	a, bb := b.AddNode(5), b.AddNode(5)
	c1, c2, d := b.AddNode(5), b.AddNode(5), b.AddNode(5)
	b.AddEdge(a, c1, 0)
	b.AddEdge(a, c2, 0)
	b.AddEdge(bb, d, 0)
	g := b.MustBuild()
	// Lists: a = [0 5 5], b = [0 5], c1 = c2 = d = [5].
	want := []dag.NodeID{bb, a, c1, c2, d}
	if got := ALAPListOrder(g); !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	assertOracleOrder(t, "prefix case", g)
}

// TestALAPListOrderMoreCopiesSortsFirst pins the other branch: a and b
// tie on ALAP 0 with descendant ALAPs [5, 5, 9] against [5, 9]. b's
// next element after its one 5 is 9 > 5, so a sorts first, although b
// has the smaller ID.
func TestALAPListOrderMoreCopiesSortsFirst(t *testing.T) {
	b := dag.NewBuilder()
	bb := b.AddNode(5)
	d := b.AddNode(4)
	f := b.AddNode(1)
	a := b.AddNode(5)
	c1, c2 := b.AddNode(4), b.AddNode(4)
	e := b.AddNode(1)
	b.AddEdge(bb, d, 0)
	b.AddEdge(d, f, 0)
	b.AddEdge(a, c1, 0)
	b.AddEdge(a, c2, 0)
	b.AddEdge(c1, e, 0)
	b.AddEdge(c2, e, 0)
	g := b.MustBuild()
	// Lists: a = [0 5 5 9], b = [0 5 9], c1 = c2 = d = [5 9], e = f = [9].
	// Equal lists fall back to ID order: d, c1, c2 and then f, e.
	want := []dag.NodeID{a, bb, d, c1, c2, f, e}
	if got := ALAPListOrder(g); !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	assertOracleOrder(t, "more-copies case", g)
}

// BenchmarkALAPListOrder times the order on a sparse layered graph at
// MCP's scaling cap, a uniform-weight kernel with long shared list
// prefixes, and a small dense random graph. BenchmarkALAPListOrderOracle
// times the materialized-list reference on the same inputs.
func BenchmarkALAPListOrder(b *testing.B) { benchALAPOrder(b, ALAPListOrder) }

func BenchmarkALAPListOrderOracle(b *testing.B) { benchALAPOrder(b, alapListOrderOracle) }

func benchALAPOrder(b *testing.B, order func(*dag.Graph) []dag.NodeID) {
	layeredV := 4000
	layered, err := gen.Generate("layered", 1, gen.Params{
		"v": fmt.Sprint(layeredV),
		"p": fmt.Sprintf("%g", 4/math.Sqrt(float64(layeredV))),
	})
	if err != nil {
		b.Fatal(err)
	}
	cholesky, err := gen.Cholesky(90, 1)
	if err != nil {
		b.Fatal(err)
	}
	rgnos, err := gen.Generate("rgnos", 1, gen.Params{"v": "150"})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *dag.Graph
	}{
		{"layered-v4000", layered},
		{"cholesky-n90", cholesky},
		{"rgnos-v150", rgnos},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				order(c.g)
			}
		})
	}
}
