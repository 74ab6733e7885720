package dag

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// synthGraph builds a deterministic pseudo-random layered graph shaped
// like the generator families (weights near 40, a few arcs per node,
// targets close to sources) for exercising the IO paths at size.
func synthGraph(t testing.TB, n int, labeled bool) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder()
	b.Grow(n, 4*n)
	for v := 0; v < n; v++ {
		if labeled && v%3 == 0 {
			b.AddLabeledNode(int64(10+rng.Intn(70)), "t"+strconv.Itoa(v))
		} else {
			b.AddNode(int64(10 + rng.Intn(70)))
		}
	}
	for v := 0; v < n-1; v++ {
		kids := rng.Intn(5)
		prev := v
		for k := 0; k < kids; k++ {
			to := prev + 1 + rng.Intn(8)
			if to >= n || to <= prev {
				break
			}
			b.AddEdge(NodeID(v), NodeID(to), int64(1+rng.Intn(80)))
			prev = to
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("building synthetic graph: %v", err)
	}
	return g
}

func graphsEqualText(t *testing.T, a, b *Graph) {
	t.Helper()
	var ta, tb bytes.Buffer
	if err := WriteText(&ta, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&tb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatalf("graphs differ in canonical text form:\n%s\nvs\n%s",
			firstLines(ta.String(), 6), firstLines(tb.String(), 6))
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 50, 1000} {
		for _, labeled := range []bool{false, true} {
			g := synthGraph(t, n, labeled)
			var buf bytes.Buffer
			if err := WriteBinary(&buf, g); err != nil {
				t.Fatalf("n=%d: WriteBinary: %v", n, err)
			}
			g2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("n=%d labeled=%v: ReadBinary: %v", n, labeled, err)
			}
			if err := g2.Validate(); err != nil {
				t.Fatalf("n=%d: round-tripped graph invalid: %v", n, err)
			}
			graphsEqualText(t, g, g2)
		}
	}
}

func TestBinaryMetaRoundTrip(t *testing.T) {
	g := synthGraph(t, 20, true)
	meta := "# adv pair MCP:DLS\n# adv seed 42\n"
	var buf bytes.Buffer
	if err := WriteBinaryMeta(&buf, g, meta); err != nil {
		t.Fatal(err)
	}
	g2, meta2, err := ReadBinaryMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta2 != meta {
		t.Fatalf("metadata round trip: got %q want %q", meta2, meta)
	}
	graphsEqualText(t, g, g2)
}

func TestReadAnyDetectsFormat(t *testing.T) {
	g := synthGraph(t, 100, true)
	var text, bin bytes.Buffer
	if err := WriteText(&text, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadAny(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatalf("ReadAny(text): %v", err)
	}
	fromBin, err := ReadAny(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatalf("ReadAny(binary): %v", err)
	}
	graphsEqualText(t, g, fromText)
	graphsEqualText(t, g, fromBin)
	// Inputs shorter than the magic fall through to the text parser:
	// empty input is the empty text graph, junk is a parse error.
	if g, err := ReadAny(bytes.NewReader(nil)); err != nil || g.NumNodes() != 0 {
		t.Fatalf("ReadAny(empty) = %v, %v; want empty graph", g, err)
	}
	if _, err := ReadAny(strings.NewReader("hi")); err == nil {
		t.Fatal("ReadAny accepted two junk bytes")
	}
}

func TestReadBinaryRejectsMalformed(t *testing.T) {
	g := synthGraph(t, 30, false)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	cases := map[string][]byte{
		"empty":         nil,
		"bad magic":     []byte("TGB9aaaa"),
		"header only":   valid[:6],
		"truncated":     valid[:len(valid)-3],
		"deg overflow":  append([]byte(BinaryMagic), 1, 0, 0, 7, 0, 5),
		"huge nodes":    append([]byte(BinaryMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"huge meta":     append([]byte(BinaryMagic), 2, 1, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"self arc":      append([]byte(BinaryMagic), 1, 1, 0, 7, 0, 1, 0, 3),
		"out of range":  append([]byte(BinaryMagic), 1, 1, 0, 7, 0, 1, 2, 3),
		"edge shortage": append([]byte(BinaryMagic), 2, 1, 0, 7, 0, 7, 0, 0, 0),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadBinary accepted malformed input", name)
		}
	}
	// The reader consumes exactly one graph: trailing bytes after the
	// declared records are left unread, not an error.
	if _, err := ReadBinary(bytes.NewReader(append(append([]byte{}, valid...), 0xee))); err != nil {
		t.Fatalf("valid stream with trailing bytes rejected: %v", err)
	}
}

// TestBinarySizeRatio pins the headline compression claim: on a graph
// shaped like the benchmark families, .tgb is at most 35% of .tg.
func TestBinarySizeRatio(t *testing.T) {
	g := synthGraph(t, 5000, false)
	var text, bin bytes.Buffer
	if err := WriteText(&text, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	ratio := float64(bin.Len()) / float64(text.Len())
	if ratio > 0.35 {
		t.Fatalf("binary/text size ratio %.3f exceeds 0.35 (%d / %d bytes)",
			ratio, bin.Len(), text.Len())
	}
}

// countingWriter counts bytes without retaining them, so alloc tests
// measure the serializer, not the sink.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestWriteAllocs is the regression guard for the streaming serializers:
// writing a large graph must cost O(1) allocations (the buffered writer
// and its scratch), not O(V+E) from per-line formatting.
func TestWriteAllocs(t *testing.T) {
	g := synthGraph(t, 20000, false)
	var sink countingWriter
	textAllocs := testing.AllocsPerRun(5, func() {
		if err := WriteText(&sink, g); err != nil {
			t.Fatal(err)
		}
	})
	if textAllocs > 4 {
		t.Errorf("WriteText allocated %.0f times per run, want <= 4", textAllocs)
	}
	binAllocs := testing.AllocsPerRun(5, func() {
		if err := WriteBinary(&sink, g); err != nil {
			t.Fatal(err)
		}
	})
	if binAllocs > 4 {
		t.Errorf("WriteBinary allocated %.0f times per run, want <= 4", binAllocs)
	}
}

// TestBuilderGrowArena verifies the arena promise: with a correct Grow
// hint, streaming an unlabeled graph through the Builder allocates only
// the arena arrays themselves (builder + four flat slices), with no
// per-node or per-edge allocation during AddNode/AddEdge. A
// race-instrumented build allocates more, so there the count is not
// checked.
func TestBuilderGrowArena(t *testing.T) {
	const n, m = 10000, 30000
	allocs := testing.AllocsPerRun(3, func() {
		b := NewBuilder()
		b.Grow(n, m)
		for v := 0; v < n; v++ {
			b.AddNode(40)
		}
		for e := 0; e < m; e++ {
			from := NodeID(e % (n - 1))
			b.AddEdge(from, from+1, int64(e%97))
		}
	})
	if allocs > 5 && !raceEnabled {
		t.Errorf("pre-grown Builder allocated %.0f times while streaming, want <= 5", allocs)
	}
}
