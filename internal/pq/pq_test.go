package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdering(t *testing.T) {
	h := New(func(a, b int) bool { return a < b })
	for _, x := range []int{5, 3, 8, 1, 9, 2, 7} {
		h.Push(x)
	}
	want := []int{1, 2, 3, 5, 7, 8, 9}
	for i, w := range want {
		if h.Len() != len(want)-i {
			t.Fatalf("Len = %d, want %d", h.Len(), len(want)-i)
		}
		if got := h.Pop(); got != w {
			t.Fatalf("Pop #%d = %d, want %d", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Errorf("heap not empty after draining")
	}
}

func TestHeapPeek(t *testing.T) {
	h := New(func(a, b int) bool { return a > b }) // max-heap
	h.Push(4)
	h.Push(10)
	h.Push(6)
	if p := h.Peek(); p != 10 {
		t.Errorf("Peek = %d, want 10", p)
	}
	if h.Len() != 3 {
		t.Errorf("Peek consumed an element")
	}
}

func TestHeapReset(t *testing.T) {
	h := New(func(a, b string) bool { return a < b })
	h.Push("b")
	h.Push("a")
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	h.Push("z")
	if h.Pop() != "z" {
		t.Error("heap unusable after Reset")
	}
}

func TestHeapStructTieBreak(t *testing.T) {
	type task struct {
		prio int64
		id   int
	}
	h := New(func(a, b task) bool {
		if a.prio != b.prio {
			return a.prio > b.prio // higher priority first
		}
		return a.id < b.id // smaller id breaks ties
	})
	h.Push(task{5, 2})
	h.Push(task{5, 1})
	h.Push(task{9, 3})
	if got := h.Pop(); got.id != 3 {
		t.Errorf("first pop id = %d, want 3", got.id)
	}
	if got := h.Pop(); got.id != 1 {
		t.Errorf("tie-break pop id = %d, want 1", got.id)
	}
}

func TestHeapMatchesSortQuick(t *testing.T) {
	f := func(xs []int) bool {
		h := New(func(a, b int) bool { return a < b })
		for _, x := range xs {
			h.Push(x)
		}
		sorted := append([]int(nil), xs...)
		sort.Ints(sorted)
		for _, want := range sorted {
			if h.Pop() != want {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := New(func(a, b int) bool { return a < b })
	var mirror []int
	for op := 0; op < 2000; op++ {
		if h.Len() == 0 || rng.Intn(2) == 0 {
			x := rng.Intn(1000)
			h.Push(x)
			mirror = append(mirror, x)
			sort.Ints(mirror)
		} else {
			got := h.Pop()
			if got != mirror[0] {
				t.Fatalf("op %d: Pop = %d, want %d", op, got, mirror[0])
			}
			mirror = mirror[1:]
		}
	}
}
