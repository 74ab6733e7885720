// Package pq provides a small generic binary min-heap used by the list
// schedulers and the exact branch-and-bound search. Ordering is supplied
// as a less function at construction, so one type serves max-heaps,
// min-heaps, and composite tie-broken priorities.
package pq

// Heap is a binary heap ordered by the less function given to New. The
// zero value is not usable; call New.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap whose minimum element (per less) is popped
// first.
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds x to the heap.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum element. It panics on an empty heap.
func (h *Heap[T]) Pop() T {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	x := h.items[n]
	var zero T
	h.items[n] = zero // release references for the garbage collector
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	return x
}

// Peek returns the minimum element without removing it. It panics on an
// empty heap.
func (h *Heap[T]) Peek() T { return h.items[0] }

// Reset empties the heap, keeping its storage for reuse.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
