package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// plan accumulates the cells of one experiment in output order. The
// experiment functions are producers: they plan every cell of their
// table or figure up front, run the plan, and then assemble rows from
// the ordered results with a cursor.
type plan[T any] struct {
	cells []func() (T, error)
}

// add appends one cell. Position in the plan determines the cell's
// index in the result slice.
func (p *plan[T]) add(cell func() (T, error)) { p.cells = append(p.cells, cell) }

// run executes the plan on a pool of poolSize(cfg.Workers) goroutines
// and returns the results in plan order.
func (p *plan[T]) run(cfg Config) ([]T, error) {
	return runCells(poolSize(cfg.Workers), p.cells)
}

// poolSize resolves Config.Workers: <= 0 selects GOMAXPROCS.
func poolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// runCells fans the cells out across at most workers goroutines, which
// claim cells from a shared counter so the pool is always busy. On
// success the result slice is indexed exactly like cells, so assembling
// rows from it in plan order makes a concurrent run's output
// byte-identical to a serial one. On failure the error of the
// lowest-indexed failing cell is returned; once any cell has failed,
// unstarted cells are skipped (best effort).
func runCells[T any](workers int, cells []func() (T, error)) ([]T, error) {
	n := len(cells)
	if n == 0 {
		return nil, nil
	}
	results := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, cell := range cells {
			var err error
			if results[i], err = instrumentCell(cell); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				results[i], errs[i] = instrumentCell(cells[i])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// cursor replays planned results during row assembly. The assembly
// loops mirror the planning loops, so next() yields each cell's result
// at exactly the position it was planned.
type cursor[T any] struct {
	rs []T
	i  int
}

func (c *cursor[T]) next() T {
	v := c.rs[c.i]
	c.i++
	return v
}
