package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunnerDefaultsToGOMAXPROCS(t *testing.T) {
	if got := poolSize(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("poolSize(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := poolSize(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("poolSize(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := poolSize(5); got != 5 {
		t.Errorf("poolSize(5) = %d, want 5", got)
	}
}

func TestRunCellsOrderAndBounds(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		var active, peak atomic.Int64
		var p plan[int]
		for i := 0; i < 40; i++ {
			p.add(func() (int, error) {
				a := active.Add(1)
				for {
					cur := peak.Load()
					if a <= cur || peak.CompareAndSwap(cur, a) {
						break
					}
				}
				defer active.Add(-1)
				return i * i, nil
			})
		}
		results, err := p.run(Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range results {
			if r != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
		if int(peak.Load()) > workers {
			t.Errorf("workers=%d: observed %d concurrent cells", workers, peak.Load())
		}
	}
}

func TestRunCellsEmptyPlan(t *testing.T) {
	var p plan[string]
	results, err := p.run(Config{Workers: 4})
	if err != nil || results != nil {
		t.Errorf("empty plan returned (%v, %v), want (nil, nil)", results, err)
	}
}

func TestRunCellsFirstErrorInPlanOrder(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var p plan[int]
		for i := 0; i < 20; i++ {
			p.add(func() (int, error) {
				if i == 3 || i == 11 {
					return 0, fmt.Errorf("cell %d failed", i)
				}
				return i, nil
			})
		}
		_, err := p.run(Config{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		// Serial runs stop at the first failure; concurrent runs must
		// still report the lowest-indexed failure among the cells that
		// ran before the pool drained.
		if workers == 1 && err.Error() != "cell 3 failed" {
			t.Errorf("serial error = %q, want cell 3", err)
		}
		if !strings.Contains(err.Error(), "failed") {
			t.Errorf("workers=%d: unexpected error %q", workers, err)
		}
	}
}

func TestRGBOSOptimaSolvedOncePerCache(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping branch-and-bound suite in short mode")
	}
	cache := NewSuiteCache()
	cfg := Config{Seed: 11, Scale: Quick, Out: io.Discard, Workers: 4, Cache: cache}
	before := rgbosSolves.Load()
	if err := Table2(cfg); err != nil {
		t.Fatal(err)
	}
	suite, err := cache.rgbosInstances(cfg)
	if err != nil {
		t.Fatal(err)
	}
	instances := 0
	for _, insts := range suite {
		instances += len(insts)
	}
	if instances == 0 {
		t.Fatal("empty RGBOS suite")
	}
	if got := rgbosSolves.Load() - before; got != int64(instances) {
		t.Fatalf("table2 solved %d optima, want %d", got, instances)
	}
	// Table 3 must reuse the cached optima, not solve them again.
	if err := Table3(cfg); err != nil {
		t.Fatal(err)
	}
	if got := rgbosSolves.Load() - before; got != int64(instances) {
		t.Fatalf("after table3 %d optima solved, want still %d (cache shared by Tables 2 and 3)", got, instances)
	}
}

func TestSuiteCacheKeyedBySeedAndScale(t *testing.T) {
	cache := NewSuiteCache()
	a := cache.rgnosSuite(Config{Seed: 1, Scale: Quick})
	b := cache.rgnosSuite(Config{Seed: 1, Scale: Quick})
	if len(a) == 0 {
		t.Fatal("empty RGNOS suite")
	}
	for size := range a {
		if len(a[size]) != len(b[size]) || (len(a[size]) > 0 && a[size][0].G != b[size][0].G) {
			t.Fatalf("same (seed, scale) regenerated the RGNOS suite for size %d", size)
		}
	}
	c := cache.rgnosSuite(Config{Seed: 2, Scale: Quick})
	for size := range a {
		if len(c[size]) > 0 && len(a[size]) > 0 && c[size][0].G == a[size][0].G {
			t.Fatal("different seeds shared one suite entry")
		}
	}
}

var errSentinel = errors.New("sentinel")

func TestRunCellsPropagatesWrappedErrors(t *testing.T) {
	var p plan[int]
	p.add(func() (int, error) { return 0, fmt.Errorf("wrap: %w", errSentinel) })
	_, err := p.run(Config{Workers: 2})
	if !errors.Is(err, errSentinel) {
		t.Errorf("error %v does not wrap sentinel", err)
	}
}
