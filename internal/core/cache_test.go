package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMemoRetriesFailedBuild(t *testing.T) {
	cache := NewSuiteCache()
	cfg := Config{Seed: 1, Scale: Quick}
	var builds int
	fail := errors.New("build failed")
	build := func(Config) (int, error) {
		builds++
		if builds == 1 {
			return 0, fail
		}
		return 42, nil
	}
	if _, err := memo(cache, "s", cfg, build); !errors.Is(err, fail) {
		t.Fatalf("first request: err = %v, want %v", err, fail)
	}
	for i := 0; i < 2; i++ {
		got, err := memo(cache, "s", cfg, build)
		if err != nil || got != 42 {
			t.Fatalf("request %d = (%d, %v), want (42, nil)", i+2, got, err)
		}
	}
	if builds != 2 {
		t.Errorf("builder called %d times, want 2 (the failure is not stored, the success is)", builds)
	}
}

func TestMemoSuitesSharingSeedAndScaleStayApart(t *testing.T) {
	cache := NewSuiteCache()
	cfg := Config{Seed: 7, Scale: Quick}
	ints := func(Config) ([]int, error) { return []int{1, 2}, nil }
	names := func(Config) (string, error) { return "names", nil }
	for i := 0; i < 2; i++ {
		a, err := memo(cache, "ints", cfg, ints)
		if err != nil || len(a) != 2 || a[0] != 1 {
			t.Fatalf("ints = (%v, %v)", a, err)
		}
		b, err := memo(cache, "names", cfg, names)
		if err != nil || b != "names" {
			t.Fatalf("names = (%q, %v)", b, err)
		}
	}
	genx, err := cache.genxSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := cache.componentsSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for fam, gs := range genx {
		if cs := comp[fam]; len(cs) > 0 && len(gs) > 0 && cs[0].G == gs[0].G {
			t.Fatalf("genx and components share family %s's graphs", fam)
		}
	}
}

func TestMemoConcurrentFirstRequestsBuildOnce(t *testing.T) {
	cache := NewSuiteCache()
	cfg := Config{Seed: 3, Scale: Quick}
	var builds atomic.Int64
	build := func(Config) (*int, error) {
		builds.Add(1)
		v := 5
		return &v, nil
	}
	const callers = 8
	got := make([]*int, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := memo(cache, "s", cfg, build)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent first requests built %d times, want 1", callers, n)
	}
	for i, v := range got {
		if v != got[0] {
			t.Errorf("caller %d got a different value than caller 0", i)
		}
	}
}
