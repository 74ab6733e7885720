package ft

import (
	"math"
	"testing"
)

func TestExpDurationDeterministicAndPositive(t *testing.T) {
	trial := trialSeed(7, 3)
	for k := 0; k < 200; k++ {
		ent := procFaultEnt(2, k)
		d := expDuration(1000, trial, ent)
		if d < 1 {
			t.Fatalf("draw %d: non-positive duration %d", k, d)
		}
		if d2 := expDuration(1000, trial, ent); d2 != d {
			t.Fatalf("draw %d: repeat draw %d != %d", k, d2, d)
		}
	}
	// A tiny mean still yields at least one tick.
	if d := expDuration(1, trial, procFaultEnt(0, 0)); d < 1 {
		t.Fatalf("mean-1 draw yields %d", d)
	}
}

func TestExpDurationMeanRoughlyMatches(t *testing.T) {
	const mean, draws = 10_000, 4000
	trial := trialSeed(11, 0)
	var sum int64
	for k := 0; k < draws; k++ {
		sum += expDuration(mean, trial, procFaultEnt(1, k))
	}
	got := float64(sum) / draws
	if got < 0.9*mean || got > 1.1*mean {
		t.Fatalf("empirical mean %.0f is not within 10%% of %d", got, mean)
	}
}

// TestExpDurationMonotoneInMean requires a draw for a fixed (trial,
// entity) never to fall as the mean rises, up to MaxInt64: a huge mean
// saturates at never instead of wrapping around to the one-tick floor.
func TestExpDurationMonotoneInMean(t *testing.T) {
	means := []int64{1, 2, 10, 1000, 1 << 20, 1 << 40, 1 << 55, math.MaxInt64 / 64,
		math.MaxInt64 / 4, math.MaxInt64 / 2, math.MaxInt64 - 1, math.MaxInt64}
	saturated := 0
	for k := 0; k < 2000; k++ {
		trial, ent := trialSeed(int64(k), k), procFaultEnt(k%7, k)
		prev := int64(0)
		for _, m := range means {
			d := expDuration(m, trial, ent)
			if d < prev {
				t.Fatalf("draw %d: mean %d gives %d, below %d at a smaller mean", k, m, d, prev)
			}
			prev = d
		}
		if prev == never {
			saturated++
		}
	}
	if saturated == 0 {
		t.Fatal("no draw at mean MaxInt64 saturated; the bound is untested")
	}
}

// TestScaleDurSaturates pins scaleDur's edges: exact at m == 1, zero
// for non-positive and NaN products, never for products past int64.
func TestScaleDurSaturates(t *testing.T) {
	for _, c := range []struct {
		base int64
		m    float64
		want int64
	}{
		{7, 1, 7}, {10, 0.25, 3}, {10, -2, 0}, {10, math.NaN(), 0},
		{10, math.Inf(1), never}, {math.MaxInt64, 2, never}, {1 << 40, 1 << 30, never},
	} {
		if got := scaleDur(c.base, c.m); got != c.want {
			t.Errorf("scaleDur(%d, %g) = %d, want %d", c.base, c.m, got, c.want)
		}
	}
	if got := later(never-5, 10); got != never {
		t.Errorf("later(never-5, 10) = %d, want never", got)
	}
}

func TestFaultEntityKeysDistinct(t *testing.T) {
	seen := map[uint64]string{}
	add := func(key uint64, label string) {
		t.Helper()
		if prev, ok := seen[key]; ok {
			t.Fatalf("entity collision: %s and %s share key %#x", prev, label, key)
		}
		seen[key] = label
	}
	for p := 0; p < 8; p++ {
		for k := 0; k < 16; k++ {
			add(procFaultEnt(p, k), "proc")
		}
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			if u == v {
				continue
			}
			for k := 0; k < 16; k++ {
				add(linkFaultEnt(u, v, k), "link")
			}
		}
	}
	// Fault entities live in their own kind space, disjoint from task
	// and communication entities.
	add(taskEnt(0), "task")
	add(commEnt(0, 1), "comm")
}
