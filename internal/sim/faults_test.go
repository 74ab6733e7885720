package sim

import "testing"

func TestExpDurationDeterministicAndPositive(t *testing.T) {
	trial := TrialSeed(7, 3)
	for k := 0; k < 200; k++ {
		ent := ProcFaultEntity(2, k)
		d := ExpDuration(1000, trial, ent)
		if d < 1 {
			t.Fatalf("draw %d: non-positive duration %d", k, d)
		}
		if d2 := ExpDuration(1000, trial, ent); d2 != d {
			t.Fatalf("draw %d: repeat draw %d != %d", k, d2, d)
		}
	}
	// A tiny mean still yields at least one tick.
	if d := ExpDuration(1, trial, ProcFaultEntity(0, 0)); d < 1 {
		t.Fatalf("mean-1 draw yields %d", d)
	}
}

func TestExpDurationMeanRoughlyMatches(t *testing.T) {
	const mean, draws = 10_000, 4000
	trial := TrialSeed(11, 0)
	var sum int64
	for k := 0; k < draws; k++ {
		sum += ExpDuration(mean, trial, ProcFaultEntity(1, k))
	}
	got := float64(sum) / draws
	if got < 0.9*mean || got > 1.1*mean {
		t.Fatalf("empirical mean %.0f is not within 10%% of %d", got, mean)
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
			add(ProcFaultEntity(p, k), "proc")
		}
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			if u == v {
				continue
			}
			for k := 0; k < 16; k++ {
				add(LinkFaultEntity(u, v, k), "link")
			}
		}
	}
	// Fault entities live in their own kind space, disjoint from task
	// and communication entities.
	add(taskEnt(0), "task")
	add(commEnt(0, 1), "comm")
}

func TestFaultModelValidate(t *testing.T) {
	cases := []struct {
		name string
		m    FaultModel
		ok   bool
	}{
		{"zero", FaultModel{}, true},
		{"crash only", FaultModel{MTBF: 100}, true},
		{"crash and repair", FaultModel{MTBF: 100, MeanRepair: 10}, true},
		{"links", FaultModel{LinkMTBF: 50, MeanOutage: 5}, true},
		{"negative mtbf", FaultModel{MTBF: -1}, false},
		{"negative repair", FaultModel{MeanRepair: -2}, false},
		{"outage without mean", FaultModel{LinkMTBF: 50}, false},
		{"negative outage", FaultModel{LinkMTBF: 50, MeanOutage: -1}, false},
	}
	for _, tc := range cases {
		err := tc.m.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: error expected", tc.name)
		}
	}
}
