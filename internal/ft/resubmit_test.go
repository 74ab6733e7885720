package ft_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/algo/bnp"
	"repro/internal/dag"
	"repro/internal/ft"
	"repro/internal/gen"
	"repro/internal/sim"
)

// zeroWeightExec compiles HLFET on 8 processors for an rgnos graph in
// which every third task weighs nothing and every edge out of such a
// task is free, so repair passes keep landing tasks on the finish of a
// zero-length slot. It checks the fault-free run against sim first.
func zeroWeightExec(t *testing.T) *ft.Exec {
	t.Helper()
	src, err := gen.Generate("rgnos", 5, gen.Params{"v": "80", "ccr": "1"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	b := dag.NewBuilder()
	for v := 0; v < src.NumNodes(); v++ {
		w := src.Weight(dag.NodeID(v))
		if v%3 == 0 {
			w = 0
		}
		b.AddNode(w)
	}
	for v := 0; v < src.NumNodes(); v++ {
		for _, a := range src.Succs(dag.NodeID(v)) {
			w := a.Weight
			if v%3 == 0 {
				w = 0
			}
			b.AddEdge(dag.NodeID(v), a.To, w)
		}
	}
	return compileZeroFault(t, "zero-weight rgnos", b.MustBuild(), 8)
}

// compileZeroFault schedules g with HLFET, compiles it for sim and ft,
// and requires fault-free ft runs to finish at sim's makespans.
func compileZeroFault(t *testing.T, label string, g *dag.Graph, procs int) *ft.Exec {
	t.Helper()
	s, err := bnp.ScheduleHet("HLFET", g, procs, nil)
	if err != nil {
		t.Fatalf("%s: schedule: %v", label, err)
	}
	defer s.Release()
	plan, err := sim.Compile(s)
	if err != nil {
		t.Fatalf("%s: sim compile: %v", label, err)
	}
	x, err := ft.Compile(s)
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	for oi, opts := range zeroFaultOptions(procs, false) {
		checkZeroFault(t, fmt.Sprintf("%s opts[%d]", label, oi), plan, x, opts)
	}
	return x
}

// TestZeroWeightChainReplays runs a co-located chain of zero-weight
// tasks fault-free: its slots share one start, and the replay must
// still run them parent first.
func TestZeroWeightChainReplays(t *testing.T) {
	b := dag.NewBuilder()
	prev := b.AddNode(0)
	for i := 0; i < 3; i++ {
		n := b.AddNode(0)
		b.AddEdge(prev, n, 0)
		prev = n
	}
	compileZeroFault(t, "zero-weight chain", b.MustBuild(), 1)
}

// TestRepairZeroWeightTasks runs resubmit and checkpoint on a graph
// with zero-weight tasks under repairing and permanent crashes: every
// repair pass must place its tasks, and the utilization identity must
// hold.
func TestRepairZeroWeightTasks(t *testing.T) {
	x := zeroWeightExec(t)
	static := x.Static()
	repaired := 0
	for _, pol := range []ft.RecoveryPolicy{ft.Resubmit(), ft.Checkpoint(max(1, static/16))} {
		for _, repair := range []int64{max(1, static/10), 0} {
			opts := ft.Options{Faults: sim.FaultModel{MTBF: max(1, static/2), MeanRepair: repair}, Recovery: pol}
			for trial := 0; trial < 40; trial++ {
				res, err := x.Run(opts, trial)
				if err != nil {
					t.Fatalf("%s trial %d: %v", pol.Name(), trial, err)
				}
				for p := range res.Busy {
					if got := res.Busy[p] + res.Idle[p] + res.Down[p]; got != res.Horizon {
						t.Fatalf("%s trial %d proc %d: busy+idle+down = %d, horizon = %d", pol.Name(), trial, p, got, res.Horizon)
					}
				}
				if res.Finished && res.Crashes > 0 {
					repaired++
				}
			}
		}
	}
	if repaired == 0 {
		t.Fatal("no trial finished after a crash")
	}
}

// TestRepairAllocsFlatInCrashes requires the repair passes of a trial
// to reuse their scratch: as the crash rate rises, one resubmit trial
// of HLFET on 32 processors (rgnos v=80) may allocate more only where a
// slice outgrows its capacity, which is at most a few dozen times a
// run, not once or more per crash. A warm trial reuses the pooled
// runtime and repair schedule whole, so it also stays under an absolute
// bound: the Result's busy, down and idle slices and the options the
// runtime points at.
func TestRepairAllocsFlatInCrashes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	g, err := gen.Generate("rgnos", 9, gen.Params{"v": "80", "ccr": "1"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s, err := bnp.ScheduleHet("HLFET", g, 32, nil)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	x, err := ft.Compile(s)
	s.Release()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	static := x.Static()
	var crashes []int
	var allocs []float64
	for _, div := range []int64{1, 4, 16} {
		opts := ft.Options{
			Faults:   sim.FaultModel{MTBF: max(1, static/div), MeanRepair: max(1, static/10)},
			Recovery: ft.Resubmit(),
		}
		res, err := x.Run(opts, 0)
		if err != nil || !res.Finished {
			t.Fatalf("MTBF static/%d: finished %v, err %v", div, res.Finished, err)
		}
		crashes = append(crashes, res.Crashes)
		allocs = append(allocs, testing.AllocsPerRun(10, func() {
			if _, err := x.Run(opts, 0); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("crashes %v, allocations %v", crashes, allocs)
	for i := 1; i < len(crashes); i++ {
		if crashes[i] <= crashes[i-1] {
			t.Fatalf("crash counts %v do not rise with the crash rate", crashes)
		}
		if extra := allocs[i] - allocs[0]; extra*10 > float64(crashes[i]-crashes[0]) {
			t.Fatalf("%v allocations at %v crashes: %.0f more for %d more crashes",
				allocs, crashes, extra, crashes[i]-crashes[0])
		}
	}
	for i, a := range allocs {
		if a > 8 {
			t.Fatalf("%.0f allocations per warm resubmit trial at %d crashes, want at most 8", a, crashes[i])
		}
	}
}

// TestConcurrentRunsMatchSerial runs the trials of each repair-pin
// Exec from several goroutines at once and requires every result to
// equal the serial run's: repair scratch belongs to a run, not to the
// shared Exec.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	const trials, workers = 12, 4
	for _, c := range cliqueFaultCases(t) {
		static := c.x.Static()
		for _, pol := range []ft.RecoveryPolicy{ft.Resubmit(), ft.Checkpoint(max(1, static/16))} {
			opts := ft.Options{Faults: sim.FaultModel{MTBF: max(1, static/2), MeanRepair: max(1, static/10)}, Recovery: pol}
			want := make([]ft.Result, trials)
			for trial := range want {
				res, err := c.x.Run(opts, trial)
				if err != nil {
					t.Fatalf("%s %s trial %d: %v", c.label, pol.Name(), trial, err)
				}
				want[trial] = res
			}
			got := make([][]ft.Result, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := range got {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					got[w] = make([]ft.Result, trials)
					// Each worker walks the trials from a different
					// offset, so different trials overlap in time.
					for i := 0; i < trials; i++ {
						trial := (i + w*trials/workers) % trials
						res, err := c.x.Run(opts, trial)
						if err != nil {
							errs[w] = err
							return
						}
						got[w][trial] = res
					}
				}(w)
			}
			wg.Wait()
			for w := range got {
				if errs[w] != nil {
					t.Fatalf("%s %s worker %d: %v", c.label, pol.Name(), w, errs[w])
				}
				if !reflect.DeepEqual(got[w], want) {
					t.Fatalf("%s %s worker %d: concurrent results differ from serial", c.label, pol.Name(), w)
				}
			}
		}
	}
}
