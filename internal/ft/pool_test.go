package ft_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/algo/bnp"
	"repro/internal/ft"
	"repro/internal/gen"
)

// cliqueExecOn compiles MCP on procs processors for an rgnos v=60 graph.
func cliqueExecOn(t *testing.T, procs int) *ft.Exec {
	t.Helper()
	g, err := gen.Generate("rgnos", 17, gen.Params{"v": "60", "ccr": "1"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s, err := bnp.ScheduleHet("MCP", g, procs, nil)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	defer s.Release()
	x, err := ft.Compile(s)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return x
}

// cloneResult deep-copies a Result, so later runs cannot reach it.
func cloneResult(r ft.Result) ft.Result {
	r.Busy = append([]int64(nil), r.Busy...)
	r.Idle = append([]int64(nil), r.Idle...)
	r.Down = append([]int64(nil), r.Down...)
	return r
}

// TestPooledRunsInterleaved interleaves the trials of three Execs that
// share the runtime pool — an APN execution with link outages (with
// and without crashes), and 2- and 16-processor clique executions
// under Replicate and Resubmit — each with timetable and eager
// dispatch. Every Result must equal the
// first pass's in every later pass, and the first pass's Results must
// still hold their values after all of them: a pooled runtime keeps
// nothing of a previous run, and a Result aliases none of its arrays.
func TestPooledRunsInterleaved(t *testing.T) {
	type job struct {
		label string
		x     *ft.Exec
		opts  ft.Options
	}
	var jobs []job
	dispatch := []ft.Dispatch{ft.DispatchTimetable, ft.DispatchEager}
	apnX, apnOpts := apnFaultExec(t)
	linksOnly := apnOpts
	linksOnly.Faults.MTBF, linksOnly.Faults.MeanRepair = 0, 0 // outages decide every makespan
	for _, d := range dispatch {
		for _, o := range []ft.Options{apnOpts, linksOnly} {
			o.Sim.Policy = d
			jobs = append(jobs, job{fmt.Sprintf("apn/%s/mtbf=%d", d, o.Faults.MTBF), apnX, o})
		}
	}
	for _, procs := range []int{2, 16} {
		x := cliqueExecOn(t, procs)
		for _, pol := range []ft.RecoveryPolicy{ft.Replicate(4), ft.Resubmit()} {
			for _, d := range dispatch {
				opts := faultyOptions(x, pol)
				opts.Sim.Policy = d
				jobs = append(jobs, job{fmt.Sprintf("clique/%d/%s/%s", procs, pol.Name(), d), x, opts})
			}
		}
	}
	const trials = 4
	run := func(j, trial int) ft.Result {
		res, err := jobs[j].x.Run(jobs[j].opts, trial)
		if err != nil {
			t.Fatalf("%s trial %d: %v", jobs[j].label, trial, err)
		}
		return res
	}
	// The baseline runs each (job, trial) on a fresh runtime: two
	// collections empty the sync.Pool, whose victim cache survives one.
	first := make([][]ft.Result, len(jobs))
	want := make([][]ft.Result, len(jobs))
	for j := range jobs {
		for trial := 0; trial < trials; trial++ {
			runtime.GC()
			runtime.GC()
			res := run(j, trial)
			first[j] = append(first[j], res)
			want[j] = append(want[j], cloneResult(res))
		}
	}
	// Interleaved passes, forwards and then backwards, give every run a
	// different predecessor in the pool.
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < trials; k++ {
			for i := range jobs {
				trial, j := k, i
				if pass == 1 {
					trial, j = trials-1-k, len(jobs)-1-i
				}
				if res := run(j, trial); !reflect.DeepEqual(res, want[j][trial]) {
					t.Fatalf("%s trial %d pass %d: %+v, baseline %+v", jobs[j].label, trial, pass, res, want[j][trial])
				}
			}
		}
	}
	var crashes, lost int
	for j := range jobs {
		if !reflect.DeepEqual(first[j], want[j]) {
			t.Fatalf("%s: a later run overwrote the baseline's Results", jobs[j].label)
		}
		for _, r := range want[j] {
			crashes += r.Crashes
			lost += r.Lost
		}
	}
	if crashes == 0 || lost == 0 {
		t.Fatalf("%d crashes and %d lost tasks: the instances do not exercise recovery", crashes, lost)
	}
}
