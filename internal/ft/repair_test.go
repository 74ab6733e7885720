package ft_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algo/bnp"
	"repro/internal/dag"
	"repro/internal/ft"
	"repro/internal/gen"
)

// cliqueFaultCase is one compiled clique schedule of the repair pin.
type cliqueFaultCase struct {
	label string
	x     *ft.Exec
}

// cliqueFaultCases compiles the repair-pin instances: two random
// families, each scheduled by HLFET on 8 homogeneous processors and by
// MCP on 16 processors with a heterogeneous speed vector.
func cliqueFaultCases(t *testing.T) []cliqueFaultCase {
	t.Helper()
	var out []cliqueFaultCase
	for _, gs := range []struct {
		family string
		seed   int64
		params gen.Params
	}{
		{"rgnos", 3, gen.Params{"v": "80", "ccr": "1"}},
		{"layered", 42, gen.Params{"v": "60", "ccr": "2"}},
	} {
		g, err := gen.Generate(gs.family, gs.seed, gs.params)
		if err != nil {
			t.Fatalf("generate %s: %v", gs.family, err)
		}
		for _, sc := range []struct {
			algo   string
			procs  int
			speeds []float64
		}{
			{"HLFET", 8, nil},
			{"MCP", 16, altSpeeds(16)},
		} {
			s, err := bnp.ScheduleHet(sc.algo, g, sc.procs, sc.speeds)
			if err != nil {
				t.Fatalf("schedule %s: %v", sc.algo, err)
			}
			x, err := ft.Compile(s)
			s.Release()
			if err != nil {
				t.Fatalf("compile %s: %v", sc.algo, err)
			}
			out = append(out, cliqueFaultCase{fmt.Sprintf("%s/%s/%d", gs.family, sc.algo, sc.procs), x})
		}
	}
	return out
}

// cliqueOutcomePin is the SHA-256 of every per-trial outcome of
// cliqueOutcomeDigest, captured at commit
// b92f7a1037926cd24f270d56eeb2402d162bfca3, before the repair pass
// seeded only its frontier and kept its scratch across crashes. It pins
// the exact crash, repair and re-placement behaviour of the resubmit
// and checkpoint policies.
const cliqueOutcomePin = "edddda7fb600ff1838772c7594a5bf250fcf81e282a557b82cfe660127bf2f51"

// cliqueReplicatePin is cliqueOutcomeDigest under the replicate policy,
// captured at commit 02cea0053d79c13f7dbb3c5816807bc390523d4d, before
// the replica placement shared the repair pass's one-pass parent fold.
const cliqueReplicatePin = "9294858a457058034b96e996d815da1eb35b2df78de75ad650b7fd4fa2b0dbe7"

// repairPolicies returns the policies the repair pass serves, for a
// schedule of the given static makespan.
func repairPolicies(static int64) []ft.RecoveryPolicy {
	return []ft.RecoveryPolicy{ft.Resubmit(), ft.Checkpoint(max(1, static/16))}
}

// replicatePolicies returns the replicate policy at two degrees: the
// eight highest b-levels, and every task.
func replicatePolicies(int64) []ft.RecoveryPolicy {
	return []ft.RecoveryPolicy{ft.Replicate(8), ft.Replicate(1 << 20)}
}

// cliqueOutcomeDigest hashes the Finished, Makespan, Horizon, Crashes,
// Lost, Busy and Down fields of trials 0..9 of every case under each of
// the policies pols returns, timetable and eager-lognormal dispatch,
// and repairing and permanent (MeanRepair 0) crashes with an MTBF of
// mtbfHalves halves of the static makespan. It also counts the trials
// that finished after a crash and those that did not finish.
func cliqueOutcomeDigest(t *testing.T, cases []cliqueFaultCase, pols func(static int64) []ft.RecoveryPolicy, mtbfHalves int64) (digest string, repaired, unfinished int) {
	t.Helper()
	h := sha256.New()
	for _, c := range cases {
		static := c.x.Static()
		for _, pol := range pols(static) {
			for si, so := range []ft.SimOptions{
				{},
				{Perturb: ft.Perturbation{Dist: ft.DistLognormal, TaskSpread: 0.3, CommSpread: 0.3}, Policy: ft.DispatchEager, Seed: 11},
			} {
				for _, repair := range []int64{max(1, static/10), 0} {
					opts := ft.Options{
						Sim:      so,
						Faults:   ft.FaultModel{MTBF: max(1, static*mtbfHalves/2), MeanRepair: repair},
						Recovery: pol,
					}
					for trial := 0; trial < 10; trial++ {
						res, err := c.x.Run(opts, trial)
						if err != nil {
							t.Fatalf("%s %s trial %d: %v", c.label, pol.Name(), trial, err)
						}
						fmt.Fprintf(h, "%s %s %d %d %d: %t %d %d %d %d %v %v\n", c.label, pol.Name(), si, repair, trial,
							res.Finished, res.Makespan, res.Horizon, res.Crashes, res.Lost, res.Busy, res.Down)
						switch {
						case !res.Finished:
							unfinished++
						case res.Crashes > 0:
							repaired++
						}
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), repaired, unfinished
}

// TestCliqueFaultOutcomesPinned requires the resubmit and checkpoint
// repair passes, and the replicate policy's replica placement, to
// reproduce their recorded per-trial outcomes exactly.
func TestCliqueFaultOutcomesPinned(t *testing.T) {
	cases := cliqueFaultCases(t)
	got, repaired, unfinished := cliqueOutcomeDigest(t, cases, repairPolicies, 1)
	if repaired == 0 || unfinished == 0 {
		t.Fatalf("fault model too weak or too strong: %d repaired, %d unfinished trials", repaired, unfinished)
	}
	if got != cliqueOutcomePin {
		t.Fatalf("clique fault outcomes digest %s, want %s", got, cliqueOutcomePin)
	}
	got, survived, lost := cliqueOutcomeDigest(t, cases, replicatePolicies, 8)
	t.Logf("replicate: %d finished after a crash, %d unfinished", survived, lost)
	if survived == 0 {
		t.Fatal("no replicate trial finished after a crash")
	}
	if got != cliqueReplicatePin {
		t.Fatalf("clique replicate outcomes digest %s, want %s", got, cliqueReplicatePin)
	}
}

// repairCase runs trials 0..trials-1 of x under sim and the recovery
// policy and fault model that sel picks: checkpoint at bit 0, else
// resubmit; repairing crashes at bit 1, else permanent ones; and an
// MTBF of 1 + sel/4 mod 3 static makespans.
func repairCase(t *testing.T, label string, x *ft.Exec, sim ft.SimOptions, sel byte, trials int) {
	t.Helper()
	static := max(1, x.Static())
	opts := ft.Options{
		Sim:      sim,
		Faults:   ft.FaultModel{MTBF: static * int64(1+sel/4%3)},
		Recovery: ft.Resubmit(),
	}
	if sel&1 != 0 {
		opts.Recovery = ft.Checkpoint(max(1, static/16))
	}
	if sel&2 != 0 {
		opts.Faults.MeanRepair = max(1, static/10)
	}
	for trial := 0; trial < trials; trial++ {
		if _, err := x.Run(opts, trial); err != nil {
			t.Fatalf("%s %s trial %d: %v", label, opts.Recovery.Name(), trial, err)
		}
	}
}

// randomRepairExec schedules a random graph of up to 24 tasks, with
// zero weights and free edges mixed in, on one to six processors with
// a random BNP algorithm, heterogeneous speeds half of the time.
func randomRepairExec(t *testing.T, rng *rand.Rand) (string, *ft.Exec) {
	t.Helper()
	n := 1 + rng.Intn(24)
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(int64(rng.Intn(5)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(4) == 0 {
				b.AddEdge(dag.NodeID(u), dag.NodeID(v), int64(rng.Intn(8)))
			}
		}
	}
	algo, procs := bnpNames[rng.Intn(len(bnpNames))], 1+rng.Intn(6)
	var speeds []float64
	if rng.Intn(2) == 0 {
		speeds = altSpeeds(procs)
	}
	s, err := bnp.ScheduleHet(algo, b.MustBuild(), procs, speeds)
	if err != nil {
		t.Fatalf("schedule %s: %v", algo, err)
	}
	x, err := ft.Compile(s)
	s.Release()
	if err != nil {
		t.Fatalf("compile %s: %v", algo, err)
	}
	return fmt.Sprintf("%s/%d/v%d", algo, procs, n), x
}

// TestRepairPassMatchesOracle checks every repair pass against the
// definitional repair and the placement invariants (RepairWatch): on
// the repair-pin corpus, the zero-weight instance, and random graphs
// with zero weights and speeds under permanent and repairing crashes.
// The random cases must reach aborts, where every processor is dead.
func TestRepairPassMatchesOracle(t *testing.T) {
	w := ft.WatchRepairs()
	defer w.Stop()
	cliqueOutcomeDigest(t, cliqueFaultCases(t), repairPolicies, 1)
	zw := zeroWeightExec(t)
	for sel := byte(0); sel < 12; sel++ {
		repairCase(t, "zero-weight rgnos", zw, ft.SimOptions{}, sel, 10)
	}
	rng := rand.New(rand.NewSource(28))
	eager := ft.SimOptions{Perturb: ft.Perturbation{Dist: ft.DistLognormal, TaskSpread: 0.3, CommSpread: 0.3}, Policy: ft.DispatchEager, Seed: 5}
	for i := 0; i < 300; i++ {
		label, x := randomRepairExec(t, rng)
		sim := ft.SimOptions{}
		if i%2 == 1 {
			sim = withSpeeds(eager, x.NumProcs(), i%4 == 1)
		}
		repairCase(t, label, x, sim, byte(rng.Intn(12)), 5)
	}
	passes, aborts, err := w.Stop()
	t.Logf("%d repair passes, %d aborted", passes, aborts)
	if err != nil {
		t.Fatal(err)
	}
	if passes == 0 || aborts == 0 {
		t.Fatalf("%d repair passes, %d aborted: the cases missed a branch", passes, aborts)
	}
}

// FuzzRepairPass checks every repair pass of fuzz-decoded executions
// against the definitional repair and the placement invariants. The
// graph, BNP algorithm, processor count, perturbation, dispatch and
// runtime speeds come from decodeZeroFaultCase; sel picks the policy,
// the fault model (as in repairCase) and, at bit 7, heterogeneous
// schedule speeds.
func FuzzRepairPass(f *testing.F) {
	f.Add([]byte{2, 6, 0, 0, 0, 1, 2, 0, 1, 5}, byte(0))
	f.Add([]byte{7, 13, 9, 4, 7, 1, 0, 2, 3, 0, 4, 1, 0, 1, 9, 0, 2, 0, 1, 3, 4, 15, 2, 5, 7, 4, 6, 2, 3, 6, 1}, byte(3))
	f.Add([]byte{15, 22, 21, 8, 46, 0, 3, 1, 2, 0, 4, 0, 1, 2, 3, 0, 1, 0, 2, 3, 4,
		0, 5, 3, 1, 7, 0, 2, 9, 8, 5, 12, 4, 3, 14, 11, 6, 15, 1, 10, 15, 6, 14, 13, 9, 7, 12, 2}, byte(128+6))
	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		c, ok := decodeZeroFaultCase(data)
		if !ok {
			return
		}
		var speeds []float64
		if sel&128 != 0 {
			speeds = altSpeeds(c.procs)
		}
		s, err := bnp.ScheduleHet(c.bnpAlgo, c.g, c.procs, speeds)
		if err != nil {
			t.Fatalf("bnp %s: %v", c.bnpAlgo, err)
		}
		x, err := ft.Compile(s)
		s.Release()
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		w := ft.WatchRepairs()
		defer w.Stop()
		repairCase(t, fmt.Sprintf("fuzz case %x", data), x, withSpeeds(c.opts, c.procs, c.speeds), sel, 3)
		if _, _, err := w.Stop(); err != nil {
			t.Fatalf("fuzz case %x sel %d: %v", data, sel, err)
		}
	})
}
