package ft_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/algo/bnp"
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

// cliqueOutcomeDigest hashes the Finished, Makespan, Horizon, Crashes,
// Lost, Busy and Down fields of trials 0..9 of every case under
// resubmit and checkpoint, timetable and eager-lognormal dispatch, and
// repairing and permanent (MeanRepair 0) crashes. It also counts the
// trials that finished after a crash and those that did not finish.
func cliqueOutcomeDigest(t *testing.T, cases []cliqueFaultCase) (digest string, repaired, unfinished int) {
	t.Helper()
	h := sha256.New()
	for _, c := range cases {
		static := c.x.Static()
		for _, pol := range []ft.RecoveryPolicy{ft.Resubmit(), ft.Checkpoint(max(1, static/16))} {
			for si, so := range []ft.SimOptions{
				{},
				{Perturb: ft.Perturbation{Dist: ft.DistLognormal, TaskSpread: 0.3, CommSpread: 0.3}, Policy: ft.DispatchEager, Seed: 11},
			} {
				for _, repair := range []int64{max(1, static/10), 0} {
					opts := ft.Options{
						Sim:      so,
						Faults:   ft.FaultModel{MTBF: max(1, static/2), MeanRepair: repair},
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
// repair passes to reproduce their recorded per-trial outcomes exactly.
func TestCliqueFaultOutcomesPinned(t *testing.T) {
	got, repaired, unfinished := cliqueOutcomeDigest(t, cliqueFaultCases(t))
	if repaired == 0 || unfinished == 0 {
		t.Fatalf("fault model too weak or too strong: %d repaired, %d unfinished trials", repaired, unfinished)
	}
	if got != cliqueOutcomePin {
		t.Fatalf("clique fault outcomes digest %s, want %s", got, cliqueOutcomePin)
	}
}
