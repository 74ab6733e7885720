package ft_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/dag"
	"repro/internal/ft"
	"repro/internal/gen"
	"repro/internal/machine"
)

// fuzzTopologies are the APN machines FuzzZeroFaultMatchesSim draws
// from: small enough that routes stay short, varied enough that
// messages contend for channels.
func fuzzTopologies() []*machine.Topology {
	return []*machine.Topology{
		machine.Ring(4),
		machine.Hypercube(2),
		machine.Mesh(2, 3),
		machine.Star(4),
		machine.Chain(3),
		machine.Clique(3),
	}
}

// zeroFaultCase is one decoded fuzz input: a graph, the algorithms and
// machines to schedule it on, and the simulator options to run under.
type zeroFaultCase struct {
	g       *dag.Graph
	bnpAlgo string
	procs   int
	apnAlgo string
	topo    *machine.Topology
	opts    ft.SimOptions
	speeds  bool // draw runtime speeds for each machine
}

// decodeZeroFaultCase builds a DAG of at most 16 nodes and its run
// options from arbitrary bytes. Byte 0 picks the node count; byte 1 the
// BNP algorithm and a processor count of 1 to 4; byte 2 the APN
// algorithm and topology; byte 3 the distribution and one spread (0 to
// 0.8 in steps of 0.2) for tasks and communication; byte 4 the dispatch
// policy, whether runtime speeds are drawn, and the seed. Then one
// byte per node weight (0 to 4) and every following triple (i, j, c)
// an edge between nodes i and j, oriented from the smaller index, with
// cost c mod 16. Self-loops and repeated pairs are dropped. It reports
// false for inputs under five bytes.
func decodeZeroFaultCase(data []byte) (zeroFaultCase, bool) {
	if len(data) < 5 {
		return zeroFaultCase{}, false
	}
	n := int(data[0])%16 + 1
	topos := fuzzTopologies()
	spread := float64(data[3]/3%5) * 0.2
	c := zeroFaultCase{
		bnpAlgo: bnpNames[int(data[1])%len(bnpNames)],
		procs:   int(data[1])/len(bnpNames)%4 + 1,
		apnAlgo: apnNames[int(data[2])%len(apnNames)],
		topo:    topos[int(data[2])/len(apnNames)%len(topos)],
		opts: ft.SimOptions{
			Perturb: ft.Perturbation{Dist: ft.Distribution(data[3] % 3), TaskSpread: spread, CommSpread: spread},
			Policy:  ft.Dispatch(data[4] % 2),
			Seed:    int64(data[4] >> 2),
		},
		speeds: data[4]&2 != 0,
	}
	data = data[5:]
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		var w int64
		if i < len(data) {
			w = int64(data[i] % 5)
		}
		b.AddNode(w)
	}
	data = data[min(n, len(data)):]
	seen := map[[2]int]bool{}
	for ; len(data) >= 3; data = data[3:] {
		i, j := int(data[0])%n, int(data[1])%n
		if i > j {
			i, j = j, i
		}
		if i == j || seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		b.AddEdge(dag.NodeID(i), dag.NodeID(j), int64(data[2]%16))
	}
	c.g = b.MustBuild()
	return c, true
}

// withSpeeds returns opts with runtime speed factors in [0.5, 2) for
// numProcs processors, drawn from the seed, when want is set.
func withSpeeds(opts ft.SimOptions, numProcs int, want bool) ft.SimOptions {
	if want {
		rng := rand.New(rand.NewSource(opts.Seed))
		opts.Speed = make([]float64, numProcs)
		for p := range opts.Speed {
			opts.Speed[p] = 0.5 + 1.5*rng.Float64()
		}
	}
	return opts
}

// FuzzZeroFaultMatchesSim schedules fuzz-decoded graphs with a BNP and
// an APN algorithm and requires the runtime at zero faults to reproduce
// the arc-engine oracle exactly, under the decoded perturbation,
// dispatch policy and runtime speeds.
func FuzzZeroFaultMatchesSim(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 1, 2, 0, 1, 5})
	f.Add([]byte{7, 13, 9, 4, 7, 1, 0, 2, 3, 0, 4, 1, 0, 1, 9, 0, 2, 0, 1, 3, 4, 15, 2, 5, 7, 4, 6, 2, 3, 6, 1})
	f.Add([]byte{15, 22, 21, 8, 46, 0, 3, 1, 2, 0, 4, 0, 1, 2, 3, 0, 1, 0, 2, 3, 4,
		0, 5, 3, 1, 7, 0, 2, 9, 8, 5, 12, 4, 3, 14, 11, 6, 15, 1, 10, 15, 6, 14, 13, 9, 7, 12, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeZeroFaultCase(data)
		if !ok {
			return
		}
		label := fmt.Sprintf("fuzz case %x", data)
		cs, err := bnp.ScheduleHet(c.bnpAlgo, c.g, c.procs, nil)
		if err != nil {
			t.Fatalf("%s: bnp %s: %v", label, c.bnpAlgo, err)
		}
		cc := compileClique(t, label+" "+c.bnpAlgo, cs)
		checkZeroFault(t, cc.label, cc.o, cc.x, withSpeeds(c.opts, c.procs, c.speeds))

		ms, err := apn.ScheduleHet(c.apnAlgo, c.g, c.topo, nil)
		if err != nil {
			t.Fatalf("%s: apn %s on %s: %v", label, c.apnAlgo, c.topo.Name(), err)
		}
		ca := compileAPN(t, label+" "+c.apnAlgo+" on "+c.topo.Name(), ms)
		checkZeroFault(t, ca.label, ca.o, ca.x, withSpeeds(c.opts, c.topo.NumProcs(), c.speeds))
	})
}

// execOptionsCases compiles the FuzzExecOptions instances: MCP on three
// processors and MH on a 4-ring, for a v=20 RGNOS graph.
func execOptionsCases(f *testing.F) []*ft.Exec {
	g, err := gen.Generate("rgnos", 3, gen.Params{"v": "20", "ccr": "1"})
	if err != nil {
		f.Fatal(err)
	}
	cs, err := bnp.ScheduleHet("MCP", g, 3, nil)
	if err != nil {
		f.Fatal(err)
	}
	defer cs.Release()
	x, err := ft.Compile(cs)
	if err != nil {
		f.Fatal(err)
	}
	ms, err := apn.ScheduleHet("MH", g, machine.Ring(4), nil)
	if err != nil {
		f.Fatal(err)
	}
	ax, err := ft.CompileAPN(ms)
	if err != nil {
		f.Fatal(err)
	}
	return []*ft.Exec{x, ax}
}

// faultSpans bounds how many mean fault periods a faulty run of
// FuzzExecOptions may span: a run draws crashes, repairs and outage
// windows all along its span, so its cost grows with the span over the
// period, without bound as huge durations meet tiny means.
const faultSpans = 1 << 16

// tooLong reports whether a faulty run could span more than faultSpans
// fault periods: the fault-free makespan mk, plus at most one outage
// window (under 40 mean outages) per unit, over the shortest period of
// a repeating fault sequence.
func tooLong(x *ft.Exec, mk int64, f ft.FaultModel) bool {
	span := float64(mk)
	if f.LinkMTBF > 0 {
		span += 40 * float64(x.Units()) * float64(f.MeanOutage)
	}
	return f.MTBF > 0 && f.MeanRepair > 0 && span > faultSpans*(float64(f.MTBF)+float64(f.MeanRepair)) ||
		f.LinkMTBF > 0 && span > faultSpans*(float64(f.LinkMTBF)+float64(f.MeanOutage))
}

// FuzzExecOptions runs both instances under arbitrary float64 bit
// patterns for the two spreads and two alternating speed factors, and
// arbitrary int64 fault means, with no recovery: a re-executing policy
// need not end when crashes come faster than tasks finish. Byte sel
// picks the distribution, the dispatch policy, whether speeds apply
// and the trial. Either validation rejects the options (Run and
// Makespan alike), or the fault-free run returns a makespan >= 0 that
// replays the static makespan at zero spread and nominal speed under
// timetable dispatch, and the run with faults, unless tooLong, finishes
// at a makespan >= 0 with its processor time split exactly, at the
// fault-free makespan when the model injects nothing.
func FuzzExecOptions(f *testing.F) {
	bits := math.Float64bits
	f.Add(bits(0), bits(0), bits(1), bits(1), int64(0), int64(0), int64(0), int64(0), byte(0))
	f.Add(bits(0.3), bits(0.3), bits(1), bits(2), int64(40), int64(4), int64(40), int64(2), byte(2+3+6+32))
	f.Add(bits(math.NaN()), bits(0), bits(1), bits(1), int64(0), int64(0), int64(0), int64(0), byte(2))
	f.Add(bits(0.5), bits(0.5), bits(math.Inf(1)), bits(1), int64(0), int64(0), int64(0), int64(0), byte(2+6))
	f.Add(bits(2), bits(40), bits(1e300), bits(1e-300), int64(math.MaxInt64/2), int64(math.MaxInt64), int64(1), int64(math.MaxInt64), byte(2+6))
	execs := execOptionsCases(f)
	f.Fuzz(func(t *testing.T, taskSpread, commSpread, speed0, speed1 uint64, mtbf, repair, linkMTBF, outage int64, sel byte) {
		sim := ft.SimOptions{
			Perturb: ft.Perturbation{
				Dist:       ft.Distribution(sel % 3),
				TaskSpread: math.Float64frombits(taskSpread),
				CommSpread: math.Float64frombits(commSpread),
			},
			Policy: ft.Dispatch(sel / 3 % 2),
			Seed:   int64(sel),
		}
		faults := ft.FaultModel{MTBF: mtbf, MeanRepair: repair, LinkMTBF: linkMTBF, MeanOutage: outage}
		trial := int(sel >> 5)
		for i, x := range execs {
			opts := ft.Options{Sim: sim, Faults: faults}
			if sel/6%2 == 1 {
				opts.Sim.Speed = make([]float64, x.NumProcs())
				for p := range opts.Sim.Speed {
					opts.Sim.Speed[p] = math.Float64frombits([2]uint64{speed0, speed1}[p%2])
				}
			}
			mk, err := x.Makespan(opts.Sim, trial)
			if err != nil {
				if _, err := x.Run(opts, trial); err == nil {
					t.Fatalf("exec %d %+v: Makespan rejects the options, Run accepts them", i, opts)
				}
				continue
			}
			if mk < 0 {
				t.Fatalf("exec %d %+v: fault-free makespan %d", i, opts, mk)
			}
			exact := opts.Sim.Perturb.Dist == ft.DistNone || opts.Sim.Perturb.TaskSpread == 0 && opts.Sim.Perturb.CommSpread == 0
			if exact && opts.Sim.Speed == nil && opts.Sim.Policy == ft.DispatchTimetable && mk != x.Static() {
				t.Fatalf("exec %d %+v: zero-spread makespan %d, static %d", i, opts, mk, x.Static())
			}
			if faults.Validate() != nil || tooLong(x, mk, faults) {
				continue
			}
			res, err := x.Run(opts, trial)
			if err != nil {
				t.Fatalf("exec %d %+v: %v", i, opts, err)
			}
			if res.Finished && res.Makespan < 0 {
				t.Fatalf("exec %d %+v: makespan %d", i, opts, res.Makespan)
			}
			for p := range res.Busy {
				if res.Busy[p] < 0 || res.Down[p] < 0 || res.Busy[p]+res.Idle[p]+res.Down[p] != res.Horizon {
					t.Fatalf("exec %d %+v: processor %d busy %d idle %d down %d, horizon %d",
						i, opts, p, res.Busy[p], res.Idle[p], res.Down[p], res.Horizon)
				}
			}
			if faults.MTBF == 0 && faults.LinkMTBF == 0 && (!res.Finished || res.Makespan != mk) {
				t.Fatalf("exec %d %+v: run finished %v at %d without faults, Makespan %d", i, opts, res.Finished, res.Makespan, mk)
			}
		}
	})
}
