package ft_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/dag"
	"repro/internal/ft"
	"repro/internal/machine"
	"repro/internal/sim"
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
	opts    sim.Options
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
		opts: sim.Options{
			Perturb: sim.Perturbation{Dist: sim.Distribution(data[3] % 3), TaskSpread: spread, CommSpread: spread},
			Policy:  sim.Policy(data[4] % 2),
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
func withSpeeds(opts sim.Options, numProcs int, want bool) sim.Options {
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
// an APN algorithm and requires ft at zero faults to reproduce
// sim.Plan.Run exactly, under the decoded perturbation, dispatch policy
// and runtime speeds.
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
		plan, err := sim.Compile(cs)
		if err != nil {
			t.Fatalf("%s: sim compile: %v", label, err)
		}
		x, err := ft.Compile(cs)
		cs.Release()
		if err != nil {
			t.Fatalf("%s: ft compile: %v", label, err)
		}
		checkZeroFault(t, label+" "+c.bnpAlgo, plan, x, withSpeeds(c.opts, c.procs, c.speeds))

		ms, err := apn.ScheduleHet(c.apnAlgo, c.g, c.topo, nil)
		if err != nil {
			t.Fatalf("%s: apn %s on %s: %v", label, c.apnAlgo, c.topo.Name(), err)
		}
		if plan, err = sim.CompileAPN(ms); err != nil {
			t.Fatalf("%s: sim compile APN: %v", label, err)
		}
		if x, err = ft.CompileAPN(ms); err != nil {
			t.Fatalf("%s: ft compile APN: %v", label, err)
		}
		checkZeroFault(t, label+" "+c.apnAlgo+" on "+c.topo.Name(), plan, x, withSpeeds(c.opts, c.topo.NumProcs(), c.speeds))
	})
}
