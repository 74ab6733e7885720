package ft

import (
	"testing"

	"repro/internal/algo/apn"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/machine"
)

// TestCompileAPNHopUnits checks the one-pass APN compile: task units
// sit on their processors, one hop unit follows per committed hop in
// (child, parent, route) order with the hop's interval, every hop unit
// sits on the topology's channel for its endpoints, and each channel
// queues its hops in static start order.
func TestCompileAPNHopUnits(t *testing.T) {
	g, err := gen.Generate("layered", 7, gen.Params{"v": "40", "ccr": "2"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := apn.ScheduleHet("MH", g, machine.Hypercube(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := CompileAPN(s)
	if err != nil {
		t.Fatal(err)
	}
	topo := s.Topology()
	if x.tasks != g.NumNodes() || x.numProcs != 8 || len(x.chans) != topo.NumChannels() {
		t.Fatalf("exec has %d tasks on %d procs and %d channels", x.tasks, x.numProcs, len(x.chans))
	}
	for v := 0; v < x.tasks; v++ {
		if int(x.res[v]) != s.ProcOf(dag.NodeID(v)) {
			t.Fatalf("task %d on resource %d, scheduled on %d", v, x.res[v], s.ProcOf(dag.NodeID(v)))
		}
	}
	u := int32(x.tasks)
	for v := 0; v < g.NumNodes(); v++ {
		for _, pr := range g.Preds(dag.NodeID(v)) {
			s.EachMessageHop(pr.To, dag.NodeID(v), func(h machine.LinkHop) {
				if x.floor[u] != h.Start || x.base[u] != h.Finish-h.Start {
					t.Fatalf("hop unit %d: floor %d base %d, hop [%d,%d)", u, x.floor[u], x.base[u], h.Start, h.Finish)
				}
				c := int(x.res[u]) - x.numProcs
				if c != topo.Channel(h.From, h.To) || c != h.Link || x.chans[c] != [2]int{h.From, h.To} {
					t.Fatalf("hop unit %d on channel %d, hop %d->%d on channel %d", u, c, h.From, h.To, h.Link)
				}
				u++
			})
		}
	}
	if int(u) != x.Units() || u == int32(x.tasks) {
		t.Fatalf("%d hop units for %d committed hops", x.Units()-x.tasks, int(u)-x.tasks)
	}
	for c, q := range x.queue[x.numProcs:] {
		for i := 1; i < len(q); i++ {
			if x.floor[q[i-1]] >= x.floor[q[i]] {
				t.Fatalf("channel %d queues hop %d (start %d) before hop %d (start %d)", c, q[i-1], x.floor[q[i-1]], q[i], x.floor[q[i]])
			}
		}
	}
}
