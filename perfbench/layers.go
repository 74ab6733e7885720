package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// layerMetrics derives the per-layer metrics of a traced run from its
// spans (traced set-up, one traced round, traced checks), the obs
// counters enabled over the same phases, the untraced rounds timed
// before them, and the measured tracing overhead.
func layerMetrics(tr *tracer, samples []obs.Sample, untraced timing, overhead float64) map[string]metric {
	v := tr.view()
	counter := map[string]float64{}
	for _, s := range samples {
		counter[s.Name] = float64(s.Value)
	}
	out := map[string]metric{}
	put := func(name, unit string, x float64) { out[name] = metric{x, unit} }
	busy := func(name string) float64 { return v.stats(name).self.Seconds() }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	g := v.stats("gen")
	put("gen.busy_s", "s", g.self.Seconds())
	put("gen.nodes_per_s", "1/s", div(float64(g.work), g.self.Seconds()))

	enc, dec := v.stats("dag.encode"), v.stats("dag.decode")
	put("dag.encode.busy_s", "s", enc.self.Seconds())
	put("dag.decode.busy_s", "s", dec.self.Seconds())
	put("dag.decode.mb_per_s", "MB/s", div(float64(dec.work)/1e6, dec.self.Seconds()))
	put("dag.levels.busy_s", "s", busy("dag.levels"))
	// Every decode reads back the bytes of one encode.
	put("dag.tgb_b_per_node", "B", div(float64(dec.work), float64(enc.work)))

	a := v.stats("algo")
	put("algo.cells", "count", float64(a.count))
	put("algo.cell_p50_us", "us", us(percentile(a.durs, 0.50)))
	put("algo.cell_p99_us", "us", us(percentile(a.durs, 0.99)))
	for _, c := range []core.Class{core.BNP, core.UNC, core.APN, core.PARAM} {
		put("algo."+classKey(c)+".busy_s", "s", busy("algo."+classKey(c)))
	}
	for _, al := range algorithms() {
		put(al.span+".busy_s", "s", busy(al.span))
	}

	query, rebuild := counter["sched.est.query"], counter["sched.est.rebuild"]
	put("sched.est_query", "count", query)
	put("sched.est_rebuild", "count", rebuild)
	put("sched.rebuild_ratio", "ratio", div(rebuild, query))
	put("sched.validate.busy_s", "s", busy("sched.validate"))

	hops := float64(v.stats("machine.hops").work)
	put("machine.msg_hops", "count", hops)
	put("machine.us_per_hop", "us", div(busy("algo.apn")*1e6, hops))

	run := v.stats("sim.run")
	put("sim.compile.busy_s", "s", busy("sim.compile"))
	put("sim.run.busy_s", "s", run.self.Seconds())
	put("sim.trials", "count", counter["sim.runs"])
	put("sim.events", "count", counter["sim.events"])
	put("sim.stalls", "count", counter["sim.stalls"])
	put("sim.events_per_s", "1/s", div(counter["sim.events"], run.self.Seconds()))
	put("sim.trial_p50_us", "us", us(percentile(run.perW, 0.50)))
	put("sim.trial_p99_us", "us", us(percentile(run.perW, 0.99)))

	put("ft.compile.busy_s", "s", busy("ft.compile"))
	var ftBusy float64
	for _, p := range []string{"none", "resubmit", "checkpoint", "replicate"} {
		b := busy("ft." + p)
		ftBusy += b
		put("ft."+p+".busy_s", "s", b)
	}
	put("ft.trials", "count", counter["ft.runs"])
	put("ft.events", "count", counter["ft.events"])
	put("ft.crashes", "count", counter["ft.crashes"])
	put("ft.lost", "count", counter["ft.lost"])
	put("ft.events_per_s", "1/s", div(counter["ft.events"], ftBusy))

	put("proc.gc_count", "count", div(float64(untraced.gcCycles), float64(len(untraced.rounds))))
	put("proc.gc_cpu_frac", "ratio", untraced.gcFrac)
	put("proc.steal_frac", "ratio", untraced.steal)
	put("trace.overhead_frac", "ratio", overhead)
	return out
}
