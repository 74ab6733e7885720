package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/table"
)

// This file implements the "scaling" experiment: an empirical-complexity
// study of the reproduction itself rather than of the paper's metrics.
// Each streaming-capable generator family is run up a size ladder from
// 10^3 to 10^6 nodes; every rung is generated through the registry,
// serialized to both exchange formats (the text .tg and the binary
// .tgb), re-read from the binary form, and scheduled by the registered
// algorithms up to per-algorithm caps. The deterministic output —
// graph sizes, encoded byte counts, compression ratios, makespans, and
// the fitted log-log slopes of the structural columns — is
// byte-identical for every worker count; wall-clock timing, allocation,
// and peak-RSS columns only appear under Config.ScalingMeasure, which
// forces a serial run (concurrent cells would contend for cores and
// memory bandwidth, like Table 6's timings).

// scalingCapNone marks an algorithm or family that runs to the top of
// the ladder.
const scalingCapNone = 1 << 30

// scalingAlg pairs one registry algorithm with the largest node count it
// is asked to schedule. The caps encode the implementations' empirical
// complexity, not the paper's formulas: non-insertion BNP list
// scheduling is O(E + V·(W+P)) for ready-width W, so it climbs the full
// ladder on bounded-width families; ETF and DLS re-score every (ready ×
// processor) pair each step and the UNC clustering passes rescan
// clusters, which is quadratic or worse, so they stop early with the
// cap recorded in the column header.
type scalingAlg struct {
	alg Algorithm
	cap int
	// workCap additionally bounds v·e for the algorithms whose inner
	// loops touch every edge per node (the UNC cluster passes): a
	// v-only cap would let the dense rgnos family (e ≈ v²/15) through
	// with hundreds of times the work of a sparse rung at the same v.
	// 0 means unbounded. The budgets are set from measured rates so no
	// single cell exceeds roughly a second on commodity hardware.
	workCap int64
}

// runsAt reports whether the algorithm schedules a rung of v nodes and
// e edges. Both inputs are deterministic, so the skip pattern is too.
func (sa scalingAlg) runsAt(v, e int) bool {
	if v > sa.cap {
		return false
	}
	return sa.workCap == 0 || int64(v)*int64(e) <= sa.workCap
}

// scalingAlgs returns the ladder roster: the six BNP algorithms, the
// five UNC algorithms, and one APN representative (MH; the APN class
// schedules every message on the topology's links, which multiplies the
// work per task and caps the class lowest).
func scalingAlgs() []scalingAlg {
	caps := map[string]int{
		"ETF":  2000,  // O(W·P) candidate re-scoring per step
		"DLS":  2000,  // same scan with dynamic levels
		"MCP":  4000,  // set when the ALAP-list order was V²; now ~66 ms at 16k
		"ISH":  16000, // hole filling rescans the whole ready set per hole
		"LAST": 64000, // dynamic edge-locality priority rescans per step
		"DSC":  16000, // O((V+E) log V) cluster merging, but one processor per node
		"MH":   1000,  // APN: per-message link routing
	}
	// Measured v·e budgets for the edge-quadratic UNC passes (EZ's
	// zeroing rescan walks ~v nodes per edge; MD, DCP, and LC rescan
	// similarly with smaller constants).
	workCaps := map[string]int64{
		"EZ":  8e6,
		"LC":  8e7,
		"MD":  3e7,
		"DCP": 3e7,
	}
	var out []scalingAlg
	for _, a := range append(ByClass(BNP), ByClass(UNC)...) {
		c, ok := caps[a.Name]
		if !ok {
			c = scalingCapNone
		}
		out = append(out, scalingAlg{alg: a, cap: c, workCap: workCaps[a.Name]})
	}
	for _, a := range ByClass(APN) {
		if a.Name == "MH" {
			out = append(out, scalingAlg{alg: a, cap: caps["MH"]})
		}
	}
	return out
}

// scalingFamily is one generator family of the ladder with its caps:
// genCap bounds generation (rgnos's mean fanout of v/10 makes its edge
// set quadratic in v, so it cannot be streamed); schedCap bounds
// scheduling for the whole family. Per-algorithm caps live on
// scalingAlg; the only family-level bound left is rgnos, whose dense
// edge set makes every pass quadratic.
type scalingFamily struct {
	name     string
	genCap   int
	schedCap int
	params   func(v int) gen.Params
}

// scalingFamilies returns the ladder families. The edge-probability
// parameters shrink with v so every family holds E ≈ 4V at all rungs
// (rgnos excepted), keeping rungs comparable across sizes: layered uses
// p = 4/sqrt(v) over ~v^1.5 consecutive-layer pairs, erdos p = 8/(v-1)
// over v(v-1)/2 forward pairs.
func scalingFamilies() []scalingFamily {
	return []scalingFamily{
		{
			// Registry defaults: ~sqrt(v) layers of width sqrt(v) with
			// p = 4/sqrt(v) between consecutive layers, so E ≈ 4V.
			name: "layered", genCap: scalingCapNone, schedCap: scalingCapNone,
			params: func(v int) gen.Params {
				return gen.Params{
					"v": strconv.Itoa(v),
					"p": fmt.Sprintf("%g", math.Min(1, 4/math.Sqrt(float64(v)))),
				}
			},
		},
		{
			name: "erdos", genCap: scalingCapNone, schedCap: scalingCapNone,
			params: func(v int) gen.Params {
				p := 1.0
				if v > 1 {
					p = math.Min(1, 8/float64(v-1))
				}
				return gen.Params{
					"v": strconv.Itoa(v),
					"p": fmt.Sprintf("%g", p),
				}
			},
		},
		{
			name: "faninout", genCap: scalingCapNone, schedCap: scalingCapNone,
			params: func(v int) gen.Params {
				return gen.Params{"v": strconv.Itoa(v)}
			},
		},
		{
			name: "rgnos", genCap: 4000, schedCap: 4000,
			params: func(v int) gen.Params {
				return gen.Params{"v": strconv.Itoa(v)}
			},
		},
	}
}

// scalingLadder returns the node-count rungs: quick stays in the legacy
// generator regime for CI; full spans three decades into the streaming
// regime, spaced near-uniformly in log space so the slope fits are
// well-conditioned.
func scalingLadder(s Scale) []int {
	if s == Full {
		return []int{1000, 4000, 16000, 64000, 250000, 1000000}
	}
	return []int{1000, 2000, 4000}
}

// scaleRow is one (family, size) rung of the ladder.
type scaleRow struct {
	fam       string
	v, e      int
	tgBytes   int64
	tgbBytes  int64
	genDur    time.Duration
	ioDur     time.Duration
	allocPerV int64   // bytes allocated per node during generation (measure mode)
	rssKB     int64   // VmHWM after the rung, -1 when not measured
	length    []int64 // per roster algorithm; -1 = above cap
	secs      []float64
}

// countWriter counts bytes without retaining them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// fitSlope returns the least-squares slope of log(y) against log(x),
// i.e. the exponent s of the best power-law fit y ~ x^s. Pairs with
// non-positive coordinates are skipped; fewer than two usable points
// yield NaN.
func fitSlope(xs []float64, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (float64(n)*sxy - sx*sy) / den
}

// scalingSeed derives the generator seed of one rung; families get
// disjoint seed streams so rungs never share RNG state.
func scalingSeed(base int64, famIdx, v int) int64 {
	return base + int64(famIdx)*1_000_003 + int64(v)
}

// scalingAlgLabel renders one roster column header, cap included:
// "ETF(BNP)<=2000"; a trailing "*" marks a v·e work budget, spelled out
// in a note under the makespan table.
func scalingAlgLabel(sa scalingAlg) string {
	l := fmt.Sprintf("%s(%s)", sa.alg.Name, sa.alg.Class)
	if sa.cap != scalingCapNone {
		l += fmt.Sprintf("<=%d", sa.cap)
	}
	if sa.workCap != 0 {
		l += "*"
	}
	return l
}

// Scaling runs the million-node ladder: generation through the
// registry, text and binary serialization, binary re-read, and
// scheduling under the roster caps, then renders the scale/encoding
// table, the makespan table, the deterministic structural slopes, and —
// under Config.ScalingMeasure — measured time, allocation, peak-RSS
// columns and fitted time slopes.
func Scaling(cfg Config) error {
	measure := cfg.ScalingMeasure
	runCfg := cfg
	if measure {
		// Measured mode is serial by definition: concurrent cells would
		// share cores and memory bandwidth and corrupt the timings.
		runCfg.Workers = 1
	}
	algs := scalingAlgs()
	fams := scalingFamilies()
	sizes := scalingLadder(cfg.Scale)
	topo := apnTopology()

	var rows []scaleRow
	for fi, fam := range fams {
		for _, v := range sizes {
			if v > fam.genCap {
				continue
			}
			var before runtime.MemStats
			if measure {
				runtime.ReadMemStats(&before)
			}
			t0 := time.Now()
			g, err := gen.Generate(fam.name, scalingSeed(cfg.Seed, fi, v), fam.params(v))
			if err != nil {
				return fmt.Errorf("scaling: %s v=%d: %w", fam.name, v, err)
			}
			genDur := time.Since(t0)
			row := scaleRow{fam: fam.name, v: g.NumNodes(), e: g.NumEdges(), genDur: genDur, rssKB: -1}
			if measure {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				row.allocPerV = int64(after.TotalAlloc-before.TotalAlloc) / int64(v)
			}

			// Byte counts of both encodings; the binary round trip is
			// written for real and re-read so ioDur covers encode+decode.
			var tw countWriter
			if err := dag.WriteText(&tw, g); err != nil {
				return fmt.Errorf("scaling: %s v=%d: write text: %w", fam.name, v, err)
			}
			row.tgBytes = tw.n
			var buf bytes.Buffer
			t1 := time.Now()
			if err := dag.WriteBinary(&buf, g); err != nil {
				return fmt.Errorf("scaling: %s v=%d: write binary: %w", fam.name, v, err)
			}
			row.tgbBytes = int64(buf.Len())
			g2, err := dag.ReadBinary(&buf)
			if err != nil {
				return fmt.Errorf("scaling: %s v=%d: re-read binary: %w", fam.name, v, err)
			}
			row.ioDur = time.Since(t1)
			if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
				return fmt.Errorf("scaling: %s v=%d: binary round trip changed shape", fam.name, v)
			}
			// Schedule the re-read graph: the rung exercises the full
			// generate -> encode -> decode -> schedule pipeline.
			ng := gen.NamedGraph{Name: fmt.Sprintf("%s-v%d", fam.name, v), G: g2}
			g = nil

			var p plan[Result]
			for _, sa := range algs {
				if sa.runsAt(v, row.e) && v <= fam.schedCap {
					p.add(runCell("scaling", sa.alg, ng.Name, ng.G, BNPProcs(v), nil, topo))
				}
			}
			results, err := p.run(runCfg)
			if err != nil {
				return err
			}
			cur := cursor[Result]{rs: results}
			for _, sa := range algs {
				if sa.runsAt(v, row.e) && v <= fam.schedCap {
					r := cur.next()
					row.length = append(row.length, r.Length)
					row.secs = append(row.secs, r.Elapsed.Seconds())
				} else {
					row.length = append(row.length, -1)
					row.secs = append(row.secs, math.NaN())
				}
			}
			if measure {
				// The probe lives in internal/obs; sampling also publishes
				// the proc.peak_rss_kb gauge when metrics are on.
				row.rssKB = obs.SamplePeakRSS()
			}
			rows = append(rows, row)
		}
	}

	if err := renderScaleTable(cfg, rows, measure); err != nil {
		return err
	}
	if err := renderMakespanTable(cfg, algs, fams, rows); err != nil {
		return err
	}
	if err := renderStructuralSlopes(cfg, fams, rows); err != nil {
		return err
	}
	if measure {
		if err := renderTimeTables(cfg, algs, rows); err != nil {
			return err
		}
	}
	return nil
}

// renderScaleTable prints the per-rung structural and encoding columns;
// the measured columns render "-" outside measure mode so the
// deterministic bytes never depend on it being off.
func renderScaleTable(cfg Config, rows []scaleRow, measure bool) error {
	t := table.New("Graph scale and encoding per ladder rung",
		"family", "v", "e", ".tg-bytes", ".tgb-bytes", "tgb/tg", "gen-ms", "io-ms", "alloc-B/v", "rss-MB")
	for _, r := range rows {
		genMS, ioMS, alloc, rss := "-", "-", "-", "-"
		if measure {
			genMS = fmt.Sprintf("%.1f", float64(r.genDur.Microseconds())/1000)
			ioMS = fmt.Sprintf("%.1f", float64(r.ioDur.Microseconds())/1000)
			alloc = fmt.Sprint(r.allocPerV)
			if r.rssKB >= 0 {
				rss = fmt.Sprintf("%.0f", float64(r.rssKB)/1024)
			}
		}
		t.AddRow(r.fam, fmt.Sprint(r.v), fmt.Sprint(r.e),
			fmt.Sprint(r.tgBytes), fmt.Sprint(r.tgbBytes),
			fmt.Sprintf("%.2f", float64(r.tgbBytes)/float64(r.tgBytes)),
			genMS, ioMS, alloc, rss)
	}
	return t.Render(cfg.Out)
}

// renderMakespanTable prints the deterministic makespans under the
// roster caps; "-" marks a rung above an algorithm or family cap.
func renderMakespanTable(cfg Config, algs []scalingAlg, fams []scalingFamily, rows []scaleRow) error {
	cols := []string{"family", "v"}
	for _, sa := range algs {
		cols = append(cols, scalingAlgLabel(sa))
	}
	t := table.New("Makespans up the ladder (\"-\" = above cap)", cols...)
	for _, r := range rows {
		row := []string{r.fam, fmt.Sprint(r.v)}
		for i := range algs {
			if r.length[i] < 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprint(r.length[i]))
			}
		}
		t.AddRow(row...)
	}
	if err := t.Render(cfg.Out); err != nil {
		return err
	}
	// Record the work budgets and family-level caps next to the table so
	// a capped column is never mistaken for a failed run.
	for _, sa := range algs {
		if sa.workCap != 0 {
			fmt.Fprintf(cfg.Out, "note: %s runs only where v*e <= %.0e (edge-quadratic cluster passes)\n",
				sa.alg.Name, float64(sa.workCap))
		}
	}
	for _, f := range fams {
		notes := ""
		if f.genCap != scalingCapNone {
			notes += fmt.Sprintf(" generation<=%d (quadratic edge set)", f.genCap)
		}
		if f.schedCap != scalingCapNone {
			notes += fmt.Sprintf(" scheduling<=%d (dense edge set)", f.schedCap)
		}
		if notes != "" {
			fmt.Fprintf(cfg.Out, "note: %s:%s\n", f.name, notes)
		}
	}
	return nil
}

// renderStructuralSlopes prints the deterministic power-law fits: how
// the edge count and the binary encoding grow with v, and the
// steady-state encoding cost per node at the largest rung. These depend
// only on the generated graphs, never on the clock.
func renderStructuralSlopes(cfg Config, fams []scalingFamily, rows []scaleRow) error {
	t := table.New("Empirical structural complexity (least-squares log-log slopes)",
		"family", "rungs", "e~v^", ".tgb~v^", ".tgb-B/v@max")
	for _, f := range fams {
		var vs, es, bs []float64
		var last scaleRow
		for _, r := range rows {
			if r.fam != f.name {
				continue
			}
			vs = append(vs, float64(r.v))
			es = append(es, float64(r.e))
			bs = append(bs, float64(r.tgbBytes))
			last = r
		}
		if len(vs) == 0 {
			continue
		}
		t.AddRow(f.name, fmt.Sprint(len(vs)),
			fmt.Sprintf("%.2f", fitSlope(vs, es)),
			fmt.Sprintf("%.2f", fitSlope(vs, bs)),
			fmt.Sprintf("%.1f", float64(last.tgbBytes)/float64(last.v)))
	}
	return t.Render(cfg.Out)
}

// renderTimeTables prints the measured scheduling seconds and the
// fitted time slopes (time ~ v^s over the rungs an algorithm ran).
// Measure mode only: these are wall-clock values.
func renderTimeTables(cfg Config, algs []scalingAlg, rows []scaleRow) error {
	cols := []string{"family", "v"}
	for _, sa := range algs {
		cols = append(cols, scalingAlgLabel(sa))
	}
	t := table.New("Scheduling time (seconds, serial)", cols...)
	for _, r := range rows {
		row := []string{r.fam, fmt.Sprint(r.v)}
		for i := range algs {
			if math.IsNaN(r.secs[i]) {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.4f", r.secs[i]))
			}
		}
		t.AddRow(row...)
	}
	if err := t.Render(cfg.Out); err != nil {
		return err
	}

	fams := map[string]bool{}
	var order []string
	for _, r := range rows {
		if !fams[r.fam] {
			fams[r.fam] = true
			order = append(order, r.fam)
		}
	}
	slopeCols := append([]string{"family", "fit"}, cols[2:]...)
	st := table.New("Empirical time complexity (scheduling seconds ~ v^slope)", slopeCols...)
	for _, fam := range order {
		row := []string{fam, "t~v^"}
		for i := range algs {
			var vs, ts []float64
			for _, r := range rows {
				if r.fam != fam || math.IsNaN(r.secs[i]) {
					continue
				}
				vs = append(vs, float64(r.v))
				ts = append(ts, r.secs[i])
			}
			s := fitSlope(vs, ts)
			if math.IsNaN(s) {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.2f", s))
			}
		}
		st.AddRow(row...)
	}
	return st.Render(cfg.Out)
}
