package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around an exported function of that layer.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	// Work is the amount of work the call did, in the unit its name
	// implies: nodes for gen and dag.encode, bytes for dag.decode,
	// trials for sim.run and ft.<policy>, message hops for machine.hops,
	// ops for bench.round.
	Work int64 `json:"work,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method returns at once without reading the
// clock or allocating.
type tracer struct {
	t0    time.Time
	spans []span
	open  int32 // innermost open span, -1 at the top level
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

// begin opens a span. Its layer is the name's first dot-separated
// component.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	layer, _, _ := strings.Cut(name, ".")
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: int64(time.Since(t.t0)), End: -1, Parent: t.open})
	t.open = id
	return id
}

// end closes the span begin returned, recording the work it did.
func (t *tracer) end(id int32, work int64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Work = work
	t.open = s.Parent
}

// writeJSON writes every span as one JSON document.
func (t *tracer) writeJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanStats aggregates the spans of one name or name prefix.
type spanStats struct {
	count int64
	self  time.Duration // summed self time: duration minus child spans
	work  int64
	durs  []time.Duration // per-span durations, for percentiles
	perW  []time.Duration // per-span duration per unit of work
}

// layerView answers per-name queries over a finished trace.
type layerView struct {
	spans []span
	self  []int64
}

func (t *tracer) view() layerView {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.End - s.Start - child[i]
	}
	return layerView{spans: t.spans, self: self}
}

// stats aggregates the spans named prefix or prefix + "." + anything.
func (v layerView) stats(prefix string) spanStats {
	var st spanStats
	for i, s := range v.spans {
		if s.Name != prefix && !strings.HasPrefix(s.Name, prefix+".") {
			continue
		}
		d := time.Duration(s.End - s.Start)
		st.count++
		st.self += time.Duration(v.self[i])
		st.work += s.Work
		st.durs = append(st.durs, d)
		if s.Work > 0 {
			st.perW = append(st.perW, d/time.Duration(s.Work))
		}
	}
	return st
}

// percentile returns the nearest-rank q-quantile of ds, or 0 when empty.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
