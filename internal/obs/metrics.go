package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// metricsOn is the package-wide metrics gate. Instrument points write
// only while it is set, so the disabled path is one uncontended atomic
// load and a predicted branch — no stores, no allocations.
var metricsOn atomic.Bool

// EnableMetrics turns metric recording on or off process-wide. Values
// accumulated before a disable are retained; use ResetMetrics to zero
// them.
func EnableMetrics(on bool) { metricsOn.Store(on) }

// MetricsEnabled reports whether metric recording is on.
func MetricsEnabled() bool { return metricsOn.Load() }

// registry is the process-wide metric index. Metrics register once, at
// package init of the instrumented packages, and live forever; the
// registry is therefore append-only and the mutex is never on a hot
// path.
var registry struct {
	mu         sync.Mutex
	counters   []*Counter
	gauges     []*Gauge
	histograms []*Histogram
}

// Counter is a monotone event count. The zero value is unusable; obtain
// counters with NewCounter so they appear in snapshots.
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter registers and returns a counter. Names are conventionally
// dotted paths ("sched.est.rebuild"); registering the same name twice
// panics, so instrumented packages declare their counters once as
// package-level vars.
func NewCounter(name string) *Counter {
	c := &Counter{name: name}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	mustFresh(name)
	registry.counters = append(registry.counters, c)
	return c
}

// Inc adds 1 when metrics are enabled.
func (c *Counter) Inc() {
	if metricsOn.Load() {
		c.v.Add(1)
	}
}

// Add adds d when metrics are enabled.
func (c *Counter) Add(d int64) {
	if metricsOn.Load() {
		c.v.Add(d)
	}
}

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Value returns the accumulated count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time level that also tracks its high-water mark
// (the Max column of a snapshot). In-flight counts use Add(±1).
type Gauge struct {
	name string
	v    atomic.Int64
	max  atomic.Int64
}

// NewGauge registers and returns a gauge. Duplicate names panic.
func NewGauge(name string) *Gauge {
	g := &Gauge{name: name}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	mustFresh(name)
	registry.gauges = append(registry.gauges, g)
	return g
}

// Set stores v when metrics are enabled, folding it into the high-water
// mark.
func (g *Gauge) Set(v int64) {
	if !metricsOn.Load() {
		return
	}
	g.v.Store(v)
	g.foldMax(v)
}

// Add shifts the level by d when metrics are enabled, folding the new
// level into the high-water mark.
func (g *Gauge) Add(d int64) {
	if !metricsOn.Load() {
		return
	}
	g.foldMax(g.v.Add(d))
}

func (g *Gauge) foldMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark since the last reset.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Histogram counts observations into fixed buckets: bucket i holds
// observations v <= bounds[i], with one implicit overflow bucket above
// the last bound. Bounds are fixed at registration, so recording is an
// atomic increment after a small binary search — no allocation, safe
// for concurrent use.
type Histogram struct {
	name    string
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1, last is overflow
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram registers and returns a histogram with the given
// ascending bucket upper bounds. Duplicate names and unsorted bounds
// panic.
func NewHistogram(name string, bounds ...int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{
		name:    name,
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	mustFresh(name)
	registry.histograms = append(registry.histograms, h)
	return h
}

// Observe records one value when metrics are enabled.
func (h *Histogram) Observe(v int64) {
	if !metricsOn.Load() {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets returns the bucket upper bounds and the matching counts; the
// final count (one longer than bounds) is the overflow bucket.
func (h *Histogram) Buckets() (bounds []int64, counts []int64) {
	counts = make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return h.bounds, counts
}

// mustFresh panics when name is already registered; callers hold the
// registry mutex.
func mustFresh(name string) {
	for _, c := range registry.counters {
		if c.name == name {
			panic("obs: duplicate metric " + name)
		}
	}
	for _, g := range registry.gauges {
		if g.name == name {
			panic("obs: duplicate metric " + name)
		}
	}
	for _, h := range registry.histograms {
		if h.name == name {
			panic("obs: duplicate metric " + name)
		}
	}
}

// ResetMetrics zeroes every registered metric. Tests use it to make
// process-global counters assertable.
func ResetMetrics() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, g := range registry.gauges {
		g.v.Store(0)
		g.max.Store(0)
	}
	for _, h := range registry.histograms {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
}

// Sample is one metric's state in a snapshot.
type Sample struct {
	Name string
	Kind string // "counter", "gauge", "histogram"
	// Value is the count for counters, the level for gauges, and the
	// observation count for histograms.
	Value int64
	// Max is the gauge high-water mark; Sum the histogram value sum.
	Max, Sum int64
	// Bounds and Counts describe histogram buckets; Counts has one extra
	// overflow entry.
	Bounds, Counts []int64
}

// SnapshotMetrics returns the state of every registered metric, sorted
// by name.
func SnapshotMetrics() []Sample {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	var out []Sample
	for _, c := range registry.counters {
		out = append(out, Sample{Name: c.name, Kind: "counter", Value: c.Value()})
	}
	for _, g := range registry.gauges {
		out = append(out, Sample{Name: g.name, Kind: "gauge", Value: g.Value(), Max: g.Max()})
	}
	for _, h := range registry.histograms {
		bounds, counts := h.Buckets()
		out = append(out, Sample{
			Name: h.name, Kind: "histogram",
			Value: h.Count(), Sum: h.Sum(),
			Bounds: bounds, Counts: counts,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteMetrics renders the snapshot as aligned text, one metric per
// line, sorted by name. Histograms render their non-empty buckets
// inline.
func WriteMetrics(w io.Writer) error {
	samples := SnapshotMetrics()
	width := 0
	for _, s := range samples {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range samples {
		var err error
		switch s.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "%-*s  %d\n", width, s.Name, s.Value)
		case "gauge":
			_, err = fmt.Fprintf(w, "%-*s  %d (max %d)\n", width, s.Name, s.Value, s.Max)
		case "histogram":
			line := fmt.Sprintf("%-*s  n=%d sum=%d", width, s.Name, s.Value, s.Sum)
			for i, c := range s.Counts {
				if c == 0 {
					continue
				}
				if i < len(s.Bounds) {
					line += fmt.Sprintf(" le%d=%d", s.Bounds[i], c)
				} else {
					line += fmt.Sprintf(" inf=%d", c)
				}
			}
			_, err = fmt.Fprintln(w, line)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
