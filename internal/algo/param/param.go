// Package param decomposes clique-model list scheduling into orthogonal
// components and composes schedulers from them, in the spirit of the
// parameterized task graph scheduling algorithm (PTGS) of Coleman,
// Titzer and Taufer (2024): instead of comparing monolithic algorithms,
// every point of the design space
//
//	priority metric × processor-selection rule × slot policy × regime
//
// is a scheduler, so makespan differences can be attributed to the
// individual design choices.
//
// The four axes are:
//
//   - Metric — the node priority: static b-level (sl), t-level (tl),
//     b-level + t-level (bt), the ALAP-list order of MCP (alap), or the
//     dynamic level of DLS (dl).
//   - Rule — the processor choice for the selected node: earliest start
//     time (est), earliest finish time (eft), or the dynamic-level rule
//     of Sih & Lee (dl), which charges a processor the node's execution
//     time relative to its median across processors.
//   - Slot — whether a node may be inserted into an idle gap between
//     already scheduled tasks (ins) or only appended after the last one
//     (ni).
//   - Regime — whether the priority list is fixed up front (st) and
//     nodes are popped in that order, or every ready node is re-scored
//     against the partial schedule at each step and the best
//     (node, processor) pair wins (dy).
//
// Four classic BNP algorithms are registered combinations and run only
// through this engine (internal/algo/bnp's entry points look them up):
// HLFET = sl/est/ni/st, MCP = alap/est/ins/st, ETF = sl/est/ni/dy,
// DLS = dl/est/ni/dy.
//
// The static regime pops nodes from an algo.ReadyHeap keyed by a
// per-node priority (higher first, ties toward the smaller node ID);
// the dynamic regime breaks objective ties on the same key.
//
// Degeneracies worth knowing about, all deliberate consequences of the
// published component definitions rather than implementation accidents:
//
//   - MetricDL under RegimeStatic falls back to the metric's static part
//     (the static level), so dl/·/·/st duplicates sl/·/·/st.
//   - RuleDL picks the same processor as RuleEFT (their objectives
//     differ by a per-node constant, the median execution time), but
//     carries a different objective into dynamic node selection.
//   - On homogeneous machines every execution time equals the node
//     weight, so RuleDL's objective collapses to RuleEST's; the rules
//     only separate on heterogeneous machines.
//
// Schedulers run on homogeneous or heterogeneous machines: Schedule
// takes an optional per-processor speed vector, applied via
// sched.AcquireOn (execution time ceil(weight/speed)).
package param

import (
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/sched"
)

// Metric is the node-priority component.
type Metric uint8

// The five priority metrics.
const (
	// MetricSL prioritizes by static level: the b-level with
	// communication costs ignored, descending (HLFET).
	MetricSL Metric = iota
	// MetricTL prioritizes by t-level, ascending: nodes that can start
	// earliest first.
	MetricTL
	// MetricBT prioritizes by t-level + b-level, descending: the length
	// of the longest path through the node, so critical-path nodes come
	// first.
	MetricBT
	// MetricALAP prioritizes by the lexicographic ALAP-list order of Wu
	// & Gajski's MCP: own ALAP time, then every descendant's, ascending.
	MetricALAP
	// MetricDL prioritizes by the dynamic level of Sih & Lee: static
	// level minus the node's placement objective. Under RegimeStatic the
	// objective is not yet known and the metric degenerates to MetricSL.
	MetricDL
)

// Rule is the processor-selection component.
type Rule uint8

// The three processor-selection rules.
const (
	// RuleEST places the node where it starts earliest.
	RuleEST Rule = iota
	// RuleEFT places the node where it finishes earliest — on
	// heterogeneous machines a fast processor can win over an earlier
	// but slower start (the HEFT processor rule).
	RuleEFT
	// RuleDL places the node by Sih & Lee's heterogeneous dynamic level:
	// EST plus execution time minus the node's median execution time
	// across processors. The chosen processor always matches RuleEFT's;
	// the objective value carried into dynamic node selection differs.
	RuleDL
)

// Slot is the slot-policy component.
type Slot uint8

// The two slot policies.
const (
	// SlotNonInsertion appends the node after the last task of the
	// chosen processor.
	SlotNonInsertion Slot = iota
	// SlotInsertion may place the node into an earlier idle gap that
	// fits it.
	SlotInsertion
)

// Regime is the priority-regime component.
type Regime uint8

// The two priority regimes.
const (
	// RegimeStatic fixes the priority list up front and pops nodes in
	// that order.
	RegimeStatic Regime = iota
	// RegimeDynamic re-scores every ready node against the partial
	// schedule at each step and schedules the best (node, processor)
	// pair.
	RegimeDynamic
)

var (
	metricNames = [...]string{"sl", "tl", "bt", "alap", "dl"}
	ruleNames   = [...]string{"est", "eft", "dl"}
	slotNames   = [...]string{"ni", "ins"}
	regimeNames = [...]string{"st", "dy"}
)

// String returns the metric's short token.
func (m Metric) String() string { return name(metricNames[:], int(m), "Metric") }

// String returns the rule's short token.
func (r Rule) String() string { return name(ruleNames[:], int(r), "Rule") }

// String returns the slot policy's short token.
func (s Slot) String() string { return name(slotNames[:], int(s), "Slot") }

// String returns the regime's short token.
func (r Regime) String() string { return name(regimeNames[:], int(r), "Regime") }

func name(names []string, i int, kind string) string {
	if i < 0 || i >= len(names) {
		return fmt.Sprintf("%s(%d)", kind, i)
	}
	return names[i]
}

// Combo is one point of the component cross-product: a complete list
// scheduler.
type Combo struct {
	Metric Metric
	Rule   Rule
	Slot   Slot
	Regime Regime
}

// Name returns the canonical combo name, e.g. "alap/est/ins/st" for
// MCP: metric/rule/slot/regime with the short component tokens.
func (c Combo) Name() string {
	return c.Metric.String() + "/" + c.Rule.String() + "/" + c.Slot.String() + "/" + c.Regime.String()
}

// validate rejects out-of-range component values.
func (c Combo) validate() error {
	if int(c.Metric) >= len(metricNames) || int(c.Rule) >= len(ruleNames) ||
		int(c.Slot) >= len(slotNames) || int(c.Regime) >= len(regimeNames) {
		return fmt.Errorf("param: invalid combo %+v", c)
	}
	return nil
}

// Combos returns the full component cross-product (currently 5×3×2×2 =
// 60 schedulers) in a fixed deterministic order: metric-major, then
// rule, slot, regime.
func Combos() []Combo {
	out := make([]Combo, 0, len(metricNames)*len(ruleNames)*len(slotNames)*len(regimeNames))
	for m := range metricNames {
		for r := range ruleNames {
			for sl := range slotNames {
				for re := range regimeNames {
					out = append(out, Combo{Metric(m), Rule(r), Slot(sl), Regime(re)})
				}
			}
		}
	}
	return out
}

// ParseCombo parses a canonical combo name (see Combo.Name) back into a
// Combo.
func ParseCombo(s string) (Combo, error) {
	var c Combo
	rest := s
	next := func() string {
		for i := 0; i < len(rest); i++ {
			if rest[i] == '/' {
				tok := rest[:i]
				rest = rest[i+1:]
				return tok
			}
		}
		tok := rest
		rest = ""
		return tok
	}
	find := func(names []string, tok string) (int, bool) {
		for i, n := range names {
			if n == tok {
				return i, true
			}
		}
		return 0, false
	}
	m, ok1 := find(metricNames[:], next())
	r, ok2 := find(ruleNames[:], next())
	sl, ok3 := find(slotNames[:], next())
	re, ok4 := find(regimeNames[:], next())
	if !ok1 || !ok2 || !ok3 || !ok4 || rest != "" {
		return c, fmt.Errorf("param: cannot parse combo %q", s)
	}
	return Combo{Metric(m), Rule(r), Slot(sl), Regime(re)}, nil
}

// Registration is one named combo in the registry.
type Registration struct {
	// Name is the registered name, e.g. "MCP".
	Name string
	// Combo is the component combination it denotes.
	Combo Combo
	// Doc is a one-line description.
	Doc string
}

var registry = map[string]Registration{}

// Register adds a named combo to the registry. It fails on an empty
// name, a duplicate, or an invalid combo.
func Register(name string, c Combo, doc string) error {
	if name == "" {
		return fmt.Errorf("param: empty registration name")
	}
	if err := c.validate(); err != nil {
		return err
	}
	if _, dup := registry[name]; dup {
		return fmt.Errorf("param: duplicate registration %q", name)
	}
	registry[name] = Registration{Name: name, Combo: c, Doc: doc}
	return nil
}

// MustRegister is Register that panics on error, for init-time
// one-liners.
func MustRegister(name string, c Combo, doc string) {
	if err := Register(name, c, doc); err != nil {
		panic(err)
	}
}

// Lookup returns the combo registered under name.
func Lookup(name string) (Combo, bool) {
	reg, ok := registry[name]
	return reg.Combo, ok
}

// Named returns all registrations sorted by name.
func Named() []Registration {
	out := make([]Registration, 0, len(registry))
	for _, reg := range registry {
		out = append(out, reg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Schedule runs the combo on g with numProcs processors and an optional
// per-processor speed vector (nil for the homogeneous model). The
// returned schedule is complete; hand it back with Release when done.
func (c Combo) Schedule(g *dag.Graph, numProcs int, speeds []float64) (*sched.Schedule, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	s, err := sched.AcquireOn(g, numProcs, speeds)
	if err != nil {
		return nil, err
	}
	c.Run(g, s)
	return s, nil
}
