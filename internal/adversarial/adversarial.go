// Package adversarial implements PISA-style adversarial instance
// search over the generator registry: a seeded, deterministic
// evolutionary loop that mutates graph-family parameters, generator
// seeds, and per-instance edge-weight perturbations to find task graphs
// on which one scheduling algorithm beats another by the widest margin —
// or on which a ranking that the random benchmark suites report as
// stable inverts.
//
// The package is deliberately evaluation-agnostic: Search builds
// candidate graphs and hands whole populations to an Evaluator
// callback, which returns the two makespans per instance. The
// experiment engine (internal/core) supplies an Evaluator that fans the
// population through its worker pool, so the search parallelizes
// like every other experiment while the loop itself stays serial and
// deterministic: equal seeds yield byte-identical trajectories whatever
// the evaluation concurrency.
//
// Found counterexamples are archived as .tg fixtures (see fixture.go)
// and pinned by regression tests, turning every searched finding into a
// permanent tier-1 test.
package adversarial

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/dag"
	"repro/internal/gen"
)

// Objective scores one evaluated candidate from the two makespans.
// Larger is better for the search. Implementations must be pure.
type Objective interface {
	// Score maps the makespans of algorithms A and B on one instance to
	// the search objective.
	Score(lenA, lenB int64) float64
	// Name identifies the objective in experiment output and fixtures.
	Name() string
}

// GapObjective maximizes the relative makespan gap (lenA-lenB)/lenB: a
// positive score means algorithm B produced the shorter schedule, and
// the search hunts instances where B beats A by the widest margin.
type GapObjective struct{}

// Score returns (lenA-lenB)/lenB.
func (GapObjective) Score(lenA, lenB int64) float64 {
	if lenB <= 0 {
		return 0
	}
	return float64(lenA-lenB) / float64(lenB)
}

// Name returns "gap".
func (GapObjective) Name() string { return "gap" }

// FaultObjective maximizes the relative gap of fault-effective
// makespans: the evaluator feeds Score the two algorithms' expected
// realized makespans under the canonical fault scenario of
// internal/core (crashes at MTBF equal to the critical-path
// computation cost, reactive rescheduling, deadline-miss penalty)
// instead of the static lengths, so the search hunts instances whose
// static winner degrades worst under failures.
type FaultObjective struct{}

// Score returns (lenA-lenB)/lenB over fault-effective makespans.
func (FaultObjective) Score(lenA, lenB int64) float64 {
	return GapObjective{}.Score(lenA, lenB)
}

// Name returns "fault-gap".
func (FaultObjective) Name() string { return "fault-gap" }

// Candidate is one point of the search space: a generator family, an
// in-schema textual parameter set, a generation seed, and an optional
// per-instance edge-weight perturbation (multiplicative, spread
// Perturb, derived from PerturbSeed).
type Candidate struct {
	Family      string
	Params      gen.Params
	Seed        int64
	PerturbSeed int64
	Perturb     float64
}

// Key renders the candidate as a canonical string: equal candidates
// have equal keys, and keys are the deterministic tie-break of the
// search's selection step.
func (c Candidate) Key() string {
	return fmt.Sprintf("%s{%s} seed=%d perturb=%g pseed=%d",
		c.Family, gen.CanonicalParams(c.Params), c.Seed, c.Perturb, c.PerturbSeed)
}

// Build generates the candidate's graph: family generation followed by
// the candidate's edge-weight perturbation.
func (c Candidate) Build() (*dag.Graph, error) {
	g, err := gen.Generate(c.Family, c.Seed, c.Params)
	if err != nil {
		return nil, err
	}
	return PerturbEdges(g, c.PerturbSeed, c.Perturb)
}

// PerturbEdges rebuilds g with every edge weight scaled by an
// independent multiplier drawn uniformly from [1-spread, 1+spread]
// (minimum resulting weight 1). Node weights, labels, and structure are
// unchanged. The perturbation is deterministic in (g, seed, spread):
// edges are visited in canonical CSR order. A zero spread returns g
// unchanged.
func PerturbEdges(g *dag.Graph, seed int64, spread float64) (*dag.Graph, error) {
	if spread == 0 {
		return g, nil
	}
	if spread < 0 || spread >= 1 {
		return nil, fmt.Errorf("adversarial: perturbation spread must be in [0, 1), got %g", spread)
	}
	rng := rand.New(rand.NewSource(seed))
	b := dag.NewBuilder()
	for v := 0; v < g.NumNodes(); v++ {
		b.AddLabeledNode(g.Weight(dag.NodeID(v)), g.Label(dag.NodeID(v)))
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, a := range g.Succs(dag.NodeID(v)) {
			mult := 1 + (2*rng.Float64()-1)*spread
			w := int64(math.Round(float64(a.Weight) * mult))
			if w < 1 {
				w = 1
			}
			b.AddEdge(dag.NodeID(v), a.To, w)
		}
	}
	return b.Build()
}

// Options parameterizes a search run. The zero value is not runnable;
// use Defaults or fill every field.
type Options struct {
	// Seed drives every random choice of the search. Equal seeds (and
	// equal remaining options) yield byte-identical trajectories.
	Seed int64
	// Generations is the number of evolutionary steps.
	Generations int
	// Population is the number of candidates evaluated per generation.
	Population int
	// Elite is the number of top candidates carried over unchanged and
	// used as mutation parents (clamped to Population).
	Elite int
	// TopK is the number of best distinct candidates reported (and
	// archived) from the whole run.
	TopK int
	// Families names the registered generator families searched over;
	// each must be a Random family (declaring v and ccr). Empty selects
	// every registered random family.
	Families []string
	// MinNodes and MaxNodes clamp the v parameter during
	// initialization and mutation, bounding evaluation cost.
	MinNodes, MaxNodes int
	// CCRs seeds the initial population's communication-to-computation
	// ratios; empty selects {0.1, 1, 10}.
	CCRs []float64
	// MaxPerturb bounds the per-instance edge-weight perturbation
	// spread in [0, 1); zero disables perturbation mutations.
	MaxPerturb float64
	// Objective scores evaluated candidates; nil selects GapObjective.
	Objective Objective
}

// Defaults returns the search configuration used by the quick-scale
// experiment: a small population over every random family, sized to
// terminate in seconds.
func Defaults(seed int64) Options {
	return Options{
		Seed:        seed,
		Generations: 8,
		Population:  16,
		Elite:       4,
		TopK:        5,
		MinNodes:    16,
		MaxNodes:    60,
		MaxPerturb:  0.5,
	}
}

// Found is one evaluated candidate in a Report: the candidate, its
// graph, the two makespans, and the objective score.
type Found struct {
	Candidate
	Graph      *dag.Graph
	LenA, LenB int64
	Score      float64
}

// GenerationStats is one line of the search trace.
type GenerationStats struct {
	Gen     int
	Best    float64 // best score in this generation's population
	Mean    float64 // mean score over this generation's valid candidates
	Invalid int     // candidates whose generation failed (scored -Inf)
	BestKey string  // key of the generation's best candidate
}

// Report is the outcome of one search run.
type Report struct {
	AlgA, AlgB string // evaluator's algorithm pair, as labeled by the caller
	Objective  string
	Trace      []GenerationStats
	// Top holds the TopK best distinct candidates seen across all
	// generations, best first (ties in candidate-key order).
	Top []Found
}

// Evaluator computes the makespans of the fixed algorithm pair (A, B)
// on every graph of a population, indexed like the input. Evaluation
// must be deterministic in the graphs; internal/core fans this call
// through its worker pool.
type Evaluator func(graphs []*dag.Graph) ([][2]int64, error)

// Search runs the evolutionary loop: initialize a population across the
// configured families, then per generation evaluate every candidate
// through eval, keep the Elite best, and refill the population by
// mutating elites (schema-driven parameter mutation, generator
// reseeding, and edge-weight perturbation). The trajectory is
// deterministic in opts: all randomness flows from opts.Seed through a
// single serial rng, selection ties break on candidate keys, and eval's
// results are consumed in population order.
func Search(opts Options, eval Evaluator) (*Report, error) {
	if eval == nil {
		return nil, fmt.Errorf("adversarial: Search needs an Evaluator")
	}
	fams, err := searchFamilies(opts.Families)
	if err != nil {
		return nil, err
	}
	if opts.Generations < 1 || opts.Population < 1 {
		return nil, fmt.Errorf("adversarial: need Generations and Population >= 1 (got %d, %d)",
			opts.Generations, opts.Population)
	}
	if opts.MinNodes < 2 || opts.MaxNodes < opts.MinNodes {
		return nil, fmt.Errorf("adversarial: need 2 <= MinNodes <= MaxNodes (got %d, %d)",
			opts.MinNodes, opts.MaxNodes)
	}
	if opts.MaxPerturb < 0 || opts.MaxPerturb >= 1 {
		return nil, fmt.Errorf("adversarial: MaxPerturb must be in [0, 1), got %g", opts.MaxPerturb)
	}
	elite := opts.Elite
	if elite < 1 {
		elite = 1
	}
	if elite > opts.Population {
		elite = opts.Population
	}
	topK := opts.TopK
	if topK < 1 {
		topK = 1
	}
	obj := opts.Objective
	if obj == nil {
		obj = GapObjective{}
	}
	ccrs := opts.CCRs
	if len(ccrs) == 0 {
		ccrs = []float64{0.1, 1, 10}
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	pop := initialPopulation(opts, fams, ccrs, rng)

	rep := &Report{Objective: obj.Name()}
	// best accumulates the best score seen per candidate key; top-K is
	// assembled from it after the last generation.
	best := map[string]Found{}

	for g := 0; g < opts.Generations; g++ {
		scored, stats, err := evaluatePopulation(pop, fams, obj, eval)
		if err != nil {
			return nil, fmt.Errorf("adversarial: generation %d: %w", g, err)
		}
		stats.Gen = g
		rep.Trace = append(rep.Trace, stats)
		for _, f := range scored {
			if f.Graph == nil {
				continue
			}
			key := f.Key()
			if prev, ok := best[key]; !ok || f.Score > prev.Score {
				best[key] = f
			}
		}
		if g == opts.Generations-1 {
			break
		}
		pop = nextGeneration(scored, elite, opts, fams, rng)
	}

	rep.Top = selectTop(best, topK)
	return rep, nil
}

// searchFamilies resolves the configured family names, defaulting to
// every registered random family, and rejects non-random families (the
// search requires the v and ccr parameters).
func searchFamilies(names []string) ([]gen.Generator, error) {
	if len(names) == 0 {
		return gen.RandomFamilies(), nil
	}
	var out []gen.Generator
	for _, name := range names {
		g, ok := gen.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("adversarial: unknown generator family %q (have %v)", name, gen.GeneratorNames())
		}
		if !g.Random {
			return nil, fmt.Errorf("adversarial: family %q is not a random (v, ccr) family; the search needs one", name)
		}
		out = append(out, g)
	}
	return out, nil
}

// initialPopulation seeds the search: candidates cycle through the
// families and initial CCRs with uniformly drawn sizes and fresh
// generator seeds.
func initialPopulation(opts Options, fams []gen.Generator, ccrs []float64, rng *rand.Rand) []Candidate {
	pop := make([]Candidate, opts.Population)
	for i := range pop {
		f := fams[i%len(fams)]
		ccr := ccrs[(i/len(fams))%len(ccrs)]
		v := opts.MinNodes + rng.Intn(opts.MaxNodes-opts.MinNodes+1)
		pop[i] = Candidate{
			Family: f.Name,
			Params: gen.Params{
				"v":   fmt.Sprint(v),
				"ccr": gen.FormatFloatParam(ccr),
			},
			Seed: rng.Int63(),
		}
	}
	return pop
}

// evaluatePopulation builds every candidate's graph, scores the valid
// ones through eval, and returns the scored population (invalid
// candidates keep a nil Graph and -Inf score) plus the generation's
// trace statistics.
func evaluatePopulation(pop []Candidate, fams []gen.Generator, obj Objective, eval Evaluator) ([]Found, GenerationStats, error) {
	scored := make([]Found, len(pop))
	var graphs []*dag.Graph
	var valid []int
	for i, c := range pop {
		scored[i] = Found{Candidate: c, Score: math.Inf(-1)}
		g, err := c.Build()
		if err != nil {
			// In-schema parameter sets can still be rejected by a family
			// (e.g. a single-layer layered graph asked to connect); such
			// candidates score -Inf and die out deterministically.
			continue
		}
		scored[i].Graph = g
		graphs = append(graphs, g)
		valid = append(valid, i)
	}
	var stats GenerationStats
	stats.Invalid = len(pop) - len(valid)
	stats.Best = math.Inf(-1)
	if len(valid) == 0 {
		return scored, stats, nil
	}
	lens, err := eval(graphs)
	if err != nil {
		return nil, stats, err
	}
	if len(lens) != len(graphs) {
		return nil, stats, fmt.Errorf("evaluator returned %d results for %d graphs", len(lens), len(graphs))
	}
	sum := 0.0
	bestIdx := -1
	for j, i := range valid {
		scored[i].LenA, scored[i].LenB = lens[j][0], lens[j][1]
		scored[i].Score = obj.Score(lens[j][0], lens[j][1])
		sum += scored[i].Score
		if scored[i].Score > stats.Best ||
			(scored[i].Score == stats.Best && bestIdx >= 0 && scored[i].Key() < scored[bestIdx].Key()) {
			stats.Best = scored[i].Score
			bestIdx = i
		}
	}
	stats.Mean = sum / float64(len(valid))
	stats.BestKey = scored[bestIdx].Key()
	return scored, stats, nil
}

// nextGeneration selects the elite candidates (score descending, key
// ascending) and refills the population with mutants of the elites.
func nextGeneration(scored []Found, elite int, opts Options, fams []gen.Generator, rng *rand.Rand) []Candidate {
	order := make([]int, len(scored))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := scored[order[a]], scored[order[b]]
		if sa.Score != sb.Score {
			return sa.Score > sb.Score
		}
		return sa.Key() < sb.Key()
	})
	next := make([]Candidate, 0, opts.Population)
	for i := 0; i < elite && i < len(order); i++ {
		next = append(next, scored[order[i]].Candidate)
	}
	for len(next) < opts.Population {
		parent := scored[order[len(next)%elite]].Candidate
		next = append(next, mutate(parent, opts, fams, rng))
	}
	return next
}

// mutate derives one offspring from a parent candidate by a randomly
// chosen operator: schema-driven parameter mutation (clamping v into
// the search's node range), generator reseeding, edge-weight
// perturbation re-draw, or a family switch that keeps the matched
// (v, ccr) point.
func mutate(parent Candidate, opts Options, fams []gen.Generator, rng *rand.Rand) Candidate {
	c := parent
	// Copy the parameter map; mutations must not alias the parent.
	c.Params = make(gen.Params, len(parent.Params))
	for k, v := range parent.Params {
		c.Params[k] = v
	}
	ops := 3
	if opts.MaxPerturb > 0 {
		ops = 4
	}
	switch rng.Intn(ops) {
	case 0: // schema-driven parameter mutation
		fam, _ := gen.Lookup(c.Family)
		c.Params = gen.MutateParams(fam, c.Params, rng)
		clampNodes(c.Params, opts)
	case 1: // reseed the generator
		c.Seed = rng.Int63()
	case 2: // switch family at the same (v, ccr) point
		f := fams[rng.Intn(len(fams))]
		kept := gen.Params{}
		for _, name := range []string{"v", "ccr"} {
			if v, ok := c.Params[name]; ok {
				kept[name] = v
			}
		}
		c.Family = f.Name
		c.Params = kept
	case 3: // re-draw the edge-weight perturbation
		c.PerturbSeed = rng.Int63()
		c.Perturb = rng.Float64() * opts.MaxPerturb
	}
	return c
}

// clampNodes forces the v parameter back into the search's node range
// after a schema mutation (schema bounds are wider than what a search
// run wants to pay for).
func clampNodes(p gen.Params, opts Options) {
	v, err := strconv.Atoi(p["v"])
	if err != nil {
		return
	}
	if v < opts.MinNodes {
		p["v"] = strconv.Itoa(opts.MinNodes)
	} else if v > opts.MaxNodes {
		p["v"] = strconv.Itoa(opts.MaxNodes)
	}
}

// selectTop assembles the TopK report entries: best score first, ties
// in candidate-key order.
func selectTop(best map[string]Found, k int) []Found {
	keys := make([]string, 0, len(best))
	for key := range best {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		fa, fb := best[keys[a]], best[keys[b]]
		if fa.Score != fb.Score {
			return fa.Score > fb.Score
		}
		return keys[a] < keys[b]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	out := make([]Found, len(keys))
	for i, key := range keys {
		out[i] = best[key]
	}
	return out
}
