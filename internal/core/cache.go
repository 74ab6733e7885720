package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/gen"
	"repro/internal/optimal"
)

// SuiteCache shares generated benchmark suites — and the expensive
// RGBOS branch-and-bound optima — across experiments. Entries are keyed
// by (suite, seed, scale), so Tables 2 and 3 solve each RGBOS instance
// to optimality exactly once, Tables 4 and 5 generate the RGPOS suite
// once, and Table 6, Figures 2-3, and the UNCCS extension share one
// RGNOS suite. Suites are deterministic in (seed, scale), which keeps
// cached runs byte-identical to cold ones.
//
// A nil *SuiteCache in Config falls back to a process-wide cache; use
// NewSuiteCache for an isolated one. Entries are retained for the
// cache's lifetime, so a sweep over many distinct seeds should supply
// its own short-lived cache rather than rely on the process-wide
// fallback, which is never evicted.
type SuiteCache struct {
	mu     sync.Mutex
	suites map[suiteKey]any
}

type suiteKey struct {
	suite string
	seed  int64
	scale Scale
}

// NewSuiteCache returns an empty suite cache.
func NewSuiteCache() *SuiteCache {
	return &SuiteCache{suites: map[suiteKey]any{}}
}

// processCache backs Configs that do not carry their own cache.
var processCache = NewSuiteCache()

// rgbosSolves counts branch-and-bound solves, so tests can assert that
// optima are computed exactly once per suite.
var rgbosSolves atomic.Int64

// suiteCacheFor resolves cfg's cache, defaulting to the process-wide one.
func suiteCacheFor(cfg Config) *SuiteCache {
	if cfg.Cache != nil {
		return cfg.Cache
	}
	return processCache
}

// memo returns the suite named suite for cfg's (seed, scale), building
// it on the first request. The cache's one lock is held across the
// build, so concurrent first requests build once. A failed build is not
// stored: the next request builds again. Each name must always be built
// as the same T.
func memo[T any](c *SuiteCache, suite string, cfg Config, build func(Config) (T, error)) (T, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := suiteKey{suite, cfg.Seed, cfg.Scale}
	if got, ok := c.suites[k]; ok {
		cacheHits.Inc()
		return got.(T), nil
	}
	cacheMisses.Inc()
	v, err := build(cfg)
	if err != nil {
		return v, err
	}
	c.suites[k] = v
	return v, nil
}

// rgbosInstances returns the RGBOS suite with branch-and-bound optima
// attached (the role the paper's parallel A* played).
func (c *SuiteCache) rgbosInstances(cfg Config) (map[float64][]degradationInstance, error) {
	return memo(c, "rgbos", cfg, computeRGBOS)
}

// rgposInstances returns the RGPOS suite, whose optima are known by
// construction.
func (c *SuiteCache) rgposInstances(cfg Config) map[float64][]degradationInstance {
	s, _ := memo(c, "rgpos", cfg, computeRGPOS) // computeRGPOS cannot fail
	return s
}

// genxSuite returns the cross-generator study's instances grouped by
// family name: the matched grid of genxPoints over every random family.
func (c *SuiteCache) genxSuite(cfg Config) (map[string][]gen.NamedGraph, error) {
	return memo(c, "genx", cfg, matchedFamilySuite("genx", genxPoints))
}

// componentsSuite returns the component-attribution study's instances
// grouped by family name: the matched grid of componentsPoints over
// every random family.
func (c *SuiteCache) componentsSuite(cfg Config) (map[string][]gen.NamedGraph, error) {
	return memo(c, "components", cfg, matchedFamilySuite("components", componentsPoints))
}

// robustSuite returns the execution-robustness study's instances, one
// entry per registered generator family in name order.
func (c *SuiteCache) robustSuite(cfg Config) ([]robustFamily, error) {
	return memo(c, "robust", cfg, computeRobust)
}

// rgnosSuite returns the RGNOS graphs grouped by size.
func (c *SuiteCache) rgnosSuite(cfg Config) map[int][]gen.NamedGraph {
	s, _ := memo(c, "rgnos", cfg, computeRGNOS) // computeRGNOS cannot fail
	return s
}

// computeRGBOS generates the RGBOS graphs serially (the generator's rng
// is sequential) and then solves their optima as parallel cells.
func computeRGBOS(cfg Config) (map[float64][]degradationInstance, error) {
	type job struct {
		ccr float64
		ng  gen.NamedGraph
	}
	var jobs []job
	for _, ccr := range gen.PaperCCRs {
		rc := gen.DefaultRGBOSConfig(ccr, cfg.Seed)
		rc.MaxNodes = rgbosMaxNodes(cfg.Scale)
		for _, ng := range gen.RGBOS(rc) {
			jobs = append(jobs, job{ccr, ng})
		}
	}
	var p plan[degradationInstance]
	for _, j := range jobs {
		p.add(func() (degradationInstance, error) {
			rgbosSolves.Add(1)
			res, err := optimal.Schedule(j.ng.G, j.ng.G.NumNodes(), optimal.Options{})
			if err != nil {
				return degradationInstance{}, fmt.Errorf("rgbos optimum for %s: %w", j.ng.Name, err)
			}
			return degradationInstance{
				label:   fmt.Sprintf("v=%d", j.ng.G.NumNodes()),
				g:       j.ng.G,
				optimal: res.Length,
				closed:  res.Closed,
			}, nil
		})
	}
	results, err := p.run(cfg)
	if err != nil {
		return nil, err
	}
	out := map[float64][]degradationInstance{}
	for i, j := range jobs {
		out[j.ccr] = append(out[j.ccr], results[i])
	}
	return out, nil
}

func computeRGPOS(cfg Config) (map[float64][]degradationInstance, error) {
	out := map[float64][]degradationInstance{}
	lo, hi, step := rgposSizes(cfg.Scale)
	for _, ccr := range gen.PaperCCRs {
		rc := gen.DefaultRGPOSConfig(ccr, cfg.Seed)
		rc.MinNodes, rc.MaxNodes, rc.Step = lo, hi, step
		for _, inst := range gen.RGPOS(rc) {
			out[ccr] = append(out[ccr], degradationInstance{
				label:   fmt.Sprintf("v=%d", inst.G.NumNodes()),
				g:       inst.G,
				optimal: inst.OptimalLength,
				closed:  true,
			})
		}
	}
	return out, nil
}

func computeRGNOS(cfg Config) (map[int][]gen.NamedGraph, error) {
	sizes := rgnosSizes(cfg.Scale)
	rc := gen.RGNOSConfig{
		MinNodes:    50,
		MaxNodes:    sizes[len(sizes)-1],
		Step:        50,
		CCRs:        rgnosCCRs(cfg.Scale),
		Parallelism: rgnosParallelism(cfg.Scale),
		Seed:        cfg.Seed,
	}
	bySize := map[int][]gen.NamedGraph{}
	for _, ng := range gen.RGNOS(rc) {
		bySize[ng.G.NumNodes()] = append(bySize[ng.G.NumNodes()], ng)
	}
	return bySize, nil
}

// matchedFamilySuite returns the builder of exp's suite: the matched
// grid of points(scale) over every registered random family, keyed by
// family name.
func matchedFamilySuite(exp string, points func(Scale) ([]int, []float64, int)) func(Config) (map[string][]gen.NamedGraph, error) {
	return func(cfg Config) (map[string][]gen.NamedGraph, error) {
		sizes, ccrs, instances := points(cfg.Scale)
		byFam := map[string][]gen.NamedGraph{}
		for fi, f := range gen.RandomFamilies() {
			graphs, err := familyGrid(exp, fi, f, cfg.Seed, sizes, ccrs, instances)
			if err != nil {
				return nil, err
			}
			byFam[f.Name] = graphs
		}
		return byFam, nil
	}
}

// familyGrid generates family f's matched (size, CCR, instance) grid.
// Per-instance seeds are mixed from the run seed, the family's index fi
// in the caller's family order and the point coordinates, so the grid
// is deterministic and no two points share a generator stream.
func familyGrid(exp string, fi int, f gen.Generator, runSeed int64, sizes []int, ccrs []float64, instances int) ([]gen.NamedGraph, error) {
	var graphs []gen.NamedGraph
	for _, v := range sizes {
		for ci, ccr := range ccrs {
			for i := 0; i < instances; i++ {
				// Distinct large-prime strides keep the mixed seeds
				// unique across the four grid coordinates.
				seed := runSeed +
					int64(fi+1)*1_000_003 +
					int64(v)*7_919 +
					int64(ci+1)*104_729 +
					int64(i+1)*15_485_863
				g, err := gen.Generate(f.Name, seed, gen.Params{
					"v":   fmt.Sprint(v),
					"ccr": fmt.Sprintf("%g", ccr),
				})
				if err != nil {
					return nil, fmt.Errorf("%s: %s v=%d ccr=%g: %w", exp, f.Name, v, ccr, err)
				}
				graphs = append(graphs, gen.NamedGraph{
					Name:   fmt.Sprintf("%s-v%d-ccr%g-i%d", f.Name, v, ccr, i),
					Source: fmt.Sprintf("%s seed=%d", f.Source, seed),
					G:      g,
				})
			}
		}
	}
	return graphs, nil
}

// computeRobust builds one family per registered generator in name
// order. Random (v, ccr) families contribute the matched grid of
// robustPoints, seeded by their index in the whole registry; every
// other family contributes one representative instance with its
// default parameters, so the study exercises the whole registry.
func computeRobust(cfg Config) ([]robustFamily, error) {
	sizes, ccrs, instances := robustPoints(cfg.Scale)
	var fams []robustFamily
	for fi, f := range gen.Generators() {
		fam := robustFamily{name: f.Name}
		if f.Random {
			graphs, err := familyGrid("robust", fi, f, cfg.Seed, sizes, ccrs, instances)
			if err != nil {
				return nil, err
			}
			fam.graphs = graphs
		} else {
			g, err := gen.Generate(f.Name, cfg.Seed, robustFixedParams[f.Name])
			if err != nil {
				return nil, fmt.Errorf("robust: %s: %w", f.Name, err)
			}
			fam.graphs = append(fam.graphs, gen.NamedGraph{Name: f.Name + "-default", G: g})
		}
		fams = append(fams, fam)
	}
	return fams, nil
}

// robustFixedParams overrides defaults for non-random families whose
// default parameters do not yield a graph (psg requires a name).
var robustFixedParams = map[string]gen.Params{
	"psg": {"name": "kwok-ahmad-9"},
}
