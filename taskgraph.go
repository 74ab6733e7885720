// Package taskgraph is the public API of the reproduction of Kwok &
// Ahmad, "Benchmarking the Task Graph Scheduling Algorithms" (IPPS
// 1998). It exposes:
//
//   - the weighted-DAG task graph model (Builder, Graph) and its
//     scheduling attributes (levels, critical path, width);
//   - all 15 scheduling algorithms of the study, grouped into the
//     paper's BNP / UNC / APN classes;
//   - the processor-network model used by the APN class (Topology and
//     the standard interconnects);
//   - the exact branch-and-bound scheduler used to obtain optimal
//     solutions for small graphs;
//   - the benchmark-graph generator registry — the paper's five suites
//     plus the Canon et al. (2019) random families and traced kernels —
//     and the experiment harness that regenerates every table and
//     figure of the paper's evaluation, plus extension studies.
//
// # Quick start
//
//	b := taskgraph.NewBuilder()
//	t1 := b.AddNode(2)
//	t2 := b.AddNode(3)
//	b.AddEdge(t1, t2, 1) // t2 needs t1's data; costs 1 across processors
//	g, err := b.Build()
//	...
//	s, err := taskgraph.ScheduleBNP("MCP", g, 4)
//	fmt.Println(s.Length(), s.NSL())
//
// See the examples directory for runnable programs.
package taskgraph

import (
	"fmt"
	"io"

	"repro/internal/adversarial"
	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/algo/cs"
	"repro/internal/algo/param"
	"repro/internal/algo/tdb"
	"repro/internal/algo/unc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/ft"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/optimal"
	"repro/internal/sched"
)

// Core graph model, re-exported from the internal dag package.
type (
	// Graph is an immutable weighted task DAG.
	Graph = dag.Graph
	// Builder accumulates nodes and edges and produces a Graph.
	Builder = dag.Builder
	// NodeID identifies a node within one Graph.
	NodeID = dag.NodeID
	// Arc is one adjacency entry (neighbor and edge cost).
	Arc = dag.Arc
	// Levels bundles t-level, b-level, static-level, and ALAP arrays.
	Levels = dag.Levels
)

// Schedule models, re-exported.
type (
	// Schedule is a clique-model schedule (BNP and UNC classes).
	Schedule = sched.Schedule
	// APNSchedule is a task-and-message schedule on a Topology.
	APNSchedule = machine.Schedule
	// Topology is a processor interconnection network.
	Topology = machine.Topology
)

// NamedGraph pairs a benchmark graph with its provenance.
type NamedGraph = gen.NamedGraph

// DupSchedule is a duplication-based schedule in which a task may run on
// several processors (TDB class).
type DupSchedule = tdb.DupSchedule

// GraphStats summarizes the structural properties of a task graph.
type GraphStats = dag.Stats

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return dag.NewBuilder() }

// ReadGraph parses a graph from either exchange format, detecting the
// binary .tgb magic and falling back to the text .tg format.
func ReadGraph(r io.Reader) (*Graph, error) { return dag.ReadAny(r) }

// WriteGraph writes a graph in the text exchange format.
func WriteGraph(w io.Writer, g *Graph) error { return dag.WriteText(w, g) }

// WriteGraphBinary writes a graph in the compact binary .tgb format:
// a streaming varint-delta encoding roughly 3-4x smaller than the text
// form and decodable in one pass with a single graph allocation.
func WriteGraphBinary(w io.Writer, g *Graph) error { return dag.WriteBinary(w, g) }

// DOT renders a graph in Graphviz format.
func DOT(g *Graph, name string) string { return dag.DOT(g, name) }

// ComputeLevels returns the scheduling attributes of every node.
func ComputeLevels(g *Graph) *Levels { return dag.ComputeLevels(g) }

// CriticalPath returns one critical path of g.
func CriticalPath(g *Graph) []NodeID { return dag.CriticalPath(g) }

// CriticalPathLength returns the critical-path length of g.
func CriticalPathLength(g *Graph) int64 { return dag.CriticalPathLength(g) }

// Width returns the exact maximum number of mutually independent tasks.
func Width(g *Graph) int { return dag.Width(g) }

// WidthExactCutoff is the node count above which ComputeStats skips the
// exact width computation (its transitive closure costs O(V·E) bits of
// time and V²/8 bytes) and reports Width as -1.
const WidthExactCutoff = dag.WidthExactCutoff

// ComputeStats returns the structural summary of a graph.
func ComputeStats(g *Graph) GraphStats { return dag.ComputeStats(g) }

// TransitiveReduction returns g without redundant precedence edges.
func TransitiveReduction(g *Graph) (*Graph, error) { return dag.TransitiveReduction(g) }

// Gantt renders a clique-model schedule as a text Gantt chart.
func Gantt(w io.Writer, s *Schedule, maxCols int) error { return sched.Gantt(w, s, maxCols) }

// Topology constructors, re-exported from the machine package.
var (
	// Clique returns the fully connected topology on n processors.
	Clique = machine.Clique
	// Ring returns the cycle topology on n processors.
	Ring = machine.Ring
	// Chain returns the linear-array topology on n processors.
	Chain = machine.Chain
	// Mesh returns the rows x cols 2-D mesh topology.
	Mesh = machine.Mesh
	// Hypercube returns the d-dimensional hypercube topology.
	Hypercube = machine.Hypercube
	// Star returns the star topology with processor 0 as the hub.
	Star = machine.Star
	// Torus returns the rows x cols 2-D torus topology.
	Torus = machine.Torus
	// BinaryTree returns a complete binary tree topology.
	BinaryTree = machine.BinaryTree
)

// NewTopology builds a custom topology from an undirected link list.
func NewTopology(n int, links [][2]int) (*Topology, error) {
	return machine.NewTopology(n, links)
}

// Class identifies an algorithm family (BNP, UNC, APN, or PARAM).
type Class = core.Class

// The three algorithm classes of the paper's taxonomy, plus the
// parameterized component combinations of the extension.
const (
	BNP   = core.BNP
	UNC   = core.UNC
	APN   = core.APN
	PARAM = core.PARAM
)

// AlgorithmNames returns the algorithm names of a class in the paper's
// canonical order.
func AlgorithmNames(c Class) []string { return core.Names(c) }

// ScheduleBNP runs a BNP algorithm (HLFET, ISH, ETF, LAST, MCP, or DLS)
// on numProcs fully connected processors.
func ScheduleBNP(name string, g *Graph, numProcs int) (*Schedule, error) {
	return bnp.ScheduleHet(name, g, numProcs, nil)
}

// ScheduleUNC runs a UNC clustering algorithm (EZ, LC, DSC, MD, or DCP)
// with an unbounded processor supply.
func ScheduleUNC(name string, g *Graph) (*Schedule, error) {
	return unc.ScheduleHet(name, g, nil)
}

// ScheduleAPN runs an APN algorithm (MH, DLS, BU, or BSA) on an
// arbitrary processor network, scheduling messages on its links.
func ScheduleAPN(name string, g *Graph, topo *Topology) (*APNSchedule, error) {
	return apn.ScheduleHet(name, g, topo, nil)
}

// Heterogeneous machines (extension): every scheduling entry point has
// a *Het variant taking a per-processor speed vector; a processor with
// speed f executes a task of weight w in ceil(w/f) time units. The
// plain entry point is its *Het variant with a nil vector, the
// homogeneous model; uniform (all-ones) speeds reproduce it
// byte-identically. One rule judges every vector: each factor positive
// and finite, and the graph's total computation on the slowest
// processor plus its total communication within the 2^62 weight bound
// of graph construction, so no time can wrap.

// ScheduleBNPHet is ScheduleBNP on numProcs processors with the given
// speeds (len(speeds) must equal numProcs).
func ScheduleBNPHet(name string, g *Graph, numProcs int, speeds []float64) (*Schedule, error) {
	return bnp.ScheduleHet(name, g, numProcs, speeds)
}

// ScheduleUNCHet is ScheduleUNC with per-processor speeds. UNC
// algorithms choose their own processor count (up to one per node), so
// speeds must cover g.NumNodes() processors.
func ScheduleUNCHet(name string, g *Graph, speeds []float64) (*Schedule, error) {
	return unc.ScheduleHet(name, g, speeds)
}

// ScheduleAPNHet is ScheduleAPN with per-processor speeds
// (len(speeds) must equal the topology's processor count).
func ScheduleAPNHet(name string, g *Graph, topo *Topology, speeds []float64) (*APNSchedule, error) {
	return apn.ScheduleHet(name, g, topo, speeds)
}

// Parameterized list scheduling (extension, after Coleman et al. 2024):
// clique-model list scheduling decomposed into orthogonal components —
// priority metric × processor rule × slot policy × priority regime —
// where every combination is a scheduler. HLFET, MCP, ETF, and DLS are
// registered points of the space, byte-identical to their kernels.

// Combo is one point of the component space: a complete list scheduler.
type Combo = param.Combo

// The component axis types of the parameterized scheduler space.
type (
	// ComboMetric is the node-priority component.
	ComboMetric = param.Metric
	// ComboRule is the processor-selection component.
	ComboRule = param.Rule
	// ComboSlot is the slot-policy component.
	ComboSlot = param.Slot
	// ComboRegime is the priority-regime component.
	ComboRegime = param.Regime
)

// The component values; see the internal/algo/param package doc for
// the taxonomy.
const (
	MetricSL         = param.MetricSL         // static level, descending (HLFET)
	MetricTL         = param.MetricTL         // t-level, ascending
	MetricBT         = param.MetricBT         // t-level + b-level, descending
	MetricALAP       = param.MetricALAP       // ALAP-list order (MCP)
	MetricDL         = param.MetricDL         // dynamic level (DLS)
	RuleEST          = param.RuleEST          // earliest start time
	RuleEFT          = param.RuleEFT          // earliest finish time (HEFT-style)
	RuleDL           = param.RuleDL           // Sih & Lee's dynamic-level rule
	SlotNonInsertion = param.SlotNonInsertion // append after the last task
	SlotInsertion    = param.SlotInsertion    // fill idle gaps
	RegimeStatic     = param.RegimeStatic     // fixed priority list
	RegimeDynamic    = param.RegimeDynamic    // re-score ready nodes each step
)

// Combos returns the full component cross-product (60 schedulers) in a
// fixed deterministic order.
func Combos() []Combo { return param.Combos() }

// ParseCombo parses a canonical combo name like "alap/est/ins/st".
func ParseCombo(s string) (Combo, error) { return param.ParseCombo(s) }

// ComboRegistration is one named combo (e.g. "MCP") in the registry.
type ComboRegistration = param.Registration

// NamedCombos returns the registered classic algorithms expressed as
// component combinations, sorted by name.
func NamedCombos() []ComboRegistration { return param.Named() }

// ScheduleCombo runs one component combination on numProcs fully
// connected processors with an optional per-processor speed vector
// (nil for the homogeneous model).
func ScheduleCombo(c Combo, g *Graph, numProcs int, speeds []float64) (*Schedule, error) {
	return c.Schedule(g, numProcs, speeds)
}

// OptimalResult reports an exact branch-and-bound run.
type OptimalResult = optimal.Result

// OptimalOptions configures the exact scheduler.
type OptimalOptions = optimal.Options

// ScheduleOptimal finds a provably minimum-length schedule of g on
// numProcs fully connected processors, within the configured search
// budget (Result.Closed reports whether optimality was proven). Repeated
// calls on the same input return the same schedule.
func ScheduleOptimal(g *Graph, numProcs int, opts OptimalOptions) (*OptimalResult, error) {
	return optimal.Schedule(g, numProcs, opts)
}

// ScheduleDSH runs the task-duplication heuristic DSH (the TDB family of
// the paper's taxonomy, implemented as an extension): tasks may be
// redundantly executed on several processors to avoid communication.
func ScheduleDSH(g *Graph, numProcs int) (*DupSchedule, error) {
	return tdb.DSH(g, numProcs)
}

// MapClusters compresses a UNC clustering onto numProcs physical
// processors with a cluster-scheduling algorithm: "SARKAR" (Sarkar's
// assignment algorithm) or "RCP" (Yang's ready critical path), the two
// CS algorithms paper section 7 describes. The machine is the
// clustering's own first numProcs processors: the mapped schedule keeps
// their speed factors, and a heterogeneous clustering with fewer than
// numProcs processors is an error.
func MapClusters(method string, clustering *Schedule, numProcs int) (*Schedule, error) {
	m, ok := cs.Mappers()[method]
	if !ok {
		return nil, fmt.Errorf("taskgraph: unknown cluster-scheduling method %q (have SARKAR, RCP)", method)
	}
	return m(clustering, numProcs)
}

// Benchmark suites (paper section 5).

// PeerSet returns the small published-example graphs (PSG suite).
func PeerSet() []NamedGraph { return gen.PeerSet() }

// Cholesky returns the traced graph of a Cholesky factorization on an
// N x N matrix with the given communication-to-computation ratio.
func Cholesky(n int, ccr float64) (*Graph, error) { return gen.Cholesky(n, ccr) }

// GaussianElimination returns the traced graph of Gaussian elimination.
func GaussianElimination(n int, ccr float64) (*Graph, error) {
	return gen.GaussianElimination(n, ccr)
}

// FFT returns the butterfly graph of an N-point FFT (N a power of two).
func FFT(points int, ccr float64) (*Graph, error) { return gen.FFT(points, ccr) }

// LU returns the traced graph of tiled right-looking LU decomposition
// on an n x n tile grid.
func LU(n int, ccr float64) (*Graph, error) { return gen.LU(n, ccr) }

// Generator registry. Every graph family — the paper's suites, the
// traced kernels, and the random families of Canon et al. (2019) — is
// registered under a name with a parameter schema, so tools can
// enumerate and invoke workloads uniformly (see cmd/daggen and the
// "genx" experiment).

// Generator describes one registered graph family: its name, citation,
// parameter schema with defaults, and deterministic construction
// function.
type Generator = gen.Generator

// GeneratorParam declares one parameter of a registered generator: name,
// kind, textual default, and a one-line description.
type GeneratorParam = gen.ParamSpec

// GeneratorParams maps generator parameter names to textual values, as
// written on a command line; omitted parameters take their defaults.
type GeneratorParams = gen.Params

// Generators returns every registered graph family, sorted by name.
func Generators() []Generator { return gen.Generators() }

// Generate builds one graph from the named registered family. It is
// deterministic in (name, seed, params): equal inputs yield
// byte-identical graphs. Unknown names, unknown parameters, and
// malformed parameter values are errors.
func Generate(name string, seed int64, params GeneratorParams) (*Graph, error) {
	return gen.Generate(name, seed, params)
}

// Execution simulation (internal/ft without faults): a deterministic,
// seeded discrete-event engine that executes completed schedules under
// perturbed task durations and communication costs — with per-link
// contention queues for APN schedules — plus a Monte-Carlo harness
// turning repeated executions into robustness statistics. The
// "robust" experiment is built on this API.

// SimPlan is a compiled schedule, executable any number of times by
// the discrete-event engine; compile once, then Run or SimMonteCarlo.
// It is immutable and safe for concurrent Run calls.
type SimPlan ft.Exec

// Static returns the planned (unperturbed) makespan.
func (p *SimPlan) Static() int64 { return (*ft.Exec)(p).Static() }

// Jobs returns the number of simulated jobs: one per task, plus one
// per committed link transfer for APN schedules.
func (p *SimPlan) Jobs() int { return (*ft.Exec)(p).Units() }

// Run executes the plan once under the given options and trial number
// and returns the realized makespan. Runs are deterministic in
// (opts, trial) and allocate nothing once warm.
func (p *SimPlan) Run(opts SimOptions, trial int) (int64, error) {
	return (*ft.Exec)(p).Makespan(opts, trial)
}

// SimOptions parameterizes one simulated execution: perturbation
// model, dispatch policy, seed, and optional per-processor slowdowns.
type SimOptions = ft.SimOptions

// SimPerturbation configures the stochastic duration model: the
// multiplier distribution and the task/communication spreads.
type SimPerturbation = ft.Perturbation

// SimResult reports one simulated execution: static makespan,
// realized makespan, and their ratio (1 when the static makespan is 0).
type SimResult struct {
	Static, Makespan int64
	Ratio            float64
}

// SimStats summarizes a Monte-Carlo execution study: mean/P99/max
// realized makespan and realized/static ratios over the trials.
type SimStats = ft.Stats

// SimDistribution selects the perturbation distribution.
type SimDistribution = ft.Distribution

// SimPolicy selects the dispatch rule of the simulated runtime.
type SimPolicy = ft.Dispatch

// The perturbation distributions of the execution simulator.
const (
	// DistNone applies no perturbation (exact replay).
	DistNone = ft.DistNone
	// DistUniform draws duration multipliers from [1-s, 1+s].
	DistUniform = ft.DistUniform
	// DistLognormal draws mean-one lognormal duration multipliers.
	DistLognormal = ft.DistLognormal
)

// The dispatch policies of the execution simulator.
const (
	// PolicyTimetable releases jobs no earlier than their planned
	// static starts; zero perturbation replays the schedule exactly.
	PolicyTimetable = ft.DispatchTimetable
	// PolicyEager starts jobs as soon as their dependencies clear.
	PolicyEager = ft.DispatchEager
)

// CompileSim compiles a complete clique-model schedule into an
// executable SimPlan.
func CompileSim(s *Schedule) (*SimPlan, error) {
	x, err := ft.Compile(s)
	return (*SimPlan)(x), err
}

// CompileSimAPN compiles a complete APN schedule — tasks plus its
// committed link reservations, replayed through per-link contention
// queues — into an executable SimPlan.
func CompileSimAPN(s *APNSchedule) (*SimPlan, error) {
	x, err := ft.CompileAPN(s)
	return (*SimPlan)(x), err
}

// Simulate executes a complete clique-model schedule once under the
// given options and returns the realized makespan next to the static
// one.
func Simulate(s *Schedule, opts SimOptions) (SimResult, error) {
	x, err := ft.Compile(s)
	return simulateOnce(x, err, opts)
}

// SimulateAPN executes a complete APN schedule once under the given
// options, honoring link contention along every committed route.
func SimulateAPN(s *APNSchedule, opts SimOptions) (SimResult, error) {
	x, err := ft.CompileAPN(s)
	return simulateOnce(x, err, opts)
}

// simulateOnce runs trial 0 of x, compiled with error err, and reports
// it against the static makespan.
func simulateOnce(x *ft.Exec, err error, opts SimOptions) (SimResult, error) {
	if err != nil {
		return SimResult{}, err
	}
	st, err := ft.SimMonteCarlo(x, opts, 1)
	return SimResult{Static: st.Static, Makespan: st.MaxMakespan, Ratio: st.MeanRatio}, err
}

// SimMonteCarlo executes a compiled plan for the given number of
// independent trials and returns realized-makespan statistics.
// Results are deterministic in (opts, trials).
func SimMonteCarlo(p *SimPlan, opts SimOptions, trials int) (SimStats, error) {
	return ft.SimMonteCarlo((*ft.Exec)(p), opts, trials)
}

// Fault injection (internal/ft): the engine behind the execution
// simulator above, which is its zero-fault case, with fail-stop
// processor crashes, transient link outages (APN), and pluggable
// recovery policies that react to failures at runtime. The "faults"
// experiment sweeps MTBF against recovery policy on top of this API.

// FaultModel configures deterministic fail-stop processor crashes and
// transient link outages. The zero value injects no faults.
type FaultModel = ft.FaultModel

// FaultExec is a compiled fault-capable schedule, executable any
// number of times; compile once, then Run or FaultMonteCarlo.
type FaultExec = ft.Exec

// FaultOptions parameterizes one fault-injected execution: the
// perturbation model (SimOptions), the fault model, the recovery
// policy, and an optional deadline for survival accounting.
type FaultOptions = ft.Options

// FaultResult reports one fault-injected execution: whether the
// schedule finished, the realized makespan and ratio, crash and
// lost-work counts, and per-processor busy/idle/down time.
type FaultResult = ft.Result

// FaultStats summarizes a fault-injection Monte-Carlo study:
// finish and deadline-survival rates, ratio statistics, and mean
// utilization splits over the trials.
type FaultStats = ft.Stats

// RecoveryPolicy decides how a fault-injected execution reacts to
// processor crashes; see RecoveryNone, RecoveryResubmit,
// RecoveryCheckpoint, and RecoveryReplicate.
type RecoveryPolicy = ft.RecoveryPolicy

// RecoveryNone lets lost work stay lost: a run that cannot finish
// every task reports Finished == false (an SLO miss).
func RecoveryNone() RecoveryPolicy { return ft.None() }

// RecoveryResubmit remaps the unfinished suffix of a crashed execution
// onto the surviving processors with a list-scheduling repair pass.
func RecoveryResubmit() RecoveryPolicy { return ft.Resubmit() }

// RecoveryCheckpoint is resubmit plus periodic checkpoints every
// `every` time units: re-executed tasks resume from their last
// checkpoint boundary instead of from zero.
func RecoveryCheckpoint(every int64) RecoveryPolicy { return ft.Checkpoint(every) }

// RecoveryReplicate duplicates the top-k static-b-level tasks on
// distinct processors at compile time; the first finisher wins.
func RecoveryReplicate(k int) RecoveryPolicy { return ft.Replicate(k) }

// RecoveryPolicyNames lists the registered recovery policies in
// presentation order.
func RecoveryPolicyNames() []string { return ft.PolicyNames() }

// CompileFaults compiles a complete clique-model schedule into a
// fault-capable FaultExec supporting every recovery policy.
func CompileFaults(s *Schedule) (*FaultExec, error) { return ft.Compile(s) }

// CompileFaultsAPN compiles a complete APN schedule — tasks plus
// committed link reservations — into a fault-capable FaultExec.
// APN executions support the none recovery policy.
func CompileFaultsAPN(s *APNSchedule) (*FaultExec, error) { return ft.CompileAPN(s) }

// FaultMonteCarlo executes a compiled fault-capable schedule for the
// given number of independent trials and returns survival and
// degradation statistics. Results are deterministic in (opts, trials),
// and failure traces are paired across schedules and policies at equal
// options.
func FaultMonteCarlo(x *FaultExec, opts FaultOptions, trials int) (FaultStats, error) {
	return ft.MonteCarlo(x, opts, trials)
}

// Adversarial instance search (extension, after "PISA: An Adversarial
// Approach To Comparing Task Graph Scheduling Algorithms"): a seeded,
// deterministic evolutionary loop over the generator registry's
// parameter schemas that hunts task graphs on which one scheduling
// algorithm beats another by the widest relative makespan margin —
// counterexamples to the average-case rankings of the random suites.
// The "adversarial" experiment runs it; found instances are archived
// as .tg fixtures with provenance headers and pinned by regression
// tests.

// AdversarialOptions parameterizes a search run: seed, evolutionary
// budget, families, node range, perturbation bound, and objective.
type AdversarialOptions = adversarial.Options

// AdversarialReport is the outcome of one search run: the
// per-generation trace and the top counterexamples found.
type AdversarialReport = adversarial.Report

// AdversarialCandidate is one point of the search space: a generator
// family, parameters, seeds, and an edge-weight perturbation.
type AdversarialCandidate = adversarial.Candidate

// AdversarialFound is one evaluated candidate in a report: the
// candidate, its graph, the two makespans, and the objective score.
type AdversarialFound = adversarial.Found

// AdversarialFixture is one archived counterexample: a task graph with
// the pair, machine size, provenance, and pinned makespan gap.
type AdversarialFixture = adversarial.Fixture

// AdversarialDefaults returns the quick-scale search configuration.
func AdversarialDefaults(seed int64) AdversarialOptions { return adversarial.Defaults(seed) }

// AdversarialSearch runs the evolutionary search for instances on
// which algB beats algA, evaluating candidate populations through the
// config's worker pool. The trajectory is deterministic in (opts,
// pair) for every worker count. Algorithm names are resolved like
// ParseAlgorithmPair's halves.
func AdversarialSearch(cfg ExperimentConfig, opts AdversarialOptions, algA, algB string) (*AdversarialReport, error) {
	return core.AdversarialSearch(cfg, opts, algA, algB)
}

// ParseAlgorithmPair parses and validates an "A:B" algorithm pair: two
// registry names ("MCP:LAST"), class-qualified where ambiguous
// ("DLS:APN/DLS"), or parameterized combo names ("MCP:alap/eft/ins/st").
// Unknown names fail fast with the sorted list of valid ones.
func ParseAlgorithmPair(s string) (algA, algB string, err error) {
	return core.ParseAlgorithmPair(s)
}

// AlgorithmPairNames returns every plain algorithm name accepted in an
// adversarial pair, sorted.
func AlgorithmPairNames() []string { return core.PairNames() }

// PerturbEdges returns g with every edge weight scaled by an
// independent multiplier drawn uniformly from [1-spread, 1+spread]
// (minimum 1), deterministically in (g, seed, spread). Spread 0
// returns g unchanged.
func PerturbEdges(g *Graph, seed int64, spread float64) (*Graph, error) {
	return adversarial.PerturbEdges(g, seed, spread)
}

// ArchiveAdversarial writes a report's top k positive-gap instances as
// .tg fixtures under dir and returns the written paths.
func ArchiveAdversarial(dir string, rep *AdversarialReport, procs, k int) ([]string, error) {
	return adversarial.Archive(dir, rep, procs, k)
}

// LoadAdversarialFixtures reads every archived .tg fixture under dir,
// keyed by file name.
func LoadAdversarialFixtures(dir string) (map[string]*AdversarialFixture, error) {
	return adversarial.LoadFixtures(dir)
}

// Experiment harness.

// ExperimentConfig parameterizes a paper experiment run. Workers bounds
// the number of (algorithm × instance) scheduling cells the harness
// runs concurrently (<= 0 selects GOMAXPROCS); output is byte-identical
// for every worker count. Cache optionally shares the generated
// benchmark suites and RGBOS branch-and-bound optima across runs.
type ExperimentConfig = core.Config

// SuiteCache shares generated benchmark suites and RGBOS optima across
// experiment runs with the same seed and scale, so e.g. Tables 2 and 3
// solve each branch-and-bound optimum exactly once. A nil Cache in
// ExperimentConfig falls back to a process-wide cache.
type SuiteCache = core.SuiteCache

// NewSuiteCache returns an empty, isolated suite cache.
func NewSuiteCache() *SuiteCache { return core.NewSuiteCache() }

// Experiment scales.
const (
	// Quick runs reduced instance counts (seconds).
	Quick = core.Quick
	// Full reproduces the paper's instance counts (minutes).
	Full = core.Full
)

// Experiment describes one reproducible artifact: its id, one-line
// title, and runner.
type Experiment = core.Experiment

// Experiments returns every registered experiment in paper order: the
// paper's tables and figures, then the extension studies.
func Experiments() []Experiment { return core.Experiments() }

// ExperimentIDs returns the identifiers of every reproducible artifact:
// the paper's tables and figures ("table1".."table6", "fig2".."fig4")
// and the extension studies ("unccs", "tdb", "genx", "robust",
// "components", "adversarial", "faults", "scaling").
func ExperimentIDs() []string {
	var ids []string
	for _, e := range core.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, cfg ExperimentConfig) error {
	return core.RunExperiment(id, cfg)
}

// Observability (internal/obs): a stack-wide instrumentation layer —
// metrics, scheduler decision tracing, run manifests — with a hard
// invariant: it never changes an output byte, and the disabled path
// costs zero allocations. See docs/observability.md.

// Tracer records per-placement scheduler decisions as JSONL or Chrome
// trace-event JSON (openable in Perfetto as a per-processor Gantt).
// Install with SetTracer; traced runs must be serial.
type Tracer = obs.Tracer

// TraceFormat selects the trace serialization.
type TraceFormat = obs.TraceFormat

// The trace serializations.
const (
	// TraceJSONL writes one JSON record per line.
	TraceJSONL = obs.TraceJSONL
	// TraceChrome writes Chrome trace-event JSON for Perfetto.
	TraceChrome = obs.TraceChrome
)

// TraceCandidate is one processor considered for a traced placement.
type TraceCandidate = obs.Candidate

// NewTracer returns a tracer writing to w in the given format.
func NewTracer(w io.Writer, format TraceFormat) *Tracer { return obs.NewTracer(w, format) }

// TraceFormatForPath picks TraceJSONL for ".jsonl" paths, TraceChrome
// otherwise.
func TraceFormatForPath(path string) TraceFormat { return obs.TraceFormatForPath(path) }

// SetTracer installs the process-wide decision tracer; nil uninstalls.
// Scheduling runs must be serial while a tracer is installed (dagbench
// -trace forces -workers=1).
func SetTracer(t *Tracer) { obs.SetTracer(t) }

// EnableMetrics turns the process-wide metric registry on or off.
// Metric values never reach experiment output, so enabling them keeps
// every table byte-identical.
func EnableMetrics(on bool) { obs.EnableMetrics(on) }

// ResetMetrics zeroes every registered metric.
func ResetMetrics() { obs.ResetMetrics() }

// MetricSample is one metric's state in a snapshot.
type MetricSample = obs.Sample

// SnapshotMetrics returns every registered metric's state, sorted by
// name.
func SnapshotMetrics() []MetricSample { return obs.SnapshotMetrics() }

// WriteMetrics renders the metric snapshot as aligned text.
func WriteMetrics(w io.Writer) error { return obs.WriteMetrics(w) }

// RunManifest is a reproducibility receipt for one tool invocation:
// configuration, build, input file digests, and the output hash.
type RunManifest = obs.Manifest

// NewRunManifest returns a manifest stamped with the running build.
func NewRunManifest(tool string, command []string) *RunManifest {
	return obs.NewManifest(tool, command)
}

// HashWriter tees writes into a SHA-256 digest, for manifest output
// hashes.
type HashWriter = obs.HashWriter

// NewHashWriter returns a HashWriter forwarding to w.
func NewHashWriter(w io.Writer) *HashWriter { return obs.NewHashWriter(w) }

// VersionString returns the ldflags-stamped build version, augmented
// with the VCS revision when available.
func VersionString() string { return obs.VersionString() }

// PeakRSSKB returns the process's resident-set high-water mark in
// kilobytes (Linux VmHWM), or -1 where /proc is unavailable.
func PeakRSSKB() int64 { return obs.PeakRSSKB() }
