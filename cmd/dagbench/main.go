// Command dagbench regenerates the tables and figures of Kwok & Ahmad,
// "Benchmarking the Task Graph Scheduling Algorithms" (IPPS 1998).
//
// Usage:
//
//	dagbench [-exp id[,id...]] [-scale quick|full] [-seed N] [-workers N]
//	         [-pair A:B] [-archive dir] [-faults] [-measure]
//	         [-trace file] [-metrics] [-manifest file] [-version]
//
// Experiment ids are table1..table6, fig2..fig4, the extension studies
// unccs, tdb, genx (the Canon et al. 2019 cross-generator ranking
// stability study), robust (the Monte-Carlo execution-robustness
// study on the internal/ft runtime, fault-free), components (the component
// attribution of the parameterized scheduler space on homogeneous and
// heterogeneous machines), adversarial (the PISA-style
// evolutionary search for counterexample instances), faults (the
// fault-injection study of schedule degradation and reactive
// recovery), and scaling (the empirical-complexity ladder running
// every generator family from 10^3 up to 10^6 nodes through
// generation, both exchange encodings, and the algorithm roster), or
// all (the default); a comma-separated list runs several in order,
// e.g. -exp=table2,table3,genx. Unknown ids fail fast, before anything
// runs, with the sorted list of valid names. -exp=list (or help)
// prints the registry, one id and title per line, sorted by id, and
// exits.
//
// -measure extends the scaling experiment with wall-clock timing,
// allocation, peak-RSS columns, and fitted time-complexity slopes; it
// forces a serial run (like table6, concurrent cells would contend).
// Without it the scaling output is fully deterministic.
//
// -pair selects the algorithm pair "A:B" the adversarial experiment
// compares (default MCP:LAST); the search hunts instances on which B
// beats A. Names are the registry names, class-qualified where
// ambiguous (APN/DLS), or parameterized combo names (alap/eft/ins/st).
// An unknown name fails fast with the sorted list of valid ones.
// -archive names a directory the adversarial experiment writes its
// found counterexamples into, as .tg fixtures with provenance headers.
// -faults switches the adversarial search to the fault-gap objective:
// candidates are scored on fault-effective makespans measured under the
// canonical fault scenario (crashes at MTBF equal to the graph's
// critical-path computation cost, reactive resubmit recovery) instead
// of static makespans.
//
// With -scale=quick (the default) each experiment runs a reduced
// workload in seconds; -scale=full reproduces the paper's instance
// counts and can take minutes.
//
// -workers bounds how many (algorithm × instance) scheduling cells run
// concurrently; it defaults to GOMAXPROCS, and -workers=1 forces a
// serial run. Output is byte-identical for every worker count — except
// table6's timing cells, which are wall-clock measurements and vary run
// to run (use -workers=1 there for timings comparable to the paper's).
// The benchmark suites — including the RGBOS branch-and-bound optima
// shared by table2 and table3 — are generated once per dagbench run.
//
// -cpuprofile and -memprofile write pprof profiles covering the
// experiment runs, for diagnosing scheduling-kernel regressions:
//
//	dagbench -exp table6 -cpuprofile cpu.out
//	go tool pprof cpu.out
//
// -memprofile pairs with the scaling experiment's peak-RSS column: the
// rss-MB column (under -measure) reports the OS-level high-water mark
// per rung, while the heap profile attributes the steady-state live
// bytes to allocation sites:
//
//	dagbench -exp scaling -scale full -measure -memprofile heap.out
//
// Observability (see docs/observability.md; none of these switches
// changes a single experiment output byte):
//
//   - -trace FILE records every scheduler placement decision — node,
//     staged priority, candidate processors with their ESTs, the chosen
//     slot, insertion vs append. ".jsonl" paths get one JSON record per
//     line; any other extension gets Chrome trace-event JSON, which
//     ui.perfetto.dev renders as a per-processor Gantt chart per run.
//     Tracing forces -workers=1 (the trace is a serial log of decisions;
//     interleaved runs would shuffle it).
//   - -metrics enables the internal metric registry (scheduling cells,
//     cache hits, EST-cache rebuilds, simulator stalls, ...) and prints
//     the counters to stderr after the experiments finish.
//   - -manifest FILE writes a reproducibility receipt after a successful
//     run: tool version, go version, flags, and the SHA-256 of the
//     experiment bytes written to stdout (the wall-clock trailer lines
//     are excluded, so equal configurations yield equal output hashes).
//   - -version prints the build version (stamped via
//     -ldflags "-X repro/internal/obs.Version=...", falling back to the
//     VCS revision) and exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	taskgraph "repro"
)

func main() {
	// All work happens in run so its defers — in particular the pprof
	// teardown, which must flush even when an experiment fails — run
	// before the process exits.
	os.Exit(run())
}

// run returns the process exit code; it is named so the -memprofile
// defer can fail the run after the experiments succeed.
func run() (code int) {
	exp := flag.String("exp", "all", "experiment id or comma-separated list (table1..table6, fig2..fig4, unccs, tdb, genx, robust, components, adversarial, faults, scaling, or all)")
	scale := flag.String("scale", "quick", "workload scale: quick or full")
	seed := flag.Int64("seed", 1998, "random seed for the benchmark suites")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent scheduling cells (<= 0: GOMAXPROCS)")
	pair := flag.String("pair", "", "algorithm pair \"A:B\" for the adversarial experiment (default MCP:LAST)")
	archive := flag.String("archive", "", "directory the adversarial experiment archives counterexample fixtures into")
	faults := flag.Bool("faults", false, "score adversarial candidates on fault-effective makespans (fault-gap objective) instead of static makespans")
	measure := flag.Bool("measure", false, "add wall-clock timing, allocation, peak-RSS, and time-slope columns to the scaling experiment (forces a serial run)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the experiment runs to this file")
	trace := flag.String("trace", "", "write scheduler decision traces to this file (.jsonl: JSON lines; otherwise Chrome trace-event JSON for Perfetto; forces -workers=1)")
	metrics := flag.Bool("metrics", false, "collect internal metrics and print them to stderr after the run")
	manifest := flag.String("manifest", "", "write a reproducibility manifest (build, config, output hash) to this file after a successful run")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Fprintf(os.Stdout, "dagbench %s (%s)\n", taskgraph.VersionString(), runtime.Version())
		return 0
	}

	if *metrics {
		taskgraph.EnableMetrics(true)
		defer func() {
			if err := taskgraph.WriteMetrics(os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "dagbench: -metrics: %v\n", err)
				code = 1
			}
		}()
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dagbench: -trace: %v\n", err)
			return 1
		}
		tracer := taskgraph.NewTracer(f, taskgraph.TraceFormatForPath(*trace))
		taskgraph.SetTracer(tracer)
		// The trace is a serial log of placement decisions; concurrent
		// cells would interleave runs, so tracing forces a serial run
		// (same policy as -measure).
		*workers = 1
		defer func() {
			taskgraph.SetTracer(nil)
			if err := tracer.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "dagbench: -trace: %v\n", err)
				code = 1
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "dagbench: -trace: %v\n", err)
				code = 1
			}
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dagbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dagbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dagbench: -memprofile: %v\n", err)
				code = 1
				return
			}
			defer f.Close()
			runtime.GC() // report live steady-state heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dagbench: -memprofile: %v\n", err)
				code = 1
			}
		}()
	}

	// Validate the adversarial pair before anything runs, so a typo
	// fails fast with the sorted algorithm menu.
	if *pair != "" {
		if _, _, err := taskgraph.ParseAlgorithmPair(*pair); err != nil {
			fmt.Fprintf(os.Stderr, "dagbench: -pair: %v\n", err)
			return 2
		}
	}

	// With -manifest, experiment output is teed through a SHA-256
	// digest. The wall-clock trailer lines below are written to stdout
	// directly, bypassing the digest, so the recorded output hash is
	// deterministic for a given configuration.
	var out io.Writer = os.Stdout
	var hashed *taskgraph.HashWriter
	if *manifest != "" {
		hashed = taskgraph.NewHashWriter(os.Stdout)
		out = hashed
	}

	cfg := taskgraph.ExperimentConfig{
		Seed:    *seed,
		Out:     out,
		Workers: *workers,
		// One cache per run: suites and RGBOS optima are shared by
		// every experiment below.
		Cache:              taskgraph.NewSuiteCache(),
		AdversarialPair:    *pair,
		AdversarialArchive: *archive,
		AdversarialFaults:  *faults,
		ScalingMeasure:     *measure,
	}
	switch *scale {
	case "quick":
		cfg.Scale = taskgraph.Quick
	case "full":
		cfg.Scale = taskgraph.Full
	default:
		fmt.Fprintf(os.Stderr, "dagbench: unknown scale %q (want quick or full)\n", *scale)
		return 2
	}

	if *exp == "list" || *exp == "help" {
		// Print the experiment registry, sorted by id, and exit without
		// running anything.
		exps := taskgraph.Experiments()
		sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
		width := 0
		for _, e := range exps {
			if len(e.ID) > width {
				width = len(e.ID)
			}
		}
		for _, e := range exps {
			fmt.Fprintf(os.Stdout, "%-*s  %s\n", width, e.ID, e.Title)
		}
		return 0
	}

	ids := taskgraph.ExperimentIDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
		}
		// Validate every requested id against the experiment registry
		// before running anything, so a typo fails fast with the menu
		// instead of surfacing after earlier experiments already ran.
		valid := make(map[string]bool, len(taskgraph.ExperimentIDs()))
		for _, id := range taskgraph.ExperimentIDs() {
			valid[id] = true
		}
		for _, id := range ids {
			if !valid[id] {
				names := append([]string(nil), taskgraph.ExperimentIDs()...)
				sort.Strings(names)
				fmt.Fprintf(os.Stderr, "dagbench: unknown experiment %q (valid: %s, or all)\n",
					id, strings.Join(names, ", "))
				return 2
			}
		}
	}
	for _, id := range ids {
		start := time.Now()
		if err := taskgraph.RunExperiment(id, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "dagbench: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(os.Stdout, "(%s finished in %.1fs)\n\n", id, time.Since(start).Seconds())
	}

	if *manifest != "" {
		m := taskgraph.NewRunManifest("dagbench", os.Args[1:])
		m.SetConfig("exp", *exp)
		m.SetConfig("scale", *scale)
		m.SetConfig("seed", fmt.Sprint(*seed))
		m.SetConfig("workers", fmt.Sprint(*workers))
		if *pair != "" {
			m.SetConfig("pair", *pair)
		}
		if *archive != "" {
			m.SetConfig("archive", *archive)
		}
		if *faults {
			m.SetConfig("faults", "true")
		}
		if *measure {
			m.SetConfig("measure", "true")
		}
		if *trace != "" {
			m.SetConfig("trace", *trace)
		}
		m.SetOutput(hashed)
		f, err := os.Create(*manifest)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dagbench: -manifest: %v\n", err)
			return 1
		}
		if err := m.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "dagbench: -manifest: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dagbench: -manifest: %v\n", err)
			return 1
		}
	}
	return code
}
