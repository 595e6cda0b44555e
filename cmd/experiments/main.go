// Command experiments regenerates every table and figure of the paper's
// evaluation over the embedded benchmark corpus.
//
// Usage:
//
//	experiments              # all figures + cost table
//	experiments -fig 4       # one figure (2, 3, 4, 6, or 7)
//	experiments -costs       # CI vs CS work/time comparison only
//	experiments -json        # machine-readable summary (deterministic)
//	experiments -jobs 8      # analyze corpus units on 8 workers
//	experiments -timing      # per-unit wall times + parallel speedup
//	experiments -worklist lifo   # solver worklist: fifo (default) or lifo
//	experiments -backend frontier    # four-way precision/cost frontier table
//	experiments -backend andersen    # also solve each unit with one constraint backend
//	experiments -queries     # demand-query sweep per unit + demand-vs-exhaustive table
//	experiments -stats       # append solver engine counters (or embed in -json)
//	experiments -metrics     # collect batch metrics (table, or embed in -json)
//	experiments -trace       # phase span tree on stderr
//	experiments -trace-out f # Chrome trace_event file (load in about:tracing)
//	experiments -cpuprofile f  # pprof CPU profile with per-phase labels
//	experiments -memprofile f  # pprof heap profile at exit
//	experiments -nossa       # ablation: keep scalars in the store
//	experiments -singleheap  # ablation: one heap base for all sites
//	corpusgen -n 2000 -seed 42 | experiments -population   # agreement distribution over a generated population
//
// The corpus units analyze on a bounded worker pool (-jobs, default
// GOMAXPROCS); results merge back in the corpus' canonical order, so
// every figure and the JSON summary are byte-identical at any -jobs
// value, including the sequential -jobs=1 run. The observability flags
// keep that guarantee: only Deterministic-stability metrics reach the
// JSON summary; wall-clock and visit-order quantities render on stderr
// and in the trace file only.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"aliaslab/internal/backend"
	"aliaslab/internal/corpus"
	"aliaslab/internal/corpusgen"
	"aliaslab/internal/experiments"
	"aliaslab/internal/obs"
	"aliaslab/internal/report"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

func main() { os.Exit(run()) }

func run() int {
	fig := flag.Int("fig", 0, "render one figure (2, 3, 4, 6, 7); 0 = everything")
	costs := flag.Bool("costs", false, "render only the CI vs CS cost comparison")
	jsonOut := flag.Bool("json", false, "render the machine-readable JSON summary instead of figures")
	jobs := flag.Int("jobs", 0, "corpus units analyzed concurrently (0 = GOMAXPROCS, 1 = sequential)")
	timing := flag.Bool("timing", false, "append per-unit wall times and the aggregate parallel speedup")
	worklist := flag.String("worklist", "", "solver worklist strategy: fifo (default) or lifo")
	backendFlag := flag.String("backend", "", "run a constraint backend per unit (andersen, steensgaard) or render the four-way frontier table (frontier)")
	queries := flag.Bool("queries", false, "also sweep each unit's variables through the demand-driven query engine, cross-checked against the exhaustive answer; appends the demand-vs-exhaustive table")
	statsOut := flag.Bool("stats", false, "append the solver engine counters (embedded in the summary with -json)")
	metricsOut := flag.Bool("metrics", false, "collect batch metrics: table on stdout, or the deterministic subset embedded in the -json summary")
	traceOn := flag.Bool("trace", false, "record phase spans and print the span tree to stderr")
	traceOut := flag.String("trace-out", "", "write the phase spans as a Chrome trace_event file (implies -trace)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (with per-phase pprof labels) to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	noSSA := flag.Bool("nossa", false, "ablation: keep non-addressed scalars in the store")
	singleHeap := flag.Bool("singleheap", false, "ablation: name all heap storage with one base")
	population := flag.Bool("population", false, "read a corpusgen stream on stdin and render the population agreement study (JSON with -json)")
	flag.Parse()

	strategy, err := solver.ParseStrategy(*worklist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	frontier := *backendFlag == "frontier"
	var backendKind backend.Kind
	if !frontier {
		backendKind, err = backend.ParseKind(*backendFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err, "(or frontier)")
			return 2
		}
		if backendKind == backend.CS {
			// -backend cs is the existing CS batch, not an extra solve.
			backendKind = backend.CI
		}
	}

	tracing := *traceOn || *traceOut != ""
	var tr *obs.Tracer
	if tracing || *cpuprofile != "" {
		// MemStats deltas only when a human will read the tree; pprof
		// labels always, so a CPU profile attributes samples to phases.
		tr = obs.New(obs.Config{MemStats: tracing, Labels: true})
	}
	var reg *obs.Registry
	if *metricsOut {
		reg = obs.NewRegistry()
	}
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer stop()
	}

	opts := vdg.Options{NoSSA: *noSSA, SingleHeapBase: *singleHeap}

	if *population {
		// The population study replaces the corpus: the units come from a
		// corpusgen stream on stdin (`corpusgen -n 2000 -seed 42 |
		// experiments -population`), and the rendering is the agreement
		// distribution rather than the paper's per-benchmark figures.
		progs, err := corpusgen.ReadStream(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		res, err := experiments.RunPopulation(progs, experiments.PopulationOptions{
			Jobs: *jobs, Opts: opts, Strategy: strategy,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		if *jsonOut {
			if err := experiments.WritePopulationJSON(os.Stdout, res); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
		} else {
			experiments.WritePopulation(os.Stdout, res)
		}
		if len(res.Failed) > 0 {
			return 1
		}
		return 0
	}

	needCS := *costs || *jsonOut || *fig == 0 || *fig == 6 || *fig == 7

	if frontier {
		rows, skipped, err := experiments.RunFrontier(corpus.Names(), experiments.BatchOptions{
			Opts: opts, Jobs: *jobs, Strategy: strategy, Trace: tr, Metrics: reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		for _, name := range skipped {
			fmt.Fprintf(os.Stderr, "experiments: %s skipped: no converged CS reference\n", name)
		}
		experiments.Frontier(os.Stdout, rows)
		if tracing {
			obs.WriteTree(os.Stderr, tr)
		}
		if len(skipped) > 0 {
			return 1
		}
		return 0
	}

	t0 := time.Now()
	rs, err := experiments.RunBatch(corpus.Names(), experiments.BatchOptions{
		WithCS: needCS, Opts: opts, Jobs: *jobs, Strategy: strategy,
		Trace: tr, Metrics: reg, Backend: backendKind, Queries: *queries,
	})
	wall := time.Since(t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	// Per-unit failures don't stop the batch: report them, render the
	// figures for the programs that did analyze. A capped unit gets its
	// own marker — a CS run stopped at its step bound is not converged
	// and must not pass silently for one that is.
	failed := experiments.Failures(rs)
	for _, r := range failed {
		fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", r.Name, r.Err)
		if r.Capped {
			fmt.Fprintf(os.Stderr, "experiments: %s: capped — context-sensitive analysis stopped before convergence; its results are an under-approximation\n", r.Name)
		}
	}

	w := os.Stdout
	rsp := tr.StartSpan("report")
	switch {
	case *jsonOut:
		if err := experiments.WriteJSONWith(w, rs, experiments.JSONOptions{EngineStats: *statsOut, Metrics: reg}); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	case *costs:
		experiments.Costs(w, rs)
	case *fig == 2:
		experiments.Figure2(w, rs)
	case *fig == 3:
		experiments.Figure3(w, rs)
	case *fig == 4:
		experiments.Figure4(w, rs)
	case *fig == 6:
		experiments.Figure6(w, rs)
	case *fig == 7:
		experiments.Figure7(w, rs)
	case *fig != 0:
		fmt.Fprintln(os.Stderr, "experiments: unknown figure", *fig)
		return 2
	default:
		experiments.WriteAll(w, rs)
	}
	if *queries && !*jsonOut {
		fmt.Fprintln(w)
		experiments.QueryCosts(w, rs)
	}
	if *statsOut && !*jsonOut {
		fmt.Fprintln(w)
		experiments.EngineStats(w, rs)
	}
	if *metricsOut && !*jsonOut {
		// The text table shows everything, Volatile metrics included —
		// it is a diagnostic, not a golden surface.
		fmt.Fprintln(w)
		report.Metrics(w, reg.Snapshot())
	}
	if *timing && !*jsonOut {
		fmt.Fprintln(w)
		experiments.Timing(w, rs, wall, effectiveJobs(*jobs))
	}
	rsp.End()

	if tracing {
		obs.WriteTree(os.Stderr, tr)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = obs.WriteChromeTrace(f, tr)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	}
	if *memprofile != "" {
		if err := obs.WriteHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	}
	if len(failed) > 0 {
		return 1
	}
	return 0
}

// effectiveJobs mirrors the pool's default so the timing table reports
// the width that actually ran.
func effectiveJobs(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}
