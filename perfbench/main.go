// Command perfbench is aliaslab's benchmark: three seeded workloads
// driven through the public entry points of the analysis modules, with
// every answer checked outside the timed phase.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (README.md gives their rates, limits and seeds):
//
//   - paper-eval: the paper's experiment as a closed loop with one
//     worker. An op is one corpus unit through the front end, the CI and
//     CS solves, Andersen, Steensgaard and the Figure 2-7 statistics.
//   - daemon-mix: aliaslabd traffic as an open loop at a fixed offered
//     rate, POSTed in-process through server.Server.ServeHTTP.
//   - query-session: a library user asking demand-driven PointsTo and
//     MayAlias questions of units opened once with aliaslab.ParseProgram.
//
// A run is a fixed number of rounds, set by --seconds and the nominal
// length of the workload's round, so that every commit measures the
// same ops. A round sets up its inputs, runs a fixed list of ops, then
// checks them.
// With --trace 0 the run prints the end-to-end metrics. With --trace 1
// it runs one untraced and one traced round and prints the per-layer
// metrics, writing a Chrome trace and a per-layer summary to --out.
// The last line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aliaslab/internal/obs"
)

// workload runs round r of its seeded op list. A non-nil tracer records
// the layer spans.
type workload interface {
	round(seed int64, r int, tr *obs.Tracer) (*roundResult, error)
	// roundSeconds is the nominal length of a round's timed phase.
	roundSeconds() float64
}

func workloads() map[string]workload {
	return map[string]workload{
		"paper-eval":    newPaperEval(),
		"daemon-mix":    newDaemonMix(),
		"query-session": newQuerySession(),
	}
}

// roundResult is what one round measured.
type roundResult struct {
	Setup time.Duration   // input generation and loading
	Timed time.Duration   // wall time of the timed phase
	CPU   time.Duration   // process CPU time over the timed phase
	Lat   []time.Duration // one latency per attempted op; CPU time on paper-eval

	Attempted, Failed int
	Wrong             int            // failed answer checks, a subset of Failed
	Why               map[string]int // failed ops by reason

	// Open-loop figures (daemon-mix only).
	SLOMiss int             // failed, or slower than the latency limit
	Late    []time.Duration // how late the generator sent each request
	Limit   time.Duration
}

// fail records n failed ops for one reason.
func (rr *roundResult) fail(reason string, n int) {
	if rr.Why == nil {
		rr.Why = map[string]int{}
	}
	rr.Why[reason] += n
}

// forEach calls fn(i) for i in [0, n) on GOMAXPROCS goroutines and
// returns the errors joined. Only the answer checks use it, never a
// timed phase.
func forEach(n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && errs[w] == nil; i = int(next.Add(1) - 1) {
				errs[w] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run's JSON line. The run also
// prints op_p99_ms, fail_ratio and slo_miss_ratio, which are left out
// here: the two ratios are 0 on most runs, and op_p99_ms varies across
// seeds by more than the widest bound BENCHMARK.json allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/cpu-s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-eval, daemon-mix or query-session")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "timed seconds to measure")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	out := fs.String("out", ".bench_build/perfbench", "directory for the traced run's files")
	round := fs.Int("round", -1, "run only this round and print its result as JSON (used by the timed run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads()[*name]
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload paper-eval|daemon-mix|query-session, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if *round >= 0 {
		rr, err := w.round(*seed, *round, nil)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(rr)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var res *result
	var err error
	if *trace == 1 {
		stem := fmt.Sprintf("%s-seed%d", *name, *seed)
		res, err = tracedRun(w, *seed, *out, stem, stdout)
	} else {
		res, err = timedRun(w, *name, *seed, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// timedRun runs seconds/roundSeconds rounds, and at least three so
// that setup_s and peak_rss_mb are medians. The count depends on the
// arguments alone, so a faster or slower commit runs the same ops. Each
// round runs in a process of its own, so that its peak resident memory
// is its own and a round starts from the same state as every other.
func timedRun(w workload, name string, seed int64, seconds int, stdout io.Writer) (*result, error) {
	n := max(3, int(math.Ceil(float64(seconds)/w.roundSeconds())))
	var rounds []*roundResult
	var setups, rsss, rates []float64
	for r := 0; r < n; r++ {
		rr, rss, err := roundProcess(name, seed, r)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rr)
		setups = append(setups, rr.Setup.Seconds())
		rsss = append(rsss, rss)
		rates = append(rates, rr.opsPerS())
	}
	agg := merge(rounds)
	rss := quantile(rsss, 0.5)

	lat := millis(agg.Lat)
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	done := agg.Attempted - agg.Failed
	opsPerS := quantile(rates, 0.5)
	setupMedian := quantile(setups, 0.5)

	fmt.Fprintf(stdout, "rounds=%d timed=%.3fs\n", len(rounds), agg.Timed.Seconds())
	fmt.Fprintf(stdout, "%-15s %12s %-9s %s\n", "metric", "value", "unit", "detail")
	row := func(name string, v float64, unit, detail string, args ...any) {
		fmt.Fprintf(stdout, "%-15s %12.6g %-9s %s\n", name, v, unit, fmt.Sprintf(detail, args...))
	}
	row("setup_s", setupMedian, "s", "median %.6g, p99 %.6g, n=%d set-ups", setupMedian, quantile(setups, 0.99), len(setups))
	row("ops_per_s", opsPerS, "ops/cpu-s", "median over rounds, pooled %.6g, wall-clock %.6g/s, n=%d completed ops",
		agg.opsPerS(), ratio(float64(done), agg.Timed.Seconds()), done)
	row("op_p50_ms", p50, "ms", "median %.6g, p99 %.6g, n=%d ops", p50, p99, len(lat))
	row("op_p99_ms", p99, "ms", "n=%d ops, %d beyond p99", len(lat), beyond(lat, p99))
	row("fail_ratio", ratio(float64(agg.Failed), float64(agg.Attempted)), "ratio",
		"%d failed of n=%d attempted (%d failed checks) %v", agg.Failed, agg.Attempted, agg.Wrong, agg.Why)
	if agg.Limit > 0 {
		late := millis(agg.Late)
		row("slo_miss_ratio", ratio(float64(agg.SLOMiss), float64(agg.Attempted)), "ratio",
			"%d of n=%d failed or over %v from the due time; generator late p50 %.3gms p99 %.3gms",
			agg.SLOMiss, agg.Attempted, agg.Limit, quantile(late, 0.5), quantile(late, 0.99))
	}
	row("peak_rss_mb", rss, "MB", "median over rounds, max %.6g, n=%d processes", quantile(rsss, 1), len(rsss))

	values := map[string]float64{"setup_s": setupMedian, "ops_per_s": opsPerS, "op_p50_ms": p50, "peak_rss_mb": rss}
	metrics := map[string]metricValue{}
	for _, d := range endToEnd {
		metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	return &result{Correct: agg.Wrong == 0, Attempted: agg.Attempted, Failed: agg.Failed, Metrics: metrics}, nil
}

// roundProcess runs round r in a child process and returns its result
// and its peak resident set size in MB.
func roundProcess(name string, seed int64, r int) (*roundResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--round", strconv.Itoa(r))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("round %d: %w", r, err)
	}
	var rr roundResult
	if err := json.Unmarshal(out, &rr); err != nil {
		return nil, 0, fmt.Errorf("round %d: %w", r, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, fmt.Errorf("round %d: no resource usage", r)
	}
	return &rr, float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// opsPerS is the throughput of the ops that completed, per CPU second
// of the process over the timed phase. An open loop below saturation
// completes what it is offered, so its wall-clock rate would be the
// offered rate whatever the program does. A closed loop's wall-clock
// rate also counts the time the process waited for a core while other
// processes or the hypervisor ran; its CPU time does not.
func (rr *roundResult) opsPerS() float64 {
	return ratio(float64(rr.Attempted-rr.Failed), rr.CPU.Seconds())
}

// beyond counts the samples above q.
func beyond(xs []float64, q float64) int {
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

// merge pools the ops of several rounds.
func merge(rounds []*roundResult) *roundResult {
	agg := &roundResult{}
	for _, rr := range rounds {
		agg.Timed += rr.Timed
		agg.CPU += rr.CPU
		agg.Lat = append(agg.Lat, rr.Lat...)
		agg.Late = append(agg.Late, rr.Late...)
		agg.Attempted += rr.Attempted
		agg.Failed += rr.Failed
		agg.Wrong += rr.Wrong
		agg.SLOMiss += rr.SLOMiss
		agg.Limit = rr.Limit
		for k, n := range rr.Why {
			agg.fail(k, n)
		}
	}
	return agg
}

// tracedRun runs round 0 untraced, as the reference for trace.overhead
// and the runtime figures, then again traced, and reports the per-layer
// metrics of the traced round. Its counts depend on the seed alone.
func tracedRun(w workload, seed int64, dir, stem string, stdout io.Writer) (*result, error) {
	gc0 := readGC()
	ref, err := w.round(seed, 0, nil)
	if err != nil {
		return nil, err
	}
	gc := gc0.to(readGC())

	tr := obs.New(obs.Config{})
	traced, err := w.round(seed, 0, tr)
	if err != nil {
		return nil, err
	}
	m := summarize(tr).layerMetrics()
	m["gc.cycles"] = float64(gc.cycles)
	m["gc.cpu_fraction"] = gc.cpuFraction
	m["gc.pause_ms"] = gc.pauseMS
	m["loadgen.late_p99_ms"] = quantile(millis(ref.Late), 0.99)
	m["trace.overhead"] = ratio(quantile(millis(ref.Lat), 0.5), quantile(millis(traced.Lat), 0.5))

	metrics := map[string]metricValue{}
	for _, d := range perLayer {
		metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	files, err := writeTrace(dir, stem, tr, metrics)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(perLayer))
	for _, d := range perLayer {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-26s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "trace files: %s %s\n", files[0], files[1])

	agg := merge([]*roundResult{ref, traced})
	return &result{
		Correct:   agg.Wrong == 0,
		Attempted: agg.Attempted,
		Failed:    agg.Failed,
		Metrics:   metrics,
	}, nil
}

// perLayer are the metrics of a traced run. Totals cover the traced
// round's fixed op list; layers a workload does not call read 0.
var perLayer = []metricDef{
	{"lexer.ms", "ms", "lower"},
	{"lexer.tokens", "count", "lower"},
	{"lexer.alloc_mb", "MB", "lower"},
	{"parser.ms", "ms", "lower"},
	{"parser.decls", "count", "lower"},
	{"parser.alloc_mb", "MB", "lower"},
	{"sema.ms", "ms", "lower"},
	{"sema.alloc_mb", "MB", "lower"},
	{"vdg.ms", "ms", "lower"},
	{"vdg.nodes", "count", "lower"},
	{"vdg.outputs", "count", "lower"},
	{"vdg.alloc_mb", "MB", "lower"},
	{"core.ci.ms", "ms", "lower"},
	{"core.ci.steps", "count", "lower"},
	{"core.ci.meets", "count", "lower"},
	{"core.ci.pair_inserts", "count", "lower"},
	{"core.ci.inserts_per_step", "ratio", "higher"},
	{"core.ci.alloc_mb", "MB", "lower"},
	{"core.cs.ms", "ms", "lower"},
	{"core.cs.steps", "count", "lower"},
	{"core.cs.meets", "count", "lower"},
	{"core.cs.subsume_drops", "count", "lower"},
	{"core.cs.alloc_mb", "MB", "lower"},
	{"andersen.ms", "ms", "lower"},
	{"andersen.pair_inserts", "count", "lower"},
	{"andersen.sccs", "count", "higher"},
	{"andersen.alloc_mb", "MB", "lower"},
	{"steensgaard.ms", "ms", "lower"},
	{"steensgaard.unions", "count", "lower"},
	{"steensgaard.alloc_mb", "MB", "lower"},
	{"stats.ms", "ms", "lower"},
	{"checkers.ms", "ms", "lower"},
	{"checkers.diags", "count", "lower"},
	{"report.ms", "ms", "lower"},
	{"server.self_ms", "ms", "lower"},
	{"server.queue_ms", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.refused", "count", "lower"},
	{"query.ms", "ms", "lower"},
	{"query.steps", "count", "lower"},
	{"query.slice_outputs", "count", "lower"},
	{"query.slice_fraction", "ratio", "lower"},
	{"query.memo_hit_ratio", "ratio", "higher"},
	{"corpusgen.ms", "ms", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.cpu_fraction", "ratio", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.overhead", "ratio", "higher"},
}
