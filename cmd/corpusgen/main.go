// Command corpusgen generates seeded populations of valid mini-C
// programs and checks the analysis oracle over them.
//
// Usage:
//
//	corpusgen -n 1000 -seed 42            # stream 1000 programs to stdout
//	corpusgen -n 1000 -seed 42 -jobs 8    # same bytes, generated on 8 workers
//	corpusgen -n 20 -dir out/             # one .c file per program instead
//	corpusgen -n 200 -check               # run the full oracle lattice per unit
//	corpusgen -n 200 -check -out repro/   # ...and write shrunk reproducers there
//
// The stream on stdout pipes into `experiments -population`. Output is
// a pure function of (-seed, -n): byte-identical on any machine, at any
// -jobs width. -check runs every theorem invariant (CS ⊆ CI ⊆ Andersen
// ⊆ Steensgaard, the widening lattice, governed-full, worklist-strategy
// confluence) on every generated unit, solves the unit's diagnostics
// build (the -vet path) under corpusgen.VetSteps — a stopped solve
// counts as a violation — plus a batch-determinism probe
// (the population JSON at -jobs 1 versus the requested width); a
// failing unit is greedily shrunk to a minimal reproducer, written as
// both a .c file and a Go fuzz corpus entry, and flips the exit status
// to 1.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"aliaslab/internal/corpusgen"
	"aliaslab/internal/experiments"
	"aliaslab/internal/sched"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("corpusgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 100, "population size")
	seed := fs.Int64("seed", 42, "population seed")
	jobs := fs.Int("jobs", 0, "workers for generation and checking (0 = GOMAXPROCS)")
	dir := fs.String("dir", "", "write one <unit>.c file per program into this directory instead of streaming")
	check := fs.Bool("check", false, "run the full oracle lattice and a vet-budget diagnostics solve on every generated unit")
	out := fs.String("out", "", "with -check: write shrunk reproducers of failing units into this directory")
	minimize := fs.Bool("minimize", false, "with -dir: shrink each program to its minimal still-loading core before writing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *n <= 0 {
		fmt.Fprintln(stderr, "corpusgen: -n must be positive")
		return 2
	}

	// Generation is order-free: worker i writes slot i, and the stream
	// renders from the slots in index order, so the bytes match the
	// sequential run at any width.
	progs := make([]corpusgen.Program, *n)
	sched.Pool{Jobs: *jobs}.Map(context.Background(), *n, func(_ context.Context, i int) error {
		progs[i] = corpusgen.Generate(*seed, i, corpusgen.SweepKnobs(*seed, i))
		return nil
	})

	switch {
	case *check:
		return runCheck(progs, *jobs, *out, stdout, stderr)
	case *dir != "":
		return writeDir(progs, *dir, *minimize, stderr)
	default:
		if err := corpusgen.WriteStream(stdout, *seed, progs); err != nil {
			fmt.Fprintln(stderr, "corpusgen:", err)
			return 1
		}
		return 0
	}
}

// writeDir writes each program as its own .c file, optionally shrunk to
// the minimal text the front end still accepts and that still contains
// an indirect operation (a compact corpus rather than a failing one).
func writeDir(progs []corpusgen.Program, dir string, minimize bool, stderr io.Writer) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "corpusgen:", err)
		return 1
	}
	for _, p := range progs {
		src := p.Source
		if minimize {
			src = corpusgen.ShrinkValid(p)
		}
		if err := os.WriteFile(filepath.Join(dir, p.Name+".c"), []byte(src), 0o644); err != nil {
			fmt.Fprintln(stderr, "corpusgen:", err)
			return 1
		}
	}
	return 0
}

// runCheck drives the oracle over the population on a worker pool, then
// probes batch determinism: the population JSON must be byte-identical
// at -jobs 1 and the requested width. Failing units are shrunk and
// written as reproducers.
func runCheck(progs []corpusgen.Program, jobs int, out string, stdout, stderr io.Writer) int {
	results := make([]corpusgen.CheckResult, len(progs))
	sched.Pool{Jobs: jobs}.Map(context.Background(), len(progs), func(_ context.Context, i int) error {
		results[i] = corpusgen.CheckUnit(progs[i])
		return nil
	})

	bad := 0
	for i, res := range results {
		if res.OK() {
			continue
		}
		bad++
		if res.LoadErr != nil {
			fmt.Fprintf(stderr, "corpusgen: %s: %v\n", res.Name, res.LoadErr)
		}
		for _, v := range res.Violations {
			fmt.Fprintf(stderr, "corpusgen: %s\n", v)
		}
		if out != "" {
			shrunk := corpusgen.Shrink(progs[i].Source, corpusgen.StillFails(progs[i]))
			path, err := corpusgen.WriteRepro(out, res.Name, shrunk)
			if err != nil {
				fmt.Fprintln(stderr, "corpusgen:", err)
				return 1
			}
			fmt.Fprintf(stderr, "corpusgen: %s: reproducer shrunk %d -> %d bytes: %s\n",
				res.Name, len(progs[i].Source), len(shrunk), path)
		}
	}

	// Batch determinism: the rendered population study must not depend
	// on the worker width.
	seq, err := populationJSON(progs, 1)
	if err != nil {
		fmt.Fprintln(stderr, "corpusgen:", err)
		return 1
	}
	par, err := populationJSON(progs, jobs)
	if err != nil {
		fmt.Fprintln(stderr, "corpusgen:", err)
		return 1
	}
	determinism := "ok"
	if !bytes.Equal(seq, par) {
		determinism = "FAILED"
		bad++
		fmt.Fprintf(stderr, "corpusgen: population JSON differs between -jobs 1 and -jobs %d\n", jobs)
	}

	fmt.Fprintf(stdout, "checked %d units: %d failed; batch determinism %s\n", len(progs), bad, determinism)
	if bad > 0 {
		return 1
	}
	return 0
}

func populationJSON(progs []corpusgen.Program, jobs int) ([]byte, error) {
	res, err := experiments.RunPopulation(progs, experiments.PopulationOptions{Jobs: jobs})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := experiments.WritePopulationJSON(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
