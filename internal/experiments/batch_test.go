package experiments_test

// Tests of the parallel batch engine: determinism across worker
// counts, shared-budget behavior, capped-unit marking, and worker
// isolation under the race detector.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"aliaslab/internal/backend"
	"aliaslab/internal/corpus"
	"aliaslab/internal/experiments"
	"aliaslab/internal/limits"
	"aliaslab/internal/sched"
)

// renderDeterministic renders everything whose bytes must not depend on
// scheduling: the five figures plus the JSON summary (the cost table
// carries wall-clock times and is excluded by design).
func renderDeterministic(t *testing.T, rs []*experiments.ProgramResult) string {
	t.Helper()
	var buf bytes.Buffer
	experiments.Figure2(&buf, rs)
	experiments.Figure3(&buf, rs)
	experiments.Figure4(&buf, rs)
	experiments.Figure6(&buf, rs)
	experiments.Figure7(&buf, rs)
	if err := experiments.WriteJSON(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBatchDeterministicAcrossJobs is the engine's core guarantee:
// sequential RunAll, RunBatch at -jobs=1, and RunBatch at -jobs=8
// render byte-identical figures and JSON over the full corpus.
func TestBatchDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus CS comparison at three widths")
	}
	want := renderDeterministic(t, runAll(t)) // cached sequential reference

	for _, jobs := range []int{1, 8} {
		rs, err := experiments.RunBatch(corpus.Names(), experiments.BatchOptions{
			WithCS: true, Jobs: jobs,
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if got := renderDeterministic(t, rs); got != want {
			line := firstDiffLine(got, want)
			t.Errorf("jobs=%d rendering differs from sequential run (first diff at line %d)", jobs, line)
		}
	}
}

// firstDiffLine locates the first differing line of two renderings.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}

// TestBatchMergesInCanonicalOrder: slot i of the result always carries
// program i, at any worker count.
func TestBatchMergesInCanonicalOrder(t *testing.T) {
	names := corpus.Names()
	rs, err := experiments.RunBatch(names, experiments.BatchOptions{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(names) {
		t.Fatalf("got %d results, want %d", len(rs), len(names))
	}
	for i, r := range rs {
		if r.Name != names[i] {
			t.Errorf("slot %d holds %q, want %q", i, r.Name, names[i])
		}
		if r.Failed() {
			t.Errorf("%s failed: %v", r.Name, r.Err)
		}
	}
}

// TestBatchParallelIsolation runs corpus units concurrently in multiple
// parallel subtests; under -race this proves no mutable state —
// universes, interning tables, solver worklists — leaks across workers.
func TestBatchParallelIsolation(t *testing.T) {
	for _, jobs := range []int{2, 4, 8} {
		jobs := jobs
		t.Run(strings.Repeat("j", jobs), func(t *testing.T) {
			t.Parallel()
			rs, err := experiments.RunBatch(corpus.Names(), experiments.BatchOptions{Jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				if r.Failed() || r.CI == nil {
					t.Errorf("%s: no CI result: %v", r.Name, r.Err)
				}
			}
		})
	}
}

// TestBatchSharedBudget: a step cap far below the corpus total is
// exhausted partway through the batch; the violating unit records the
// violation, later units are skipped with the violation as their
// cause, and units analyzed before exhaustion keep their results.
func TestBatchSharedBudget(t *testing.T) {
	names := corpus.Names()
	rs, err := experiments.RunBatch(names, experiments.BatchOptions{
		Jobs:   1, // deterministic exhaustion point
		Budget: limits.Budget{MaxSteps: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}

	var completed, stopped, skipped int
	seenStop := false
	for _, r := range rs {
		switch {
		case !r.Failed():
			completed++
			if seenStop {
				t.Errorf("%s completed after the shared budget was exhausted", r.Name)
			}
		case r.Stopped != nil:
			stopped++
			seenStop = true
			if r.Stopped.Reason != limits.Steps {
				t.Errorf("%s: stopped for %v, want Steps", r.Name, r.Stopped.Reason)
			}
		default:
			if se, ok := sched.Skipped(r.Err); ok {
				skipped++
				var v *limits.Violation
				if !errors.As(se.Cause, &v) {
					t.Errorf("%s: skip cause is not the budget violation: %v", r.Name, se.Cause)
				}
			} else {
				t.Errorf("%s: unexpected failure kind: %v", r.Name, r.Err)
			}
		}
	}
	if stopped != 1 {
		t.Errorf("%d units recorded the violation, want exactly 1", stopped)
	}
	if skipped == 0 {
		t.Error("no unit was skipped; the cap should not cover the whole corpus")
	}
	if completed+stopped+skipped != len(names) {
		t.Errorf("slots unaccounted: %d+%d+%d != %d", completed, stopped, skipped, len(names))
	}
}

// TestBatchSharedBudgetPoolsAcrossWorkers: the same cap trips no matter
// the worker count — the ledger sums work across workers rather than
// giving each worker its own allowance. How many units finish before
// the ledger trips depends on scheduling; under load none may, and
// RunBatch then reports that every unit failed. Either way each
// failure must be the shared-budget violation or a skip it caused.
func TestBatchSharedBudgetPoolsAcrossWorkers(t *testing.T) {
	rs, err := experiments.RunBatch(corpus.Names(), experiments.BatchOptions{
		Jobs:   8,
		Budget: limits.Budget{MaxSteps: 2000},
	})
	if rs == nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range rs {
		if !r.Failed() {
			continue
		}
		failed++
		var v *limits.Violation
		if se, ok := sched.Skipped(r.Err); ok {
			if !errors.As(se.Cause, &v) {
				t.Errorf("%s: skip cause is not the budget violation: %v", r.Name, se.Cause)
			}
		} else if r.Stopped == nil || r.Stopped.Reason != limits.Steps {
			t.Errorf("%s: failed for something other than the shared step budget: %v", r.Name, r.Err)
		}
	}
	if err != nil && failed != len(rs) {
		t.Errorf("RunBatch error %v with only %d of %d units failed", err, failed, len(rs))
	}
	if failed == 0 {
		t.Fatal("a 2000-step batch budget was never exhausted at jobs=8; workers are not sharing the ledger")
	}
}

// TestCappedUnitIsMarked: a CS step bound that trips mid-corpus marks
// the unit Capped (and failed) instead of letting a bounded run
// masquerade as converged.
func TestCappedUnitIsMarked(t *testing.T) {
	// A per-batch budget whose step cap is high enough for CI on the
	// first units but far below any CS fixpoint.
	// The single-unit batch fails outright (its only unit is capped),
	// so RunBatch's "all failed" error is expected here.
	rs, _ := experiments.RunBatch([]string{"part"}, experiments.BatchOptions{
		WithCS: true,
		Budget: limits.Budget{MaxSteps: 4000},
	})
	r := rs[0]
	if !r.Failed() {
		t.Fatal("budget-stopped CS unit reported success")
	}
	if !r.Capped {
		t.Fatal("budget-stopped CS unit not marked Capped")
	}
	if r.Stopped == nil {
		t.Fatal("capped unit lost its violation")
	}
	if !strings.Contains(r.Err.Error(), "stopped early") {
		t.Fatalf("capped unit error does not surface the stop: %v", r.Err)
	}
}

// A misconfigured batch is rejected up front with a typed error
// instead of silently running something other than what was asked.
func TestBatchOptionsValidate(t *testing.T) {
	_, err := experiments.RunBatch(corpus.Names()[:1], experiments.BatchOptions{Backend: backend.CS, Jobs: 1})
	var ke *backend.KindError
	if !errors.As(err, &ke) {
		t.Fatalf("Backend: CS must be a typed *backend.KindError, got %v", err)
	}
	if _, err := experiments.RunBatch(corpus.Names()[:1], experiments.BatchOptions{Backend: backend.Steensgaard, Jobs: 1}); err != nil {
		t.Fatalf("steensgaard batch (CI reference on the worklist engine) must validate: %v", err)
	}
}
