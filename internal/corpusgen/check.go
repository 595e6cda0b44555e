package corpusgen

import (
	"fmt"

	"aliaslab/internal/core"
	"aliaslab/internal/limits"
	"aliaslab/internal/oracle"
	"aliaslab/internal/vdg"
)

// CheckResult is the oracle verdict on one generated program.
type CheckResult struct {
	Name       string
	Violations []oracle.Violation

	// LoadErr is set when the front end rejects the program — on
	// generated input that is itself a generator bug, and the -check
	// driver treats it as a failure.
	LoadErr error
}

// OK reports whether the unit loaded and passed every invariant.
func (c CheckResult) OK() bool {
	return c.LoadErr == nil && len(c.Violations) == 0
}

// checkSteps bounds each context-sensitive oracle attempt on generated
// units. Generated programs are small (tens of functions); a unit that
// needs more steps than this is adversarial, and the oracle's own
// refusal error then surfaces as a violation rather than a hang.
const checkSteps = 2_000_000

// VetSteps is the step budget a vet solve gets on a generated unit,
// the per-request budget perfbench's daemon-mix sends. The CI solve of
// a diagnostics build converges inside it (at most about 133,000 steps
// over Sweep seeds 1–5, indices 0–1699); a solve that stops there
// diverges.
const VetSteps = 300_000

// CheckUnit runs the full oracle lattice on one generated program:
// every theorem invariant (CS ⊆ CI ⊆ Andersen ⊆ Steensgaard, the
// widening lattice, governed-full) plus worklist-strategy confluence,
// and solves the unit's diagnostics build (the -vet path) under
// VetSteps. Indirect agreement is the paper's *empirical* claim, not a
// theorem — generated programs are free to disagree, so it is measured
// by the population study rather than asserted here.
func CheckUnit(p Program) CheckResult {
	u, err := p.Load(vdg.Options{})
	if err != nil {
		return CheckResult{Name: p.Name, LoadErr: fmt.Errorf("front end rejected generated program: %w", err)}
	}
	opts := oracle.Options{
		ExpectIndirectAgreement: false,
		MaxSteps:                checkSteps,
	}
	vs := oracle.Check(p.Name, u, opts)
	vs = append(vs, oracle.CheckStrategies(p.Name, u, opts)...)
	vv, err := checkVet(p)
	if err != nil {
		return CheckResult{Name: p.Name, LoadErr: err}
	}
	return CheckResult{Name: p.Name, Violations: append(vs, vv...)}
}

// checkVet solves the unit's diagnostics build under VetSteps and
// reports a stopped solve as a vet-converges violation.
func checkVet(p Program) ([]oracle.Violation, error) {
	u, err := p.Load(vdg.Options{Diagnostics: true})
	if err != nil {
		return nil, fmt.Errorf("front end rejected diagnostics build: %w", err)
	}
	res := core.AnalyzeInsensitiveBudgeted(u.Graph, limits.Budget{MaxSteps: VetSteps})
	if res.Stopped == nil {
		return nil, nil
	}
	return []oracle.Violation{{
		Program:   p.Name,
		Invariant: vetConverges,
		Detail:    fmt.Sprintf("CI solve of the diagnostics build stopped: %v", res.Stopped),
	}}, nil
}

const vetConverges = "vet-converges"

// StillFails builds a Shrink predicate from a failing program: the
// candidate text must load and break at least one of the same oracle
// invariants. Used by -check to minimize a violation into a committed
// reproducer.
func StillFails(p Program) func(string) bool {
	orig := CheckUnit(p)
	broke := map[string]bool{}
	for _, v := range orig.Violations {
		broke[v.Invariant] = true
	}
	return func(src string) bool {
		candP := Program{Name: p.Name, Seed: p.Seed, Index: p.Index, Knobs: p.Knobs, Source: src}
		if broke[vetConverges] {
			// The vet solve alone decides the common case cheaply: a
			// diverging candidate stops after VetSteps, without paying
			// for the whole lattice.
			if vv, err := checkVet(candP); err == nil && len(vv) > 0 {
				return true
			} else if err != nil || len(broke) == 1 {
				return false
			}
		}
		cand := CheckUnit(candP)
		if cand.LoadErr != nil {
			// A candidate the front end rejects is not a smaller witness
			// of an analysis bug; validity is part of the predicate.
			return false
		}
		for _, v := range cand.Violations {
			if broke[v.Invariant] {
				return true
			}
		}
		return false
	}
}
