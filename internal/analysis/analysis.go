// Package analysis is the one request and solve layer behind every
// surface that runs a points-to analysis on a caller's behalf: the
// library facade, the aliaslab CLI (analysis and -vet) and the
// aliaslabd endpoints. Parse turns the two user-facing names (backend
// and worklist) into a validated Request; Solve runs it on a VDG and
// returns one Outcome shape, whichever of the four backends answered.
//
// What stays with each surface is its own wording and its own mode
// rules (vet refuses cs, queries run on ci only): those are about the
// surface, not the analysis.
package analysis

import (
	"fmt"

	"aliaslab/internal/backend"
	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/core"
	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// Request is a validated analysis selection. The zero value is the
// paper's context-insensitive analysis on the FIFO engine.
type Request struct {
	Kind     backend.Kind
	Strategy solver.Strategy
}

// WorklistError reports a worklist strategy aimed at a backend that
// has no worklist to schedule. It is typed so every surface rejects the
// combination loudly and identically instead of silently ignoring it.
type WorklistError struct {
	Kind     backend.Kind
	Worklist string
}

func (e *WorklistError) Error() string {
	return fmt.Sprintf("the %s backend has no worklist to schedule; -worklist %s does not apply (unification solves copies up front)", e.Kind, e.Worklist)
}

// Parse validates a backend name and a worklist name, in that order:
// the backend must be known (a *backend.NameError otherwise), the
// worklist must apply to it (only Steensgaard lacks one; an empty
// worklist is always valid), and the worklist must name a strategy.
func Parse(backendName, worklist string) (Request, error) {
	kind, err := backend.ParseKind(backendName)
	if err != nil {
		return Request{}, err
	}
	if kind == backend.Steensgaard && worklist != "" {
		return Request{}, &WorklistError{Kind: kind, Worklist: worklist}
	}
	strategy, err := solver.ParseStrategy(worklist)
	if err != nil {
		return Request{}, err
	}
	return Request{Kind: kind, Strategy: strategy}, nil
}

// Run names one engine run and its work counters.
type Run struct {
	Name  string // "ci", "cs", "andersen" or "steensgaard"
	Stats solver.Stats
}

// Outcome is one solved Request.
type Outcome struct {
	// Result is the CI-shaped solution behind the call graph, mod/ref
	// and the checkers: the CI result of the ci/cs ladder, or the
	// constraint backend's own.
	Result *core.Result

	// Sets is the answer: stripped CS pairs, or Result.Sets.
	Sets map[*vdg.Output]*core.PairSet

	// Label names the analysis that answered; a degraded answer carries
	// "(degraded: <Tier>)".
	Label string

	// Tier is empty for the exact answer. Otherwise it names the rung
	// that answered: a core.Tier of the ci/cs ladder, or "partial" for
	// a stopped constraint backend. Stopped is the limit behind it.
	Tier    string
	Stopped *limits.Violation

	// Sound is false when the sets are a partial fixpoint, which
	// under-approximates and must not be used as a may-alias answer.
	Sound bool

	// Notes explains a degraded answer, one line per transition.
	Notes []string

	// Runs lists the engine runs behind the answer, the one that
	// produced Sets last.
	Runs []Run
}

// Degraded reports whether the answer is anything but the exact one.
func (o *Outcome) Degraded() bool { return o.Tier != "" }

// Final is the engine run that produced Sets.
func (o *Outcome) Final() Run { return o.Runs[len(o.Runs)-1] }

var labels = map[backend.Kind]string{
	backend.CI:          "context-insensitive",
	backend.CS:          "context-sensitive",
	backend.Andersen:    "andersen (inclusion-based)",
	backend.Steensgaard: "steensgaard (unification-based)",
}

// Solve runs req on g under budget. ci and cs go through the
// degradation ladder (widen is its assumption-set bound, 0 for the
// default); andersen and steensgaard solve once and come back partial
// when the budget stops them. Each solve attempt records a child span
// of span (nil traces nothing).
func Solve(g *vdg.Graph, req Request, budget limits.Budget, widen int, span *obs.Span) *Outcome {
	out := &Outcome{Label: labels[req.Kind]}
	switch req.Kind {
	case backend.CI, backend.CS:
		gr := core.AnalyzeGoverned(g, core.GovernedOptions{
			Budget:           budget,
			Sensitive:        req.Kind == backend.CS,
			WidenAssumptions: widen,
			Strategy:         req.Strategy,
			Span:             span,
		})
		out.Result, out.Sets, out.Stopped, out.Notes = gr.CI, gr.Sets, gr.Stopped, gr.Notes
		out.Sound = gr.Tier.Sound()
		out.Runs = []Run{{"ci", gr.CI.Engine}}
		if gr.CS != nil {
			out.Runs = append(out.Runs, Run{"cs", gr.CS.Engine})
		}
		if gr.Degraded() {
			out.Tier = gr.Tier.String()
		}
	default:
		sp := span.Child("solve-" + req.Kind.String())
		var res *core.Result
		if req.Kind == backend.Andersen {
			res = andersen.AnalyzeEngine(g, budget, req.Strategy)
		} else {
			res = steensgaard.AnalyzeBudgeted(g, budget)
		}
		core.AttachEngine(sp, res.Engine)
		out.Result, out.Sets, out.Stopped = res, res.Sets, res.Stopped
		out.Sound = res.Stopped == nil
		out.Runs = []Run{{req.Kind.String(), res.Engine}}
		if res.Stopped != nil {
			// No ladder below a constraint backend: a stop leaves only
			// the partial solution.
			out.Tier = "partial"
			out.Notes = []string{fmt.Sprintf("%s solve stopped: %v", req.Kind, res.Stopped)}
		}
	}
	if out.Degraded() {
		out.Label += " (degraded: " + out.Tier + ")"
	}
	return out
}
