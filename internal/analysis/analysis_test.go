package analysis_test

import (
	"errors"
	"strings"
	"testing"

	"aliaslab/internal/analysis"
	"aliaslab/internal/backend"
	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/limits"
	"aliaslab/internal/oracle"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// TestParse pins the one validation order every surface shares and the
// error texts the CLI, facade and server tests match on.
func TestParse(t *testing.T) {
	for _, c := range []struct {
		backend, worklist string
		want              analysis.Request
		err               string // substring; "" means valid
	}{
		{"", "", analysis.Request{Kind: backend.CI, Strategy: solver.FIFO}, ""},
		{"ci", "lifo", analysis.Request{Kind: backend.CI, Strategy: solver.LIFO}, ""},
		{"cs", "fifo", analysis.Request{Kind: backend.CS, Strategy: solver.FIFO}, ""},
		{"andersen", "lifo", analysis.Request{Kind: backend.Andersen, Strategy: solver.LIFO}, ""},
		{"steensgaard", "", analysis.Request{Kind: backend.Steensgaard}, ""},
		{"anderson", "", analysis.Request{}, `backend: unknown backend "anderson" (want ci, cs, andersen, or steensgaard)`},
		{"anderson", "priority", analysis.Request{}, `unknown backend "anderson"`}, // backend checked first
		{"ci", "random", analysis.Request{}, `solver: unknown worklist strategy "random" (want fifo or lifo)`},
		{"", "priority", analysis.Request{}, `unknown worklist strategy "priority"`},
		{"steensgaard", "lifo", analysis.Request{}, "the steensgaard backend has no worklist to schedule; -worklist lifo does not apply"},
		{"steensgaard", "fifo", analysis.Request{}, "no worklist to schedule"},
		{"steensgaard", "priority", analysis.Request{}, "no worklist to schedule"}, // applicability before the name
	} {
		got, err := analysis.Parse(c.backend, c.worklist)
		if c.err == "" {
			if err != nil || got != c.want {
				t.Errorf("Parse(%q, %q) = %+v, %v; want %+v", c.backend, c.worklist, got, err, c.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("Parse(%q, %q) error %v; want %q", c.backend, c.worklist, err, c.err)
		}
	}

	// The two rejections a surface words in its own terms are typed.
	var ne *backend.NameError
	if _, err := analysis.Parse("weihl", ""); !errors.As(err, &ne) || ne.Name != "weihl" {
		t.Errorf("unknown backend: got %v, want *backend.NameError", err)
	}
	for _, k := range backend.Kinds() {
		_, err := analysis.Parse(k.String(), "lifo")
		var we *analysis.WorklistError
		if k == backend.Steensgaard {
			if !errors.As(err, &we) || we.Kind != k || we.Worklist != "lifo" {
				t.Errorf("steensgaard+lifo: got %v, want *WorklistError", err)
			}
		} else if err != nil {
			t.Errorf("%s with lifo: %v", k, err)
		}
	}
}

func loadPart(t *testing.T) *vdg.Graph {
	t.Helper()
	u, err := corpus.Load("part", vdg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return u.Graph
}

// TestSolveUnlimitedMatchesSolvers: with no budget each backend's
// answer is exactly its solver's, under the plain label.
func TestSolveUnlimitedMatchesSolvers(t *testing.T) {
	g := loadPart(t)
	ci := core.AnalyzeInsensitive(g)
	direct := map[backend.Kind]map[*vdg.Output]*core.PairSet{
		backend.CI:          ci.Sets,
		backend.CS:          core.AnalyzeSensitive(g, core.SensitiveOptions{CI: ci}).Strip(),
		backend.Andersen:    andersen.Analyze(g).Sets,
		backend.Steensgaard: steensgaard.Analyze(g).Sets,
	}
	runs := map[backend.Kind]string{
		backend.CI: "ci", backend.CS: "ci,cs", backend.Andersen: "andersen", backend.Steensgaard: "steensgaard",
	}
	for _, k := range backend.Kinds() {
		out := analysis.Solve(g, analysis.Request{Kind: k}, limits.Budget{}, 0, nil)
		for _, v := range oracle.EqualPerOutput(k.String(), "solve-equals-solver", g, out.Sets, direct[k]) {
			t.Error(v)
		}
		var names []string
		for _, r := range out.Runs {
			names = append(names, r.Name)
		}
		if out.Degraded() || !out.Sound || out.Stopped != nil || len(out.Notes) != 0 ||
			strings.Contains(out.Label, "degraded") || strings.Join(names, ",") != runs[k] || out.Result == nil {
			t.Errorf("%s: label %q tier %q sound %v notes %v runs %v", k, out.Label, out.Tier, out.Sound, out.Notes, names)
		}
	}
}

// TestSolveUnderBudget: each rung of the ladder, placed by budgets
// measured from the unlimited runs. A CI fixpoint cut short is partial
// and unsound; a CS budget between the CI and CS work is a sound
// degraded answer; a stopped constraint backend is partial and unsound.
func TestSolveUnderBudget(t *testing.T) {
	g := loadPart(t)
	steps := func(k backend.Kind) int {
		return analysis.Solve(g, analysis.Request{Kind: k}, limits.Budget{}, 0, nil).Final().Stats.Steps
	}
	ciSteps, csSteps := steps(backend.CI), steps(backend.CS)
	if ciSteps >= csSteps {
		t.Fatalf("part does not separate CI (%d steps) from CS (%d)", ciSteps, csSteps)
	}
	for _, c := range []struct {
		kind     backend.Kind
		maxSteps int
		tier     string
		sound    bool
	}{
		{backend.CI, ciSteps / 2, "partial-ci", false},
		{backend.CS, (ciSteps + csSteps) / 2, "", true}, // widened or ci-fallback
		{backend.Andersen, 1, "partial", false},
		{backend.Steensgaard, 1, "partial", false},
	} {
		out := analysis.Solve(g, analysis.Request{Kind: c.kind}, limits.Budget{MaxSteps: c.maxSteps}, 0, nil)
		if !out.Degraded() || out.Sound != c.sound || out.Stopped == nil || len(out.Notes) == 0 {
			t.Errorf("%s under %d steps: tier %q sound %v stopped %v notes %v",
				c.kind, c.maxSteps, out.Tier, out.Sound, out.Stopped, out.Notes)
			continue
		}
		if c.tier != "" && out.Tier != c.tier {
			t.Errorf("%s: tier %q, want %q", c.kind, out.Tier, c.tier)
		}
		if c.kind == backend.CS && out.Tier != core.TierWidened.String() && out.Tier != core.TierCIFallback.String() {
			t.Errorf("cs: tier %q, want a sound rung", out.Tier)
		}
		if !strings.HasSuffix(out.Label, "(degraded: "+out.Tier+")") {
			t.Errorf("%s: label %q does not name tier %q", c.kind, out.Label, out.Tier)
		}
	}
}
