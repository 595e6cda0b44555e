package corpusgen

import (
	"fmt"
	"testing"

	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/core"
	"aliaslab/internal/limits"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// TestDiagnosticsSolveConverges pins the marker rule: a lookup or
// update through a <null>/<uninit> location referent reads nothing and
// writes no value pairs. Without it, stores through a maybe-null
// pointer fill the shared marker location with fields of every struct,
// loads read them back under the wrong type, and the paths grow without
// limit — on the first five Sweep units the diagnostics solve never
// converged. On the last two, Steensgaard unified every pointer ever
// assigned the shared <null> constant into one class and diverged the
// same way; a copy from a marker constant is now a seed. Each unit must
// converge within the vet budget on CI, Andersen and Steensgaard.
func TestDiagnosticsSolveConverges(t *testing.T) {
	units := []struct {
		seed  int64
		index int
	}{{2, 136}, {2, 1055}, {2, 1558}, {3, 922}, {5, 217}, {1, 23}, {1, 53}}
	solvers := []struct {
		name  string
		solve func(*vdg.Graph, limits.Budget) *core.Result
	}{
		{"ci", core.AnalyzeInsensitiveBudgeted},
		{"andersen", func(g *vdg.Graph, b limits.Budget) *core.Result { return andersen.AnalyzeEngine(g, b, solver.FIFO) }},
		{"steensgaard", steensgaard.AnalyzeBudgeted},
	}
	for _, tc := range units {
		p := Generate(tc.seed, tc.index, SweepKnobs(tc.seed, tc.index))
		u, err := p.Load(vdg.Options{Diagnostics: true})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, s := range solvers {
			t.Run(fmt.Sprintf("%d_%d/%s", tc.seed, tc.index, s.name), func(t *testing.T) {
				res := s.solve(u.Graph, limits.Budget{MaxSteps: VetSteps})
				if res.Stopped != nil {
					t.Fatalf("solve stopped after %d steps: %v", res.Engine.Steps, res.Stopped)
				}
			})
		}
	}
}
