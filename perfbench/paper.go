package main

import (
	"fmt"
	"math/rand"
	"time"

	"aliaslab/internal/backend/andersen"
	"aliaslab/internal/backend/steensgaard"
	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/experiments"
	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
	"aliaslab/internal/oracle"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// frontier is the pooled precision of one pass over the corpus, as
// EXPERIMENTS.md publishes it.
type frontier struct {
	CS, CI, Andersen, Steensgaard int // pair census totals
	CIAgree, IndirectOps          int // indirect ops where CI's referents equal CS's
}

// published is the four-way frontier of EXPERIMENTS.md.
var published = frontier{CS: 13299, CI: 14391, Andersen: 15926, Steensgaard: 16656, CIAgree: 387, IndirectOps: 387}

// paperEval is the paper's experiment as a closed loop with one worker.
// The seed only orders the units within each pass: the corpus is fixed,
// so every pass must reproduce the published frontier.
type paperEval struct {
	expect frontier
	passes int // timed passes per round
}

func newPaperEval() *paperEval { return &paperEval{expect: published, passes: 25} }

// roundSeconds counts a pass over the corpus at the ~85 ms measured on
// a 2-core x86-64 box.
func (w *paperEval) roundSeconds() float64 { return float64(w.passes) * 0.085 }

// unitSolution is everything one op computed for one corpus unit.
type unitSolution struct {
	name                  string
	g                     *vdg.Graph
	cs, ci, and, st       map[*vdg.Output]*core.PairSet
	csN, ciN, andN, stN   stats.PairCensus
	indirectOps, ciAgrees int
}

// analyzeUnit is one paper-eval op: the whole pipeline of the paper's
// experiment on one unit, one span per layer call when op is traced.
func analyzeUnit(op *obs.Span, name, src string) (*unitSolution, error) {
	g, err := frontEnd(op, name, src, vdg.Options{})
	if err != nil {
		return nil, err
	}
	ci := solveCI(op, g, limits.Budget{})

	ls := enter(op, "core.cs")
	cs := core.AnalyzeSensitive(g, core.SensitiveOptions{CI: ci, MaxSteps: experiments.MaxCSSteps})
	var csSets map[*vdg.Output]*core.PairSet
	if !cs.Aborted {
		csSets = cs.Strip()
	}
	ls.exit(append(engineCounts(cs.Engine), obs.Int("subsume_drops", cs.Engine.SubsumeDrops))...)
	if cs.Aborted {
		return nil, fmt.Errorf("%s: context-sensitive analysis exceeded %d steps", name, experiments.MaxCSSteps)
	}

	ls = enter(op, "andersen")
	and := andersen.Analyze(g)
	ls.exit(append(engineCounts(and.Engine), obs.Int("sccs", and.Engine.SCCsCollapsed))...)

	ls = enter(op, "steensgaard")
	st := steensgaard.Analyze(g)
	ls.exit(obs.Int("unions", st.Engine.Unions))

	// The Figure 2 and 7 tables are computed as the experiment computes
	// them; the check reads only the census and indirect agreement.
	ls = enter(op, "stats")
	u := &unitSolution{name: name, g: g, cs: csSets, ci: ci.Sets, and: and.Sets, st: st.Sets}
	stats.Sizes(name, 0, g)
	u.csN = stats.Census(g, csSets)
	u.ciN = stats.Census(g, ci.Sets)
	u.andN = stats.Census(g, and.Sets)
	u.stN = stats.Census(g, st.Sets)
	ind := stats.CountIndirect(g, ci.Sets)
	u.indirectOps = ind.Reads.Total + ind.Writes.Total
	u.ciAgrees = u.indirectOps - len(stats.IndirectDiff(g, ci.Sets, csSets))
	stats.BreakdownAll(g, ci.Sets)
	stats.BreakdownSpurious(stats.SpuriousPairs(g, ci.Sets, csSets))
	ls.exit()
	return u, nil
}

// check verifies CS ⊆ CI ⊆ Andersen ⊆ Steensgaard on every output.
func (u *unitSolution) check() []oracle.Violation {
	vs := oracle.SubsetPerOutput(u.name, "cs⊆ci", u.g, u.cs, u.ci)
	vs = append(vs, oracle.SubsetPerOutput(u.name, "ci⊆andersen", u.g, u.ci, u.and)...)
	return append(vs, oracle.SubsetPerOutput(u.name, "andersen⊆steensgaard", u.g, u.and, u.st)...)
}

func (w *paperEval) round(seed int64, r int, tr *obs.Tracer) (*roundResult, error) {
	res := &roundResult{}
	t0 := time.Now()
	progs := corpus.All()
	// One untimed pass lets lazy runtime set-up finish before timing.
	for _, p := range progs {
		if _, err := analyzeUnit(nil, p.Name+".c", p.Source); err != nil {
			return nil, err
		}
	}
	res.Setup = time.Since(t0)

	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	for pass := 0; pass < w.passes; pass++ {
		order := rng.Perm(len(progs))
		var got frontier
		failedBefore := res.Failed
		for i, k := range order {
			p := progs[k]
			op := tr.StartSpan("op", obs.Int("op", pass*len(progs)+i), obs.Str("unit", p.Name))
			t, c := time.Now(), cpuTime()
			u, err := analyzeUnit(op, p.Name+".c", p.Source)
			d, cpu := time.Since(t), cpuTime()-c
			op.End()
			res.Timed += d
			res.CPU += cpu
			// The one worker never waits, so an op is timed by the
			// process CPU time it took: its wall time would also count
			// the time the process waited for a core.
			res.Lat = append(res.Lat, cpu)
			res.Attempted++
			if err != nil || len(u.check()) > 0 {
				res.Failed++
				res.Wrong++
				continue
			}
			got.CS += u.csN.Total
			got.CI += u.ciN.Total
			got.Andersen += u.andN.Total
			got.Steensgaard += u.stN.Total
			got.CIAgree += u.ciAgrees
			got.IndirectOps += u.indirectOps
		}
		if got != w.expect {
			// A pooled figure names no culprit, so every unit of the
			// pass that passed its own checks fails with it.
			passed := len(progs) - (res.Failed - failedBefore)
			res.Failed += passed
			res.Wrong += passed
		}
	}
	return res, nil
}
