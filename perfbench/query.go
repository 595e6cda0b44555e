package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"aliaslab"
	"aliaslab/internal/core"
	"aliaslab/internal/corpusgen"
	"aliaslab/internal/driver"
	"aliaslab/internal/obs"
	"aliaslab/internal/query"
	"aliaslab/internal/vdg"
)

// querySession is a library user who opens each unit once and then asks
// it questions, a closed loop with one worker. The query stream repeats
// some questions, which the engine's memo answers.
type querySession struct {
	units   int // units opened per round
	perUnit int // queries asked of each unit
	repeat  int // percent of a unit's queries that repeat an earlier one
}

func newQuerySession() *querySession {
	return &querySession{units: 50, perUnit: 32, repeat: 15}
}

// roundSeconds counts a query at the ~3,800 queries/s measured on a
// 2-core x86-64 box.
func (w *querySession) roundSeconds() float64 { return float64(w.units*w.perUnit) / 3800 }

// ask is one scheduled query with its expected answer.
type ask struct {
	unit int
	q    query.Query
	want query.Answer
}

func (w *querySession) round(seed int64, r int, tr *obs.Tracer) (*roundResult, error) {
	res := &roundResult{}

	t0 := time.Now()
	setup := tr.StartSpan("setup")
	ls := enter(setup, "corpusgen")
	units := make([]corpusgen.Program, w.units)
	for i := range units {
		idx := r*w.units + i
		units[i] = corpusgen.Generate(seed, idx, corpusgen.SweepKnobs(seed, idx))
	}
	ls.exit()
	setup.End()
	res.Setup = time.Since(t0)

	// The query stream and its expected answers come from the exhaustive
	// CI sets of a separately built graph, outside every timed phase.
	perUnit := make([][]ask, len(units))
	if err := forEach(len(units), func(i int) error {
		var err error
		rng := rand.New(rand.NewSource((seed*1_000_003+int64(r))*1_000_003 + int64(i)))
		perUnit[i], err = w.expected(rng, i, units[i])
		return err
	}); err != nil {
		return nil, err
	}
	var asks []ask
	for _, a := range perUnit {
		asks = append(asks, a...)
	}

	t0 = time.Now()
	progs := make([]*aliaslab.Program, len(units))
	for i, u := range units {
		sp := tr.StartSpan("setup", obs.Str("unit", u.Name))
		p, err := aliaslab.ParseProgram(u.Name+".c", u.Source, aliaslab.Options{})
		if err != nil {
			return nil, err
		}
		progs[i] = p
		if sp != nil {
			// The facade hides its front end, so the traced run
			// replays it layer by layer for the front-end metrics.
			if _, err := frontEnd(sp, u.Name+".c", u.Source, vdg.Options{}); err != nil {
				return nil, err
			}
		}
		sp.End()
	}
	res.Setup += time.Since(t0)

	answers := make([]query.Answer, len(asks))
	errs := make([]error, len(asks))
	cpu0 := cpuTime()
	for i, a := range asks {
		op := tr.StartSpan("op", obs.Int("op", i))
		t := time.Now()
		ls := enter(op, "query")
		p := progs[a.unit]
		x := a.q.Exprs
		if a.q.Kind == query.KindPointsTo {
			answers[i], errs[i] = p.PointsTo(x[0].String())
		} else {
			answers[i], errs[i] = p.MayAlias(x[0].String(), x[1].String())
		}
		if ls.on() {
			s := answers[i].Slice
			if s.MemoHit {
				ls.exit(obs.Int("memo_hits", 1))
			} else {
				ls.exit(obs.Int("steps", s.Steps), obs.Int("slice_outputs", s.Outputs),
					obs.Int("total_outputs", s.TotalOutputs))
			}
		}
		d := time.Since(t)
		op.End()
		res.Timed += d
		res.Lat = append(res.Lat, d)
	}
	res.CPU = cpuTime() - cpu0

	for i, a := range asks {
		res.Attempted++
		got := answers[i]
		if errs[i] != nil || got.Degraded() {
			res.Failed++
			continue
		}
		if !sameAnswer(got, a.want) {
			res.Failed++
			res.Wrong++
		}
	}
	return res, nil
}

// expected draws a unit's queries over its query.VarExprs names and
// evaluates each against the exhaustive CI sets.
func (w *querySession) expected(rng *rand.Rand, i int, u corpusgen.Program) ([]ask, error) {
	unit, err := driver.LoadString(u.Name+".c", u.Source, vdg.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", u.Name, err)
	}
	g := unit.Graph
	vars := query.VarExprs(g, 0)
	if len(vars) == 0 {
		return nil, fmt.Errorf("%s: no variables to query", u.Name)
	}
	ci := core.AnalyzeInsensitive(g)
	eng := query.New(g, query.Options{})
	out := make([]ask, 0, w.perUnit)
	for k := 0; k < w.perUnit; k++ {
		if k > 0 && rng.Intn(100) < w.repeat {
			out = append(out, out[rng.Intn(k)])
			continue
		}
		q := query.Query{Kind: query.KindPointsTo, Exprs: []query.Expr{vars[rng.Intn(len(vars))]}}
		if rng.Intn(2) == 0 {
			q = query.Query{Kind: query.KindMayAlias, Exprs: []query.Expr{vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))]}}
		}
		anchors := make([][]*vdg.Output, len(q.Exprs))
		live := true
		for j, x := range q.Exprs {
			if anchors[j], err = eng.Resolve(x); err != nil {
				return nil, err
			}
			live = live && len(anchors[j]) > 0
		}
		want := query.Answer{Query: q.String(), Kind: q.Kind.String(), Verdict: "unknown"}
		if live {
			want = query.Evaluate(q, anchors, ci.Pairs)
		}
		out = append(out, ask{unit: i, q: q, want: want})
	}
	return out, nil
}

// sameAnswer compares everything but the slice statistics, which say how
// the answer was computed, not what it is.
func sameAnswer(a, b query.Answer) bool {
	return a.Query == b.Query && a.Kind == b.Kind && a.Verdict == b.Verdict &&
		a.Witness == b.Witness && slices.Equal(a.PointsTo, b.PointsTo)
}
