package core

import (
	"aliaslab/internal/limits"
	"aliaslab/internal/paths"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// DemandOptions configures a demand-driven (sliced) CI solve.
type DemandOptions struct {
	// Slice is the set of outputs the caller wants solved. It must be
	// backward-closed under the CI dependency relation (every output
	// whose pairs can influence a slice member is itself a member —
	// internal/query computes such closures); on a closed slice the
	// demand fixpoint equals the exhaustive fixpoint restricted to the
	// slice, which oracle.CheckDemand asserts. A nil slice means "all
	// outputs" and degenerates to the exhaustive solve.
	Slice map[*vdg.Output]bool

	// Budget optionally bounds the solve; Result.Stopped reports a trip.
	Budget limits.Budget

	// Strategy selects the worklist discipline (zero value = FIFO).
	Strategy solver.Strategy
}

// AnalyzeDemand runs the context-insensitive points-to analysis
// restricted to a slice of the VDG: seeding initializes only base
// locations inside the slice, and every emission targeting an output
// outside the slice is dropped. The transfer layer is the shared ciHost
// machinery (transfer.go), so per-output results on the slice are
// identical to AnalyzeInsensitive by construction — the demand solver
// never re-implements a transfer function, it only filters where work
// may land.
func AnalyzeDemand(g *vdg.Graph, opts DemandOptions) *Result {
	a := &demand{
		g:     g,
		slice: opts.Slice,
		res: &Result{
			Graph:   g,
			Sets:    make(map[*vdg.Output]*PairSet),
			Callees: make(map[*vdg.Node][]*vdg.FuncGraph),
			Callers: make(map[*vdg.FuncGraph][]*vdg.Node),
		},
		eng: solver.New(solver.Config[workItem]{Strategy: opts.Strategy, Budget: opts.Budget}),
	}
	a.st = a.eng.Stats()
	empty := g.Universe.Empty()

	// Seed only the base-location constants whose output is in the
	// slice; procedures with no sliced outputs contribute no seeds and
	// receive no arrivals, so the engine never visits them.
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind == vdg.KAddr || n.Kind == vdg.KAlloc {
				if a.inSlice(n.Outputs[0]) {
					a.flowOut(n.Outputs[0], Pair{Path: empty, Ref: n.Path})
				}
			}
		}
	}

	out := a.eng.Run(func(it workItem) { ciFlowIn(a, it.in, it.pair) })
	a.res.Stopped = out.Stopped
	a.res.Engine = *a.st
	a.res.Metrics = metricsFrom(a.st)
	return a.res
}

// demand is the sliced whole-program host: identical to insensitive
// except that emissions outside the slice are dropped at the meet.
type demand struct {
	g     *vdg.Graph
	slice map[*vdg.Output]bool
	res   *Result
	eng   *solver.Engine[workItem]
	st    *solver.Stats
}

func (a *demand) inSlice(out *vdg.Output) bool {
	return a.slice == nil || a.slice[out]
}

func (a *demand) universe() *paths.Universe { return a.g.Universe }

func (a *demand) emit(out *vdg.Output, pair Pair) { a.flowOut(out, pair) }

func (a *demand) calleesOf(n *vdg.Node) []*vdg.FuncGraph { return a.res.Callees[n] }

func (a *demand) callersOf(fg *vdg.FuncGraph) []*vdg.Node { return a.res.Callers[fg] }

func (a *demand) linkEdge(n *vdg.Node, callee *vdg.FuncGraph) {
	for _, c := range a.res.Callees[n] {
		if c == callee {
			return
		}
	}
	a.res.Callees[n] = append(a.res.Callees[n], callee)
	a.res.Callers[callee] = append(a.res.Callers[callee], n)
	ciApplyCallEdge(a, n, callee)
}

// flowOut is the slice-filtered meet: pairs land (and queue consumers)
// only on slice outputs. Dropped emissions are not counted as meets —
// Metrics reports work the demand solve actually performed, which is
// what the experiments table compares against the exhaustive solve.
func (a *demand) flowOut(out *vdg.Output, pair Pair) {
	if !a.inSlice(out) {
		return
	}
	a.st.Meets++
	s, ok := a.res.Sets[out]
	if !ok {
		s = &PairSet{}
		a.res.Sets[out] = s
	}
	if !s.Add(pair) {
		return
	}
	a.st.PairInserts++
	for _, in := range out.Consumers {
		a.eng.Push(workItem{in: in, pair: pair})
	}
}

func (a *demand) pairsAt(src *vdg.Output) []Pair {
	if s, ok := a.res.Sets[src]; ok {
		return s.List()
	}
	return nil
}
