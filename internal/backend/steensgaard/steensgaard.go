// Package steensgaard implements the unification (equality-based)
// points-to backend: Steensgaard's near-linear analysis over the same
// constraint extraction the Andersen backend solves.
//
// Where Andersen turns each copy constraint into a directed inclusion
// edge, unification merges the two cells outright — a union-find
// operation — so the entire static copy structure collapses in one
// near-linear pass before any pair propagates. The remaining complex
// constraints (transforms, loads, stores, dynamic calls) then run on
// the drastically smaller merged system; dynamically discovered call
// edges unify actual with formal and return with result the same way.
//
// Treating a subset constraint as an equality adds the reverse
// inclusion to the system, and unification cannot honor the checked
// (guard-refinement) filter, which drops it (the diagnostics marker
// constants are the one exception; see unify). Both changes only enlarge
// the constraint system, so by Tarski the least solution is a pointwise
// superset of Andersen's — the cheapest and least precise point of the
// repository's four-backend frontier, which the oracle asserts as
// Steensgaard ⊇ Andersen on every output.
package steensgaard

import (
	"aliaslab/internal/backend"
	"aliaslab/internal/core"
	"aliaslab/internal/limits"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// Analyze solves the unified constraint system of g to its least
// fixpoint with no resource limits.
func Analyze(g *vdg.Graph) *core.Result {
	return AnalyzeBudgeted(g, limits.Budget{})
}

// AnalyzeBudgeted is Analyze under a resource budget. There is no
// strategy parameter: unification leaves no copy edges to schedule, the
// residual propagation order is immaterial to both the result and the
// (near-linear) cost, so the engine is pinned to FIFO and the CLIs
// reject -worklist for this backend rather than silently ignoring it.
func AnalyzeBudgeted(g *vdg.Graph, budget limits.Budget) *core.Result {
	cons := backend.Extract(g)
	s := &analysis{sys: backend.NewSystem(cons, budget, solver.FIFO), marker: make(map[backend.CellID]core.Pair)}
	s.sys.OnCallee = s.onCallee
	for _, sd := range cons.Seeds {
		if core.IsMarkerRef(sd.Pair.Ref) {
			s.marker[sd.Cell] = sd.Pair
		}
	}

	// The single unification pass: every static copy, checked or not,
	// merges its endpoints (marker constants aside; see unify). Sets
	// hold at most marker pairs here, so each union is nearly a pure
	// pointer operation.
	for _, cp := range cons.Copies {
		s.unify(cp.Src, cp.Dst, cp.Checked)
	}

	s.sys.Seed()
	out := s.sys.Eng.Run(func(ar backend.Arrival) {
		s.sys.Complex(s.sys.Find(ar.Cell), ar.Pair)
	})
	return s.sys.Result(out)
}

type analysis struct {
	sys *backend.System

	// marker maps the cell of each diagnostics marker constant
	// (<null>, <uninit>) to its seed pair.
	marker map[backend.CellID]core.Pair
}

// unify merges the classes of a and b. A diagnostics marker constant is
// one cell shared by every use in its function; merging it would unify
// every pointer ever assigned the marker into one class, whose mixed
// types then grow field paths without bound. The other side gets the
// marker's pair instead — nothing through a checked copy, which drops
// markers — exactly what Andersen derives for the same constraint.
func (s *analysis) unify(a, b backend.CellID, checked bool) {
	if p, ok := s.marker[a]; ok {
		if !checked {
			s.sys.AddPair(b, p)
		}
		return
	}
	if p, ok := s.marker[b]; ok {
		if !checked {
			s.sys.AddPair(a, p)
		}
		return
	}
	if _, merged := s.sys.Merge(a, b); merged {
		s.sys.St.Unions++
	}
}

// onCallee unifies interprocedural flow for a newly discovered call
// edge: actual ≡ formal and return value ≡ call result. The store is
// already one shared cell.
func (s *analysis) onCallee(n *vdg.Node, callee *vdg.FuncGraph) {
	cellOf := s.sys.Cons.CellOf
	for i, argIn := range vdg.CallArgs(n) {
		if i >= len(callee.ParamOuts) {
			break
		}
		s.unify(cellOf[argIn.Src], cellOf[callee.ParamOuts[i]], false)
	}
	if rv := callee.ReturnValue(); rv != nil {
		if res := vdg.CallResultOut(n); res != nil {
			s.unify(cellOf[rv], cellOf[res], false)
		}
	}
}
