package core

import (
	"aliaslab/internal/paths"
	"aliaslab/internal/vdg"
)

// ciHost is the slice of analysis state the context-insensitive
// transfer functions need. Two hosts implement it: the whole-program
// solver (insensitive), where every emission lands in the one global
// set map, and the demand solver (AnalyzeDemand), which drops emissions
// that leave its slice. The transfer semantics below are shared
// verbatim — that is what makes "demand == exhaustive" on the slice a
// structural property rather than a re-implementation to keep in sync.
//
// The methods are deliberately minimal:
//
//   - pairsAt reads the current set on an output.
//   - emit adds a pair to an output's set (a meet), queueing consumers
//     on growth.
//   - linkEdge records a discovered call edge and repropagates it
//     (ciApplyCallEdge).
//
// The generic instantiation (rather than an interface value) lets the
// compiler devirtualize the hot path per host.
type ciHost interface {
	universe() *paths.Universe
	pairsAt(src *vdg.Output) []Pair
	emit(out *vdg.Output, pair Pair)
	calleesOf(n *vdg.Node) []*vdg.FuncGraph
	callersOf(fg *vdg.FuncGraph) []*vdg.Node
	linkEdge(n *vdg.Node, callee *vdg.FuncGraph)
}

// ciFlowIn implements the per-node transfer functions of [Ruf95,
// Figure 1]: one (input, pair) arrival against one node.
func ciFlowIn[H ciHost](h H, in *vdg.Input, pair Pair) {
	n := in.Node
	switch n.Kind {
	case vdg.KLookup:
		ciLookupFlow(h, n, in, pair)
	case vdg.KUpdate:
		ciUpdateFlow(h, n, in, pair)
	case vdg.KCall:
		ciCallFlow(h, n, in, pair)
	case vdg.KReturn:
		ciReturnFlow(h, n, in, pair)
	case vdg.KGamma:
		h.emit(n.Outputs[0], pair)
	case vdg.KPrimop:
		if n.Transparent {
			if n.Op == vdg.OpChecked && IsMarkerRef(pair.Ref) {
				// A null guard proved the value non-null on this branch:
				// the marker referents do not pass the check.
				return
			}
			h.emit(n.Outputs[0], pair)
		}
	case vdg.KAlloc:
		// realloc: the old block's pairs flow through.
		h.emit(n.Outputs[0], pair)
	case vdg.KFree:
		// Deallocation is identity on the store (the kill is interpreted
		// by the checkers, not the points-to domain — removing pairs
		// would be unsound under may-aliasing).
		if in.Index == 1 {
			h.emit(n.Outputs[0], pair)
		}
	case vdg.KFieldAddr:
		if pair.Path.IsEmptyOffset() {
			ref := ciExtendField(h, n, pair.Ref)
			h.emit(n.Outputs[0], Pair{Path: pair.Path, Ref: ref})
		}
	case vdg.KIndexAddr:
		if pair.Path.IsEmptyOffset() {
			h.emit(n.Outputs[0], Pair{Path: pair.Path, Ref: h.universe().Index(pair.Ref)})
		}
	case vdg.KExtract:
		want := paths.Op{Field: n.Field, Union: n.Transparent}
		if op, ok := pair.Path.FirstOp(); ok && op.Overlaps(want) {
			tail := h.universe().TailAfterFirst(pair.Path)
			h.emit(n.Outputs[0], Pair{Path: tail, Ref: pair.Ref})
		}
	}
}

// ciExtendField applies a member operator; union members use the
// overlapping operator (the builder marks union accesses on the node).
func ciExtendField[H ciHost](h H, n *vdg.Node, p *paths.Path) *paths.Path {
	if n.Transparent { // union member
		return h.universe().UnionField(p, n.Field)
	}
	return h.universe().Field(p, n.Field)
}

// ciLookupFlow: a new location dereferences every store pair it may
// observe; a new store pair is observed by every location. A marker
// location referent (<null>, <uninit>) reads nothing: the marker is one
// location shared by every pointer type, so whatever a store through a
// maybe-null pointer left there would come back under the wrong type,
// and the paths it grows would never stop growing.
func ciLookupFlow[H ciHost](h H, n *vdg.Node, in *vdg.Input, pair Pair) {
	u := h.universe()
	out := n.Outputs[0]
	switch in.Index {
	case 0: // location input
		if !pair.Path.IsEmptyOffset() || IsMarkerRef(pair.Ref) {
			return
		}
		rl := pair.Ref
		for _, ps := range h.pairsAt(n.StoreIn()) {
			if paths.Dom(rl, ps.Path) {
				h.emit(out, Pair{Path: u.Subtract(ps.Path, rl), Ref: ps.Ref})
			}
		}
	case 1: // store input
		for _, pl := range h.pairsAt(n.Loc()) {
			if !pl.Path.IsEmptyOffset() || IsMarkerRef(pl.Ref) {
				continue
			}
			if paths.Dom(pl.Ref, pair.Path) {
				h.emit(out, Pair{Path: u.Subtract(pair.Path, pl.Ref), Ref: pair.Ref})
			}
		}
	}
}

// ciUpdateFlow implements strong updates: a store pair passes through
// only via location referents that do not definitely overwrite it, and
// store pairs are blocked entirely until the first location arrives
// (the dual-worklist behaviour of [CWZ90]). A marker location referent
// writes no value pairs (see ciLookupFlow); the store still passes
// through it, because a marker is a summary location.
func ciUpdateFlow[H ciHost](h H, n *vdg.Node, in *vdg.Input, pair Pair) {
	u := h.universe()
	out := n.Outputs[0]
	switch in.Index {
	case 0: // location input
		if !pair.Path.IsEmptyOffset() {
			return
		}
		rl := pair.Ref
		if !IsMarkerRef(rl) {
			for _, pv := range h.pairsAt(n.Value()) {
				h.emit(out, Pair{Path: u.Append(rl, pv.Path), Ref: pv.Ref})
			}
		}
		for _, ps := range h.pairsAt(n.StoreIn()) {
			if !paths.StrongDom(rl, ps.Path) {
				h.emit(out, ps)
			}
		}
	case 1: // store input
		for _, pl := range h.pairsAt(n.Loc()) {
			if !pl.Path.IsEmptyOffset() {
				continue
			}
			if !paths.StrongDom(pl.Ref, pair.Path) {
				h.emit(out, pair)
			}
		}
	case 2: // value input
		for _, pl := range h.pairsAt(n.Loc()) {
			if !pl.Path.IsEmptyOffset() || IsMarkerRef(pl.Ref) {
				continue
			}
			h.emit(out, Pair{Path: u.Append(pl.Ref, pair.Path), Ref: pair.Ref})
		}
	}
}

// ciCallFlow: actuals propagate to the formals of every callee; a new
// function value registers a call edge (the host decides when the
// edge's repropagation runs).
func ciCallFlow[H ciHost](h H, n *vdg.Node, in *vdg.Input, pair Pair) {
	switch in.Index {
	case 0: // function input
		if !pair.Path.IsEmptyOffset() {
			return
		}
		base := pair.Ref.Base()
		if base == nil || pair.Ref.Depth() != 0 {
			return
		}
		callee := n.Fn.Graph.FuncByBase[base]
		if callee == nil {
			return
		}
		h.linkEdge(n, callee)
	case 1: // store input
		for _, callee := range h.calleesOf(n) {
			h.emit(callee.StoreParam, pair)
		}
	default: // actuals
		argIdx := in.Index - 2
		for _, callee := range h.calleesOf(n) {
			if argIdx < len(callee.ParamOuts) {
				h.emit(callee.ParamOuts[argIdx], pair)
			}
		}
	}
}

// ciApplyCallEdge repropagates both directions of a freshly registered
// call → callee edge: existing actuals and store flow forward to the
// callee's formals, and the callee's existing returns flow back to this
// call site. The host must have recorded the edge in its callee/caller
// maps before calling this, so the emissions do not re-trigger it.
func ciApplyCallEdge[H ciHost](h H, n *vdg.Node, callee *vdg.FuncGraph) {
	for _, pair := range h.pairsAt(n.StoreIn()) {
		h.emit(callee.StoreParam, pair)
	}
	for i, argIn := range vdg.CallArgs(n) {
		if i >= len(callee.ParamOuts) {
			break
		}
		for _, pair := range h.pairsAt(argIn.Src) {
			h.emit(callee.ParamOuts[i], pair)
		}
	}

	if rs := callee.ReturnStore(); rs != nil {
		for _, pair := range h.pairsAt(rs) {
			h.emit(vdg.CallStoreOut(n), pair)
		}
	}
	if rv := callee.ReturnValue(); rv != nil {
		if res := vdg.CallResultOut(n); res != nil {
			for _, pair := range h.pairsAt(rv) {
				h.emit(res, pair)
			}
		}
	}
}

// ciReturnFlow: values and stores reaching a function's return sink
// flow to the corresponding outputs at every call site.
func ciReturnFlow[H ciHost](h H, n *vdg.Node, in *vdg.Input, pair Pair) {
	fg := n.Fn
	switch in.Index {
	case 0: // store
		for _, call := range h.callersOf(fg) {
			h.emit(vdg.CallStoreOut(call), pair)
		}
	case 1: // value
		for _, call := range h.callersOf(fg) {
			if res := vdg.CallResultOut(call); res != nil {
				h.emit(res, pair)
			}
		}
	}
}
