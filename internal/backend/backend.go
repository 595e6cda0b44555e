// Package backend hosts the flow-insensitive points-to backends of the
// study and the constraint extraction they share.
//
// The repository's primary analyses (internal/core) are the paper's
// flow-sensitive pair: context-insensitive (CI) and context-sensitive
// (CS). This package widens that two-point comparison into a four-way
// precision/cost frontier by adding the two classic flow-insensitive
// analyses as first-class backends over the same VDG:
//
//   - backend/andersen: an inclusion-constraint solver (subset edges,
//     difference propagation, online cycle detection with SCC
//     collapsing) — Andersen's analysis recast over the VDG.
//   - backend/steensgaard: a unification solver (union-find with
//     type merging on the same constraints) — Steensgaard's near-linear
//     analysis.
//
// Both consume the constraint system extracted here (constraints.go)
// and materialize the same *core.Result shape as the CI solver — a
// points-to PairSet per VDG output plus the discovered call graph — so
// the oracle, the checkers, and the report renderers work on any
// backend's solution unchanged. Because the Steensgaard constraint
// system is the Andersen system plus extra (bidirectional) constraints,
// and the Andersen system is the CI transfer functions minus kills and
// flow, the least solutions nest pointwise:
//
//	Steensgaard ⊇ Andersen ⊇ CI ⊇ CS   (per output)
//
// which internal/oracle asserts across the corpus.
package backend

import "fmt"

// Kind names one points-to backend.
type Kind int

const (
	// CI is the paper's flow-sensitive context-insensitive analysis
	// (internal/core, the default backend).
	CI Kind = iota
	// CS is the paper's maximally context-sensitive analysis.
	CS
	// Andersen is the inclusion-constraint (subset-based) backend.
	Andersen
	// Steensgaard is the unification (equality-based) backend.
	Steensgaard
)

func (k Kind) String() string {
	switch k {
	case CI:
		return "ci"
	case CS:
		return "cs"
	case Andersen:
		return "andersen"
	case Steensgaard:
		return "steensgaard"
	}
	return fmt.Sprintf("backend.Kind(%d)", int(k))
}

// ParseKind resolves a -backend flag value; the empty string is the CI
// default.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "", "ci":
		return CI, nil
	case "cs":
		return CS, nil
	case "andersen":
		return Andersen, nil
	case "steensgaard":
		return Steensgaard, nil
	}
	return CI, &NameError{Name: name}
}

// NameError reports a backend name ParseKind does not know. It is
// typed so a surface can word an unknown name in its own terms.
type NameError struct{ Name string }

func (e *NameError) Error() string {
	return fmt.Sprintf("backend: unknown backend %q (want ci, cs, andersen, or steensgaard)", e.Name)
}

// Kinds lists every backend in precision order, most precise first.
func Kinds() []Kind { return []Kind{CS, CI, Andersen, Steensgaard} }

// KindError reports a backend requested where it cannot run. It is the
// typed shape of "this entry point does not support that backend".
type KindError struct {
	Kind Kind
	Why  string
}

func (e *KindError) Error() string {
	return fmt.Sprintf("backend %s: %s", e.Kind, e.Why)
}

// UnionFind is the path-halving, union-by-size disjoint-set forest
// shared by the Andersen SCC collapser and the Steensgaard unifier.
// Cells are dense integer IDs.
type UnionFind struct {
	parent []int32
	size   []int32
}

// NewUnionFind builds a forest of n singleton cells.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

// Find returns the representative of x, halving the path on the way.
func (uf *UnionFind) Find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the classes of a and b and returns (kept, absorbed)
// representatives; kept == absorbed when they were already one class.
// The larger class keeps its representative, so the merged side's
// per-cell state (sets, edges, attachments) is what the caller moves.
func (uf *UnionFind) Union(a, b int32) (kept, absorbed int32) {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return ra, ra
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	return ra, rb
}
