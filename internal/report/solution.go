package report

import (
	"encoding/json"
	"io"
	"sort"

	"aliaslab/internal/core"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// Solution is the JSON document of one unit's points-to answer: the
// label, the pair census, the Figure 4 indirect-operation summary and
// the sorted store at main's return. The CLI's -print json and the
// server's /v1/analyze body are this one shape, so backends diff
// structurally and the two surfaces agree byte for byte.
type Solution struct {
	Unit   string `json:"unit"`
	Label  string `json:"label"`
	Census struct {
		Total     int `json:"total"`
		Pointer   int `json:"pointer"`
		Function  int `json:"function"`
		Aggregate int `json:"aggregate"`
		Store     int `json:"store"`
	} `json:"pairs"`
	Reads       opsJSON    `json:"reads"`
	Writes      opsJSON    `json:"writes"`
	StoreAtExit []pairJSON `json:"storeAtExit"`
	Degradation *Envelope  `json:"degradation,omitempty"`
}

// opsJSON summarizes one kind of indirect memory operation.
type opsJSON struct {
	Ops int     `json:"ops"`
	Avg float64 `json:"avgReferents"`
	Max int     `json:"maxReferents"`
}

// pairJSON is one points-to pair of the store at main's return.
type pairJSON struct {
	Path string `json:"path"`
	Ref  string `json:"referent"`
}

// NewSolution builds the document for sets on g under label; env is
// the degradation envelope of a coarser answer, nil for the exact one.
func NewSolution(unit string, g *vdg.Graph, sets map[*vdg.Output]*core.PairSet, label string, env *Envelope) *Solution {
	s := &Solution{Unit: unit, Label: label, Degradation: env}
	census := stats.Census(g, sets)
	s.Census.Total = census.Total
	s.Census.Pointer = census.Pointer
	s.Census.Function = census.Function
	s.Census.Aggregate = census.Aggregate
	s.Census.Store = census.Store
	ops := stats.CountIndirect(g, sets)
	s.Reads = opsJSON{Ops: ops.Reads.Total, Avg: ops.Reads.Avg(), Max: ops.Reads.Max}
	s.Writes = opsJSON{Ops: ops.Writes.Total, Avg: ops.Writes.Avg(), Max: ops.Writes.Max}
	if g.Entry != nil && g.Entry.ReturnStore() != nil {
		if set := sets[g.Entry.ReturnStore()]; set != nil {
			for _, p := range set.Sorted() {
				s.StoreAtExit = append(s.StoreAtExit, pairJSON{Path: p.Path.String(), Ref: p.Ref.String()})
			}
			sort.Slice(s.StoreAtExit, func(i, j int) bool {
				a, b := s.StoreAtExit[i], s.StoreAtExit[j]
				if a.Path != b.Path {
					return a.Path < b.Path
				}
				return a.Ref < b.Ref
			})
		}
	}
	return s
}

// WriteJSON encodes v as two-space indented JSON, the encoding of the
// JSON documents the CLI and the server emit.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
