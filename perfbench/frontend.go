package main

import (
	"fmt"

	"aliaslab/internal/core"
	"aliaslab/internal/lexer"
	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
	"aliaslab/internal/parser"
	"aliaslab/internal/sema"
	"aliaslab/internal/solver"
	"aliaslab/internal/vdg"
)

// frontEnd runs source text through the four front-end layers, one
// public call each, under a span per layer when parent is traced.
func frontEnd(parent *obs.Span, name, src string, opts vdg.Options) (*vdg.Graph, error) {
	ls := enter(parent, "lexer")
	lx := lexer.New(name, src)
	toks := lx.All()
	ls.exit(obs.Int("tokens", len(toks)))

	ls = enter(parent, "parser")
	file, perrs := parser.ParseTokens(name, toks, lx.Errors())
	ls.exit(obs.Int("decls", len(file.Decls)))
	if len(perrs) > 0 {
		return nil, fmt.Errorf("%s: parse: %v", name, perrs[0])
	}

	ls = enter(parent, "sema")
	prog, serrs := sema.Check(file)
	ls.exit()
	if len(serrs) > 0 {
		return nil, fmt.Errorf("%s: typecheck: %v", name, serrs[0])
	}

	ls = enter(parent, "vdg")
	g, berrs := vdg.Build(prog, opts)
	if ls.on() {
		ls.exit(obs.Int("nodes", g.NodeCount()), obs.Int("outputs", g.OutputCount()))
	}
	if len(berrs) > 0 {
		return nil, fmt.Errorf("%s: build: %v", name, berrs[0])
	}
	return g, nil
}

// solveCI runs the context-insensitive analysis under a "core.ci" span.
func solveCI(parent *obs.Span, g *vdg.Graph, budget limits.Budget) *core.Result {
	ls := enter(parent, "core.ci")
	res := core.AnalyzeInsensitiveBudgeted(g, budget)
	ls.exit(engineCounts(res.Engine)...)
	return res
}

// engineCounts are the solver counters every worklist layer reports.
func engineCounts(st solver.Stats) []obs.Attr {
	return []obs.Attr{obs.Int("steps", st.Steps), obs.Int("meets", st.Meets),
		obs.Int("pair_inserts", st.PairInserts)}
}
