package aliaslab_test

import (
	"context"
	"strings"
	"testing"

	"aliaslab"
)

const demo = `
int a, b;
int *p, *q;
void choose(int **dst, int *x, int *y, int c) {
	if (c) {
		*dst = x;
	} else {
		*dst = y;
	}
}
int main(void) {
	choose(&p, &a, &b, 1);
	choose(&q, &b, &b, 0);
	return *p;
}
`

func TestFacadePipeline(t *testing.T) {
	prog, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines, nodes, aliasOuts := prog.Sizes()
	if lines == 0 || nodes == 0 || aliasOuts == 0 {
		t.Fatalf("sizes: %d %d %d", lines, nodes, aliasOuts)
	}

	res, err := prog.Analyze(context.Background(), aliaslab.Config{})
	if err != nil {
		t.Fatal(err)
	}
	store := res.StoreAtExit()
	find := func(path string) []string {
		var refs []string
		for _, pt := range store {
			if pt.Path == path {
				refs = append(refs, pt.Referent)
			}
		}
		return refs
	}
	if got := strings.Join(find("p"), ","); got != "a,b" {
		t.Errorf("p -> %v, want a,b (CI merges both branches and calls)", got)
	}
	if got := strings.Join(find("q"), ","); got != "a,b" {
		t.Errorf("q -> %v, want a,b under CI pollution", got)
	}

	ops := res.IndirectOps()
	if len(ops) == 0 {
		t.Fatal("no indirect operations found")
	}
	var loads int
	for _, op := range ops {
		if op.Kind == "read" && op.Function == "main" {
			loads++
			if strings.Join(op.Referents, ",") != "a,b" {
				t.Errorf("*p reads %v", op.Referents)
			}
		}
	}
	if loads != 1 {
		t.Errorf("found %d reads in main, want 1", loads)
	}
}

func TestFacadeSensitivityComparison(t *testing.T) {
	prog, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := prog.Analyze(context.Background(), aliaslab.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := prog.Analyze(context.Background(), aliaslab.Config{Backend: "cs"})
	if err != nil {
		t.Fatal(err)
	}
	spurious, diffs := aliaslab.Compare(ci, cs)
	if spurious == 0 {
		t.Error("expected CI to carry spurious pairs on this program (q -> a)")
	}
	// The paper's phenomenon in miniature: the spurious q -> a pair is
	// never dereferenced, and *p legitimately reaches both targets (the
	// imprecision at p is a branch merge, not a context merge), so no
	// indirect operation differs.
	if diffs != 0 {
		t.Errorf("%d indirect operations differ; the pollution should be invisible to dereferences", diffs)
	}
	// The CS result can never exceed CI.
	if cs.TotalPairs() > ci.TotalPairs() {
		t.Errorf("CS has %d pairs, CI %d", cs.TotalPairs(), ci.TotalPairs())
	}
}

// TestFacadeBaselineIsCoarsest: the Weihl-style program-wide baseline,
// computed by the Andersen backend, is never more precise than CI at
// indirect operations.
func TestFacadeBaselineIsCoarsest(t *testing.T) {
	prog, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci, _ := prog.Analyze(context.Background(), aliaslab.Config{})
	bl, err := prog.Analyze(context.Background(), aliaslab.Config{Backend: "andersen"})
	if err != nil {
		t.Fatal(err)
	}
	ciOps := ci.IndirectOps()
	blOps := bl.IndirectOps()
	if len(ciOps) != len(blOps) {
		t.Fatalf("op counts differ: %d vs %d", len(ciOps), len(blOps))
	}
	for i := range ciOps {
		if len(blOps[i].Referents) < len(ciOps[i].Referents) {
			t.Errorf("baseline more precise than CI at %s", ciOps[i].Pos)
		}
	}
}

func TestFacadeModRefAndCallGraph(t *testing.T) {
	prog, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := prog.Analyze(context.Background(), aliaslab.Config{})
	mod, _, err := res.ModRef()
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(mod["choose"], ",")
	if got != "p,q" {
		t.Errorf("choose mods %q, want p,q", got)
	}
	cg, err := res.CallGraph()
	if err != nil {
		t.Fatal(err)
	}
	if len(cg["main"]) != 2 {
		t.Errorf("main calls %v", cg["main"])
	}

	// Context-sensitive results keep the CI pre-pass, so the clients
	// remain available.
	cs, err := prog.Analyze(context.Background(), aliaslab.Config{Backend: "cs"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.ModRef(); err != nil {
		t.Errorf("ModRef on a CS result: %v", err)
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	names := aliaslab.BenchmarkNames()
	if len(names) != 13 {
		t.Fatalf("corpus has %d programs", len(names))
	}
	prog, err := aliaslab.Benchmark("part", aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Analyze(context.Background(), aliaslab.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPairs() == 0 {
		t.Fatal("no pairs on part")
	}
	if _, err := aliaslab.Benchmark("nonexistent", aliaslab.Options{}); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestFacadeParseErrors(t *testing.T) {
	if _, err := aliaslab.ParseProgram("bad.c", "int f( {", aliaslab.Options{}); err == nil {
		t.Fatal("syntax errors must be reported")
	}
	if _, err := aliaslab.ParseProgram("bad.c", "int main(void) { return undeclared; }", aliaslab.Options{}); err == nil {
		t.Fatal("semantic errors must be reported")
	}
}

func TestFacadeVet(t *testing.T) {
	prog, err := aliaslab.ParseProgram("vetme.c", `
int main(void) {
	int *p;
	p = (int *) malloc(4);
	free(p);
	*p = 1;
	return 0;
}
`, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	diags, _, err := prog.Vet(ctx, aliaslab.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, d := range diags {
		if d.Checker == "uaf" && strings.Contains(d.Message, "after free") {
			found = true
			if d.Severity != "error" || len(d.Related) == 0 || !strings.Contains(d.Pos, "vetme.c:") {
				t.Errorf("malformed diagnostic: %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("use-after-free not reported: %v", diags)
	}

	// Selecting a checker that cannot fire here yields no diagnostics.
	none, _, err := prog.Vet(ctx, aliaslab.Limits{}, "dangling")
	if err != nil || len(none) != 0 {
		t.Fatalf("dangling on heap-only program: %v, err %v", none, err)
	}
	if _, _, err := prog.Vet(ctx, aliaslab.Limits{}, "nosuch"); err == nil {
		t.Fatal("unknown checker must error")
	}

	// The vet rebuild must not perturb the paper's analysis results on
	// the original program.
	res, err := prog.Analyze(ctx, aliaslab.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.StoreAtExit() {
		if strings.Contains(pt.Referent, "<null>") || strings.Contains(pt.Referent, "<uninit>") {
			t.Fatalf("marker location leaked into plain analysis: %+v", pt)
		}
	}
}

func TestFacadeCheckers(t *testing.T) {
	ids := aliaslab.Checkers()
	for _, want := range []string{"uaf", "dangling", "nullderef", "uninit", "leak"} {
		if _, ok := ids[want]; !ok {
			t.Errorf("checker %q missing from Checkers()", want)
		}
	}
}

// TestAnalyzeConfig pins the one analysis entry point: each backend
// answers under its own label, worklist names are validated per
// backend, and a stopped constraint-backend solve is degraded AND an
// error.
func TestAnalyzeConfig(t *testing.T) {
	prog, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct{ backend, worklist, label string }{
		{"", "", "context-insensitive"},
		{"ci", "lifo", "context-insensitive"},
		{"cs", "fifo", "context-sensitive"},
		{"andersen", "lifo", "andersen (inclusion-based)"},
		{"steensgaard", "", "steensgaard (unification-based)"},
	} {
		res, err := prog.Analyze(ctx, aliaslab.Config{Backend: c.backend, Worklist: c.worklist})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.backend, c.worklist, err)
		}
		if res.Label() != c.label || res.Degraded {
			t.Errorf("%s/%s: label %q degraded %v, want %q", c.backend, c.worklist, res.Label(), res.Degraded, c.label)
		}
	}
	for _, bad := range []aliaslab.Config{
		{Worklist: "priority"},
		{Backend: "steensgaard", Worklist: "fifo"},
		{Backend: "weihl"},
	} {
		if _, err := prog.Analyze(ctx, bad); err == nil {
			t.Errorf("%+v: want an error", bad)
		}
	}
	res, err := prog.Analyze(ctx, aliaslab.Config{Backend: "andersen", Limits: aliaslab.Limits{MaxSteps: 1}})
	if err == nil || res == nil || !res.Degraded || len(res.Notes()) == 0 {
		t.Fatalf("stopped andersen solve: res %v, err %v; want a degraded partial result and an error", res, err)
	}
}

// TestAnalyzeTraceShape pins the span tree a traced Program records:
// the front end under the unit root, then one root per call — "solve"
// with a child per solve attempt for Analyze on every backend and
// budget, "vet" with the solve and the checkers for Vet.
func TestAnalyzeTraceShape(t *testing.T) {
	tr := aliaslab.NewTrace()
	prog, err := aliaslab.ParseProgramTraced("demo.c", demo, aliaslab.Options{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, cfg := range []aliaslab.Config{
		{},
		{Backend: "cs"},
		{Backend: "andersen", Limits: aliaslab.Limits{MaxSteps: 1_000_000}},
		{Backend: "steensgaard"},
	} {
		if _, err := prog.Analyze(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := prog.Vet(ctx, aliaslab.Limits{}); err != nil {
		t.Fatal(err)
	}
	var shape []string
	for _, line := range strings.Split(strings.TrimRight(tr.Text(), "\n"), "\n") {
		name, _, _ := strings.Cut(line, " dur=")
		shape = append(shape, name)
	}
	want := []string{
		"unit", "  lex", "  parse", "  sema", "  vdg",
		"solve", "  solve-ci",
		"solve", "  solve-ci", "  solve-cs",
		"solve", "  solve-andersen",
		"solve", "  solve-steensgaard",
		"vet", "  solve-ci", "  checkers",
	}
	if got := strings.Join(shape, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("trace shape:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}
