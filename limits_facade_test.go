package aliaslab_test

// Tests for the budget-governed facade paths: Analyze with non-zero
// Limits, and Vet with non-zero Limits.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"aliaslab"
)

// adversarialSrc mirrors the swap-recursion fixture of the core
// degradation tests: the exact context-sensitive analysis does
// strictly more work than CI on it.
func adversarialSrc(k int) string {
	var sb strings.Builder
	sb.WriteString("int c;\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "int t%d;\n", i)
	}
	sb.WriteString(`
void fill(int **p, int **q) {
  int *tmp;
  if (c) { fill(q, p); }
  tmp = *p;
  *p = *q;
  *q = tmp;
}
int main() {
  int *u; int *v;
`)
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "  if (c == %d) { u = &t%d; } else { v = &t%d; }\n", i, i, i)
	}
	sb.WriteString("  fill(&u, &v);\n  fill(&v, &u);\n  return **(&u);\n}\n")
	return sb.String()
}

func TestLimitedMatchesUnlimitedUnderGenerousBudget(t *testing.T) {
	prog, err := aliaslab.ParseProgram("adv.c", adversarialSrc(6), aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := prog.Analyze(context.Background(), aliaslab.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lim, err := prog.Analyze(context.Background(), aliaslab.Config{Limits: aliaslab.Limits{Timeout: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	if lim.Degraded || len(lim.Notes()) != 0 {
		t.Fatalf("generous budget degraded: %v", lim.Notes())
	}
	if lim.TotalPairs() != exact.TotalPairs() || lim.Label() != exact.Label() {
		t.Fatalf("limited run diverged: %d pairs (%s) vs %d (%s)",
			lim.TotalPairs(), lim.Label(), exact.TotalPairs(), exact.Label())
	}
}

func TestContextSensitiveLimitedDegradesSoundly(t *testing.T) {
	prog, err := aliaslab.ParseProgram("adv.c", adversarialSrc(12), aliaslab.Options{})
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
	budget := (ci.TransferFns + cs.TransferFns) / 2
	if ci.TransferFns >= budget {
		t.Fatalf("fixture not adversarial: CI %d, CS %d flow-ins", ci.TransferFns, cs.TransferFns)
	}

	res, err := prog.Analyze(context.Background(), aliaslab.Config{Backend: "cs", Limits: aliaslab.Limits{MaxSteps: budget}})
	if err != nil {
		t.Fatalf("sound degraded tiers must not error: %v", err)
	}
	if !res.Degraded || len(res.Notes()) == 0 {
		t.Fatalf("budgeted CS run did not report degradation (label %q)", res.Label())
	}
	if !strings.Contains(res.Label(), "degraded") {
		t.Fatalf("label does not carry the degradation marker: %q", res.Label())
	}
	// Sound degradation: never fewer pairs than the exact CS answer,
	// never more than the CI answer.
	if res.TotalPairs() < cs.TotalPairs() || res.TotalPairs() > ci.TotalPairs() {
		t.Fatalf("degraded pair count %d outside [CS %d, CI %d]",
			res.TotalPairs(), cs.TotalPairs(), ci.TotalPairs())
	}
}

func TestAnalyzeLimitedPartialReturnsError(t *testing.T) {
	prog, err := aliaslab.ParseProgram("adv.c", adversarialSrc(12), aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Analyze(context.Background(), aliaslab.Config{Limits: aliaslab.Limits{MaxSteps: 10}})
	if err == nil {
		t.Fatal("partial (unsound) CI result must come with an error")
	}
	if res == nil || !res.Degraded {
		t.Fatalf("partial result not returned for inspection: %v", res)
	}
	if !strings.Contains(res.Label(), "partial-ci") {
		t.Fatalf("label does not name the partial tier: %q", res.Label())
	}
}

func TestAnalyzeLimitedCancelledContext(t *testing.T) {
	prog, err := aliaslab.ParseProgram("adv.c", adversarialSrc(24), aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := prog.Analyze(ctx, aliaslab.Config{})
	// A pre-cancelled context stops the run at the first deadline poll;
	// a fixture small enough to finish before polling is also fine —
	// what must never happen is an error without a result.
	if err != nil && res == nil {
		t.Fatalf("cancelled run returned no partial result: %v", err)
	}
}

func TestVetWithLimitsReportsDegradation(t *testing.T) {
	const leak = `
int main(void) {
	int *p;
	p = (int *) malloc(4);
	*p = 1;
	return 0;
}
`
	prog, err := aliaslab.ParseProgram("leak.c", leak, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	diags, degraded, err := prog.Vet(context.Background(), aliaslab.Limits{MaxPairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("pair-capped vet run not flagged degraded")
	}
	_ = diags // best-effort findings; count is unspecified under a tripped budget

	diags, degraded, err = prog.Vet(context.Background(), aliaslab.Limits{})
	if err != nil || degraded {
		t.Fatalf("unlimited vet degraded: %v, %v", degraded, err)
	}
	if len(diags) != 1 || diags[0].Checker != "leak" {
		t.Fatalf("want the one leak finding, got %v", diags)
	}
}
