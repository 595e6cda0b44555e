package aliaslab_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"aliaslab"
)

// FuzzVet exercises the public facade end to end: parse arbitrary
// source and, when it checks out, run the full pointer-bug checker
// suite under a budget. The whole path must hold the no-crash
// contract; diagnostics must render without empty fields.
func FuzzVet(f *testing.F) {
	seeds := []string{
		"int main(void) { return 0; }",
		"int main(void) { int *p; p = (int *) malloc(4); *p = 1; return 0; }",
		"int main(void) { int *p; p = (int *) malloc(4); free(p); *p = 1; return 0; }",
		"int main(void) { int *p; return *p; }",
		"int g; int *q; void f(void) { q = &g; } int main(void) { f(); return *q; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := aliaslab.ParseProgram("fuzz.c", src, aliaslab.Options{})
		if err != nil {
			return // front-end diagnostics: expected on arbitrary input
		}
		diags, _, err := prog.Vet(context.Background(), aliaslab.Limits{
			Timeout:  5 * time.Second,
			MaxSteps: 20_000,
			MaxPairs: 50_000,
		})
		if err != nil {
			// Checker selection cannot fail (we pass none) and the unit
			// already parsed once, so errors here mean the vet rebuild
			// broke on accepted input.
			if !strings.Contains(err.Error(), "rebuilding for vet") {
				t.Fatalf("vet failed on accepted input: %v", err)
			}
			return
		}
		for _, d := range diags {
			if d.Pos == "" || d.Checker == "" || d.Message == "" {
				t.Fatalf("malformed diagnostic: %+v", d)
			}
		}
	})
}
