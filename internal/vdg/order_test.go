package vdg_test

import (
	"fmt"
	"strings"
	"testing"

	"aliaslab/internal/vdg"
)

// orderSrc exercises the shapes whose construction once depended on map
// iteration order: if/else joins, loops (header gammas), and nested
// loops — one procedure of each, plus a straight-line control.
const orderSrc = `
int g;
int *gp;

int plain(int *p) {
	return *p;
}

int *branchy(int c, int *a, int *b) {
	int *r;
	int *s;
	r = a;
	s = b;
	if (c) {
		r = b;
		s = a;
	}
	gp = s;
	return r;
}

int loopy(int n) {
	int i;
	int acc;
	int *p;
	acc = 0;
	p = &g;
	for (i = 0; i < n; i = i + 1) {
		acc = acc + *p;
		if (acc > 10) {
			p = gp;
		}
	}
	return acc;
}

int main(void) {
	int *x;
	x = branchy(1, &g, gp);
	return loopy(plain(x));
}
`

// nodeOrder renders every node in creation order with the outputs
// feeding its inputs.
func nodeOrder(t *testing.T, src string) string {
	t.Helper()
	var b strings.Builder
	for _, fg := range build(t, src, vdg.Options{}).Funcs {
		for _, n := range fg.Nodes {
			fmt.Fprintf(&b, "%s.%s#%d", fg.Fn.Name, n.Kind, n.ID)
			for _, in := range n.Inputs {
				fmt.Fprintf(&b, " %s", in.Src)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestNodeOrderStableAcrossBuilds: two independent builds of the same
// source create the same nodes in the same order with the same wiring.
// Node order fixes path interning and worklist order, so any map-order
// leak into node creation (orderedEnv) would make outputs and engine
// counters vary between runs.
func TestNodeOrderStableAcrossBuilds(t *testing.T) {
	want := nodeOrder(t, orderSrc)
	for i := 0; i < 8; i++ { // map iteration order varies per run
		if got := nodeOrder(t, orderSrc); got != want {
			t.Fatalf("node creation order differs across builds of identical source:\n%s\nvs\n%s", got, want)
		}
	}
}
