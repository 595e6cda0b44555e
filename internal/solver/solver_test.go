package solver

import (
	"testing"

	"aliaslab/internal/limits"
)

// drain runs an engine whose transfer does nothing and records the pop
// order.
func drain(e *Engine[int]) []int {
	var order []int
	e.Run(func(x int) { order = append(order, x) })
	return order
}

func pushAll(e *Engine[int], xs ...int) {
	for _, x := range xs {
		e.Push(x)
	}
}

func eq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFIFOOrder(t *testing.T) {
	e := New(Config[int]{Strategy: FIFO})
	pushAll(e, 3, 1, 2)
	if got := drain(e); !eq(got, []int{3, 1, 2}) {
		t.Errorf("fifo pop order = %v, want [3 1 2]", got)
	}
}

func TestLIFOOrder(t *testing.T) {
	e := New(Config[int]{Strategy: LIFO})
	pushAll(e, 3, 1, 2)
	if got := drain(e); !eq(got, []int{2, 1, 3}) {
		t.Errorf("lifo pop order = %v, want [2 1 3]", got)
	}
}

// TestFIFOCompaction pushes enough items to trigger the queue's dead-
// prefix compaction mid-drain and checks no item is lost or reordered.
func TestFIFOCompaction(t *testing.T) {
	e := New(Config[int]{Strategy: FIFO})
	const n = 5000
	next := 0 // next value to push; transfer interleaves pushes with pops
	var got []int
	for ; next < 10; next++ {
		e.Push(next)
	}
	e.Run(func(x int) {
		got = append(got, x)
		if next < n {
			e.Push(next)
			next++
		}
	})
	if len(got) != n {
		t.Fatalf("drained %d items, want %d", len(got), n)
	}
	for i, x := range got {
		if x != i {
			t.Fatalf("item %d popped as %d; compaction scrambled the queue", i, x)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	e := New(Config[int]{Strategy: FIFO})
	pushAll(e, 1, 2, 3)
	drained := drain(e)
	st := e.Stats()
	if st.Steps != 3 || st.Enqueued != 3 || len(drained) != 3 {
		t.Errorf("steps=%d enqueued=%d drained=%d, want 3/3/3", st.Steps, st.Enqueued, len(drained))
	}
	if st.PeakDepth != 3 {
		t.Errorf("peak depth = %d, want 3 (all items queued before the drain)", st.PeakDepth)
	}
	if st.Strategy != FIFO {
		t.Errorf("stats strategy = %v, want fifo", st.Strategy)
	}
}

func TestMaxStepsAborts(t *testing.T) {
	e := New(Config[int]{MaxSteps: 2})
	pushAll(e, 1, 2, 3)
	out := e.Run(func(int) {})
	if !out.Aborted || out.Stopped != nil {
		t.Errorf("outcome = %+v, want aborted without a violation", out)
	}
	if e.Stats().Steps != 2 {
		t.Errorf("steps = %d, want exactly the bound 2", e.Stats().Steps)
	}
}

func TestBudgetViolationStops(t *testing.T) {
	e := New(Config[int]{Budget: limits.Budget{MaxSteps: 2}})
	pushAll(e, 1, 2, 3)
	out := e.Run(func(int) {})
	if !out.Aborted || out.Stopped == nil || out.Stopped.Reason != limits.Steps {
		t.Errorf("outcome = %+v, want a step-budget violation", out)
	}
}

// TestLedgerFlush checks the clean-drain contract: a run governed by a
// ledger-sharing budget charges exactly its step count to the ledger,
// including the tail items after the loop's last in-flight check.
func TestLedgerFlush(t *testing.T) {
	ledger := &limits.Ledger{}
	e := New(Config[int]{Budget: limits.Budget{}.Share(ledger)})
	pushAll(e, 1, 2, 3, 4, 5)
	if out := e.Run(func(int) {}); out.Aborted {
		t.Fatalf("unexpected abort: %+v", out)
	}
	if ledger.Steps() != e.Stats().Steps {
		t.Errorf("ledger pooled %d steps, engine counted %d", ledger.Steps(), e.Stats().Steps)
	}
}

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want Strategy
		err  bool
	}{
		{"", FIFO, false},
		{"fifo", FIFO, false},
		{"lifo", LIFO, false},
		{"priority", FIFO, true},
		{"bogus", FIFO, true},
	}
	for _, c := range cases {
		got, err := ParseStrategy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
	for _, s := range Strategies() {
		if got, err := ParseStrategy(s.String()); err != nil || got != s {
			t.Errorf("ParseStrategy(%v.String()) = %v, %v; want round-trip", s, got, err)
		}
	}
}
