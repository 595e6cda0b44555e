// Package solver owns the fixpoint machinery shared by every points-to
// analysis in the repository. An Engine drains a worklist of arrivals
// through a client-supplied transfer function, metering each iteration
// against a limits.Budget gate and counting its work in a Stats record;
// the worklist discipline (FIFO or LIFO) is a pluggable Strategy. The analyses in internal/core differ
// only in their item type and transfer functions — the loop scaffolding,
// resource governance, and counters live here, once.
//
// Every strategy reaches the same fixpoint (the transfer functions are
// monotone over a finite domain, so the solution is confluent); only
// the visit order — and therefore the meet-operation count and the
// worklist depth profile — changes. The oracle asserts this order
// independence over the whole corpus.
package solver

import (
	"fmt"

	"aliaslab/internal/limits"
)

// Strategy selects the worklist discipline of an engine run.
type Strategy int

const (
	// FIFO processes arrivals in generation order (the paper's queue;
	// the default, and the reference for golden outputs).
	FIFO Strategy = iota
	// LIFO processes the newest arrival first (depth-first propagation).
	LIFO
)

func (s Strategy) String() string {
	switch s {
	case FIFO:
		return "fifo"
	case LIFO:
		return "lifo"
	}
	return fmt.Sprintf("solver.Strategy(%d)", int(s))
}

// ParseStrategy resolves a -worklist flag value; the empty string is
// the FIFO default.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "fifo":
		return FIFO, nil
	case "lifo":
		return LIFO, nil
	}
	return FIFO, fmt.Errorf("solver: unknown worklist strategy %q (want fifo or lifo)", name)
}

// Strategies lists every worklist strategy, FIFO (the reference) first.
func Strategies() []Strategy { return []Strategy{FIFO, LIFO} }

// Stats counts one engine run's work. Steps, Enqueued, and PairInserts
// are strategy-independent on a run that converges (the fixpoint is
// confluent and pair growth is monotone); Meets, the subsumption
// counters, and PeakDepth depend on the visit order.
type Stats struct {
	// Strategy is the worklist discipline the run used.
	Strategy Strategy

	// Steps counts worklist items processed (the paper's flow-in
	// applications).
	Steps int
	// Meets counts flow-out attempts (meet operations), successful or
	// not. The client increments it from its flow-out path.
	Meets int
	// PairInserts counts pairs that survived deduplication or
	// subsumption and were actually added to an output's set.
	PairInserts int
	// SubsumeHits counts qualified-pair arrivals discarded because an
	// existing weaker assumption set already covered them (0 for the
	// context-insensitive analysis).
	SubsumeHits int
	// SubsumeDrops counts existing stronger assumption sets displaced
	// by a weaker arrival (0 for the context-insensitive analysis).
	SubsumeDrops int
	// Enqueued counts items pushed onto the worklist.
	Enqueued int
	// PeakDepth is the maximum number of queued-but-unprocessed items.
	PeakDepth int
	// DepthSum accumulates the outstanding worklist depth after each
	// pop; DepthSum/Steps is the mean queue depth of the run, the
	// summary statistic behind the observability layer's worklist-depth
	// profile. Like PeakDepth it depends on the visit order.
	DepthSum int

	// The remaining counters belong to the constraint-based backends
	// (internal/backend); they stay zero on CI/CS runs.

	// Constraints counts the subset constraints extracted from the VDG
	// before solving (addr, copy, transform, load, store, call).
	Constraints int
	// EdgesAdded counts inclusion edges added to the constraint graph,
	// static copies and dynamically discovered call-flow edges alike
	// (Andersen only).
	EdgesAdded int
	// SCCsCollapsed counts multi-node copy-edge cycles merged by the
	// online cycle-detection passes (Andersen only).
	SCCsCollapsed int
	// Unions counts union-find merges of constraint variables performed
	// by the unification backend (Steensgaard only).
	Unions int
}

// MeanDepth is the average outstanding worklist depth over the run.
func (s *Stats) MeanDepth() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.DepthSum) / float64(s.Steps)
}

// Worklist is the pluggable queue discipline of an Engine.
type Worklist[T any] interface {
	Push(T)
	Pop() (T, bool)
	Len() int
}

// Config assembles an engine.
type Config[T any] struct {
	// Strategy selects the worklist discipline (zero value: FIFO).
	Strategy Strategy

	// Budget is materialized into the per-iteration gate; the zero
	// budget costs nothing in the loop (a nil gate).
	Budget limits.Budget

	// MaxSteps is the legacy hard step bound of the context-sensitive
	// analysis: the run aborts without a Violation when it is reached
	// (0 = unlimited).
	MaxSteps int
}

// Engine drives one fixpoint computation: the client seeds it with
// Push, then Run drains the worklist through the transfer function,
// which re-enters Push for every new arrival it generates.
type Engine[T any] struct {
	wl       Worklist[T]
	gate     *limits.Gate
	maxSteps int
	stats    Stats
}

// New builds an engine for one analysis run.
func New[T any](cfg Config[T]) *Engine[T] {
	var wl Worklist[T] = &fifo[T]{}
	if cfg.Strategy == LIFO {
		wl = &lifo[T]{}
	}
	return &Engine[T]{
		wl:       wl,
		gate:     cfg.Budget.Gate(),
		maxSteps: cfg.MaxSteps,
		stats:    Stats{Strategy: cfg.Strategy},
	}
}

// Stats exposes the run counters. The client increments the
// domain-level fields (Meets, PairInserts, Subsume*) from its transfer
// functions; the engine owns the rest.
func (e *Engine[T]) Stats() *Stats { return &e.stats }

// Push enqueues one arrival.
func (e *Engine[T]) Push(item T) {
	e.stats.Enqueued++
	e.wl.Push(item)
	if d := e.wl.Len(); d > e.stats.PeakDepth {
		e.stats.PeakDepth = d
	}
}

// Outcome reports how a Run ended.
type Outcome struct {
	// Stopped is the budget violation that halted the drain; nil when
	// the run reached the fixpoint (or hit only the legacy MaxSteps
	// bound).
	Stopped *limits.Violation
	// Aborted is true when the drain stopped before the fixpoint, for
	// either reason. The computed state is then an under-approximation.
	Aborted bool
}

// Run drains the worklist to the fixpoint (or a tripped limit). The
// iteration contract matches the analyses' original loops exactly: the
// legacy step bound and the budget gate are checked before each item,
// in that order, and the step counter advances before the transfer
// runs. On a clean drain the gate is flushed so a shared batch ledger
// accounts the work done since the last in-loop check.
func (e *Engine[T]) Run(transfer func(T)) Outcome {
	for e.wl.Len() > 0 {
		if e.maxSteps > 0 && e.stats.Steps >= e.maxSteps {
			return Outcome{Aborted: true}
		}
		if v := e.gate.Step(e.stats.Steps, e.stats.PairInserts); v != nil {
			return Outcome{Stopped: v, Aborted: true}
		}
		item, _ := e.wl.Pop()
		e.stats.Steps++
		e.stats.DepthSum += e.wl.Len()
		transfer(item)
	}
	e.gate.Flush(e.stats.Steps, e.stats.PairInserts)
	return Outcome{}
}

// ---------------------------------------------------------------------------
// Worklist implementations

// fifo is the queue of the paper's algorithm: a slice with a read head,
// compacted once the dead prefix dominates so a long run cannot retain
// every item ever queued.
type fifo[T any] struct {
	items []T
	head  int
}

func (f *fifo[T]) Push(item T) { f.items = append(f.items, item) }

func (f *fifo[T]) Pop() (T, bool) {
	var zero T
	if f.head >= len(f.items) {
		return zero, false
	}
	item := f.items[f.head]
	f.items[f.head] = zero // release for GC
	f.head++
	if f.head >= 1024 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items = f.items[:n]
		f.head = 0
	}
	return item, true
}

func (f *fifo[T]) Len() int { return len(f.items) - f.head }

// lifo is a plain stack.
type lifo[T any] struct{ items []T }

func (l *lifo[T]) Push(item T) { l.items = append(l.items, item) }

func (l *lifo[T]) Pop() (T, bool) {
	var zero T
	n := len(l.items)
	if n == 0 {
		return zero, false
	}
	item := l.items[n-1]
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return item, true
}

func (l *lifo[T]) Len() int { return len(l.items) }
