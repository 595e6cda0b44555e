package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"aliaslab/internal/obs"
)

// The traced run records a root span per op (or per set-up and replay
// step) and, under it, one span per call into a layer, named after the
// layer: "lexer", "parser", "sema", "vdg", "core.ci", "core.cs",
// "andersen", "steensgaard", "stats", "checkers", "report", "query",
// "server" and "corpusgen". A layer span carries the heap bytes
// allocated during the call (attrAlloc) and the work counts the layer
// returned, each a "<layer>.<attr>" metric in the summary.
const attrAlloc = "alloc_bytes"

// attrSolved tags a daemon-mix replay with the number of requests the
// server solved with the replayed body.
const attrSolved = "solved"

// layerSpan is the span of one call into a layer. The zero value, made
// under a nil parent, records nothing, so the untraced run goes through
// the same calls at the cost of a nil check.
type layerSpan struct {
	sp     *obs.Span
	alloc0 uint64
}

func enter(parent *obs.Span, layer string) layerSpan {
	if parent == nil {
		return layerSpan{}
	}
	return layerSpan{sp: parent.Child(layer), alloc0: heapAllocBytes()}
}

// on reports whether the call is traced; callers compute costly counts
// only when it is.
func (l layerSpan) on() bool { return l.sp != nil }

// exit closes the span with its allocation delta and work counts.
func (l layerSpan) exit(counts ...obs.Attr) {
	if l.sp == nil {
		return
	}
	l.sp.SetAttr(obs.Int(attrAlloc, int(heapAllocBytes()-l.alloc0)))
	for _, c := range counts {
		l.sp.SetAttr(c)
	}
	l.sp.End()
}

// layers are the span names summarized as per-layer metrics.
var layers = []string{"lexer", "parser", "sema", "vdg", "core.ci", "core.cs",
	"andersen", "steensgaard", "stats", "checkers", "report", "query",
	"server", "corpusgen"}

// layerTotals sums the layer spans of one traced round.
type layerTotals struct {
	selfMS  map[string]float64 // span duration minus its children's
	allocMB map[string]float64
	calls   map[string]int
	counts  map[string]float64 // "<layer>.<attr>"

	// serverSelfMS is the ServeHTTP time minus the time of the stages
	// replayed for the same requests.
	serverSelfMS float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func summarize(tr *obs.Tracer) layerTotals {
	t := layerTotals{
		selfMS:  map[string]float64{},
		allocMB: map[string]float64{},
		calls:   map[string]int{},
		counts:  map[string]float64{},
	}
	isLayer := map[string]bool{}
	for _, l := range layers {
		isLayer[l] = true
	}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		children := s.Children()
		if isLayer[s.Name] {
			// A layer's child spans run on its goroutine, one after
			// another, so they never overlap.
			self := s.Dur()
			for _, c := range children {
				self -= c.Dur()
			}
			t.selfMS[s.Name] += ms(self)
			t.calls[s.Name]++
			for _, a := range s.Attrs() {
				v, err := strconv.Atoi(a.Val)
				if err != nil {
					continue
				}
				if a.Key == attrAlloc {
					t.allocMB[s.Name] += float64(v) / (1 << 20)
				} else {
					t.counts[s.Name+"."+a.Key] += float64(v)
				}
			}
		}
		for _, c := range children {
			walk(c)
		}
	}
	for _, root := range tr.Roots() {
		walk(root)
		switch root.Name {
		case "op":
			for _, c := range root.Children() {
				if c.Name == "server" {
					t.serverSelfMS += ms(c.Dur())
				}
			}
		case "replay":
			solved := 0
			for _, a := range root.Attrs() {
				if a.Key == attrSolved {
					solved, _ = strconv.Atoi(a.Val)
				}
			}
			for _, c := range root.Children() {
				t.serverSelfMS -= float64(solved) * ms(c.Dur())
			}
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics maps the totals onto the per-layer metric names.
func (t layerTotals) layerMetrics() map[string]float64 {
	m := map[string]float64{}
	for _, l := range layers {
		m[l+".ms"] = t.selfMS[l]
		m[l+".alloc_mb"] = t.allocMB[l]
	}
	for k, v := range t.counts {
		m[k] = v
	}
	m["core.ci.inserts_per_step"] = ratio(t.counts["core.ci.pair_inserts"], t.counts["core.ci.steps"])
	m["query.memo_hit_ratio"] = ratio(t.counts["query.memo_hits"], float64(t.calls["query"]))
	m["query.slice_fraction"] = ratio(t.counts["query.slice_outputs"], t.counts["query.total_outputs"])
	m["server.self_ms"] = t.serverSelfMS
	m["server.cache_hit_ratio"] = ratio(t.counts["server.cache_hits"], float64(t.calls["server"]))
	m["server.queue_ms"] = t.counts["server.queue_us"] / 1000
	return m
}

// writeTrace writes the Chrome trace and the per-layer summary of a
// traced run into dir and returns their paths.
func writeTrace(dir, stem string, tr *obs.Tracer, summary any) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	chrome := filepath.Join(dir, stem+".trace.json")
	f, err := os.Create(chrome)
	if err != nil {
		return nil, err
	}
	if err := obs.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return nil, fmt.Errorf("write %s: %w", chrome, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	layersPath := filepath.Join(dir, stem+".layers.json")
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(layersPath, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return []string{chrome, layersPath}, nil
}
