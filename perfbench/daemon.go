package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"aliaslab/internal/checkers"
	"aliaslab/internal/corpus"
	"aliaslab/internal/corpusgen"
	"aliaslab/internal/faults"
	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
	"aliaslab/internal/report"
	"aliaslab/internal/server"
	"aliaslab/internal/stats"
	"aliaslab/internal/vdg"
)

// daemonMix is aliaslabd traffic as an open loop: requests are due at a
// fixed offered rate whether or not earlier ones have finished, and
// each is timed from its due time.
type daemonMix struct {
	rate     float64       // offered requests per second
	requests int           // requests per round
	resubmit int           // percent of requests that resend an earlier body
	vet      int           // percent of fresh requests sent to /v1/vet
	limit    time.Duration // latency limit counted from the due time

	// faults arms the server's fault injector; nil in the benchmark.
	faults *faults.Injector
}

// newDaemonMix is the benchmark's mix. The shares are assumptions, as
// no record of real traffic exists; README.md gives the reason for each.
func newDaemonMix() *daemonMix {
	return &daemonMix{rate: 80, requests: 102, resubmit: 30, vet: 40, limit: 100 * time.Millisecond}
}

// roundSeconds is the time the schedule takes to send a round.
func (w *daemonMix) roundSeconds() float64 { return float64(w.requests) / w.rate }

// maxSteps is the step budget every request asks for in the
// X-Aliaslab-Max-Steps header, as a client with a deadline would. The
// most CI steps a converging generated unit took, over 15,000 units with
// vet's instrumentation, was about 203k, so a request that runs out of
// it is a solve that does not converge. The server answers it degraded,
// and the benchmark counts it as failed.
const maxSteps = 300_000

// Resubmissions resend a request at least resubmitMin positions back,
// 125 ms at 80 req/s and several times a fresh request's p99, so that
// it has finished and entered the LRU. A round's requests all fit among
// the LRU's 256 entries.
const resubmitMin = 10

// request is one scheduled POST. Resubmissions share their original's
// unit and body bytes.
type request struct {
	path string
	body []byte
	unit int // index into the round's units
	orig int // index of the first request with this body
}

// outcome is what the server answered.
type outcome struct {
	status int
	cache  string // the server's X-Aliaslab-Cache header
	body   []byte
	late   time.Duration // dispatch time minus due time
	lat    time.Duration // completion time minus due time
}

func (w *daemonMix) round(seed int64, r int, tr *obs.Tracer) (*roundResult, error) {
	res := &roundResult{Limit: w.limit}
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	reqs := make([]request, w.requests)
	fresh := 0
	for i := range reqs {
		if i >= resubmitMin && rng.Intn(100) < w.resubmit {
			j := rng.Intn(i - resubmitMin + 1)
			reqs[i] = reqs[reqs[j].orig]
			continue
		}
		reqs[i] = request{path: "/v1/analyze", unit: fresh, orig: i}
		if rng.Intn(100) < w.vet {
			reqs[i].path = "/v1/vet"
		}
		fresh++
	}
	setup := tr.StartSpan("setup")
	ls := enter(setup, "corpusgen")
	units := make([]corpusgen.Program, fresh)
	for k := range units {
		idx := r*w.requests + k
		units[k] = corpusgen.Generate(seed, idx, corpusgen.SweepKnobs(seed, idx))
	}
	ls.exit()
	setup.End()
	for i, rq := range reqs {
		if rq.orig != i {
			reqs[i].body = reqs[rq.orig].body
			continue
		}
		body := map[string]string{"source": units[rq.unit].Source}
		if rq.path == "/v1/analyze" {
			body["backend"] = "ci"
		}
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		reqs[i].body = data
	}
	// The first requests in a fresh process run cold. A server of its
	// own warms the process up on corpus programs, which the schedule
	// never sends.
	warm := server.New(server.Config{})
	for _, name := range corpus.Names() {
		for _, path := range []string{"/v1/analyze", "/v1/vet"} {
			rec := httptest.NewRecorder()
			warm.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"corpus":"`+name+`"}`)))
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("warm-up %s %s: status %d", path, name, rec.Code)
			}
		}
	}
	srv := server.New(server.Config{Faults: w.faults})
	res.Setup = time.Since(t0)

	outs, timed, cpu := w.openLoop(srv, reqs, tr)
	res.Timed, res.CPU = timed, cpu
	for _, o := range outs {
		res.Lat = append(res.Lat, o.lat)
		res.Late = append(res.Late, o.late)
	}

	if tr != nil {
		if err := replay(tr, reqs, outs, units); err != nil {
			return nil, err
		}
	}

	// Checks, after the timed phase, against a direct solve of every
	// unit the server answered.
	answered := make([]bool, len(units))
	for i, o := range outs {
		answered[reqs[i].unit] = answered[reqs[i].unit] || o.status == http.StatusOK
	}
	refs := make([]reference, len(units))
	if err := forEach(len(reqs), func(i int) error {
		rq := reqs[i]
		if rq.orig != i || !answered[rq.unit] {
			return nil
		}
		var err error
		refs[rq.unit].census, refs[rq.unit].vet, err = stages(nil, rq, units[rq.unit].Source)
		return err
	}); err != nil {
		return nil, err
	}
	for i, o := range outs {
		rq := reqs[i]
		res.Attempted++
		ok := check(rq, o, outs[rq.orig], refs[rq.unit])
		if !ok {
			res.Failed++
			if o.status == http.StatusOK {
				res.Wrong++
				res.fail("wrong answer", 1)
			} else {
				res.fail(strconv.Itoa(o.status)+" "+http.StatusText(o.status), 1)
			}
		}
		if !ok || o.lat > w.limit {
			res.SLOMiss++
		}
	}
	return res, nil
}

// openLoop sends every request at its due time from one generating
// goroutine and waits for all of them. It returns the wall and process
// CPU time the loop took.
func (w *daemonMix) openLoop(srv *server.Server, reqs []request, tr *obs.Tracer) ([]outcome, time.Duration, time.Duration) {
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now().Add(10 * time.Millisecond)
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / w.rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			late := time.Since(due)
			op := tr.StartSpan("op", obs.Int("op", i))
			ls := enter(op, "server")
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, reqs[i].path, bytes.NewReader(reqs[i].body))
			req.Header.Set("X-Aliaslab-Max-Steps", strconv.Itoa(maxSteps))
			t := time.Now()
			srv.ServeHTTP(rec, req)
			serve := time.Since(t)
			o := outcome{status: rec.Code, cache: rec.Header().Get("X-Aliaslab-Cache"), body: rec.Body.Bytes(), late: late}
			// Admission refuses rather than queues, so the server's one
			// wait is a duplicate joining an identical in-flight solve.
			dedup := 0
			if o.cache == "dedup" {
				dedup = int(serve / time.Microsecond)
			}
			ls.exit(obs.Int("cache_hits", b2i(o.cache == "hit")),
				obs.Int("refused", b2i(o.status == http.StatusTooManyRequests)),
				obs.Int("queue_us", dedup))
			op.End()
			o.lat = time.Since(due)
			outs[i] = o
		}(i, due)
	}
	wg.Wait()
	return outs, time.Since(start), cpuTime() - cpu0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// stages runs one request's work through the public functions the
// server calls: the front end, the CI solve, then the statistics of an
// analyze response or the checkers and report writer of a vet response.
// It returns the census or the rendered vet body.
func stages(parent *obs.Span, rq request, src string) (stats.PairCensus, []byte, error) {
	vet := rq.path == "/v1/vet"
	g, err := frontEnd(parent, "request.c", src, vdg.Options{Diagnostics: vet})
	if err != nil {
		return stats.PairCensus{}, nil, err
	}
	ci := solveCI(parent, g, limits.Budget{MaxSteps: maxSteps})
	if !vet {
		ls := enter(parent, "stats")
		c := stats.Census(g, ci.Sets)
		stats.CountIndirect(g, ci.Sets)
		ls.exit()
		return c, nil, nil
	}
	ls := enter(parent, "checkers")
	sel, err := checkers.Select(nil)
	if err != nil {
		return stats.PairCensus{}, nil, err
	}
	diags := checkers.Run(checkers.NewContext(g, ci), sel)
	ls.exit(obs.Int("diags", len(diags)))
	ls = enter(parent, "report")
	var buf bytes.Buffer
	err = report.WriteDiagsEnvelope(&buf, diags, nil)
	ls.exit()
	return stats.PairCensus{}, buf.Bytes(), err
}

// replay repeats, stage by stage, the work of every distinct request,
// whatever the server answered, so that the layer counts depend on the
// seed alone. Each replay is tagged with how many requests the server
// solved with its body (a refused request is resent as a miss), so that
// server.self_ms subtracts the stages of exactly the solves in the
// ServeHTTP time.
func replay(tr *obs.Tracer, reqs []request, outs []outcome, units []corpusgen.Program) error {
	solved := make([]int, len(reqs))
	for i, o := range outs {
		if o.cache == "miss" && (o.status == http.StatusOK || o.status == http.StatusPartialContent) {
			solved[reqs[i].orig]++
		}
	}
	for i, rq := range reqs {
		if rq.orig != i {
			continue
		}
		sp := tr.StartSpan("replay", obs.Int("op", i), obs.Int(attrSolved, solved[i]))
		_, _, err := stages(sp, rq, units[rq.unit].Source)
		sp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// analyzeReply is the part of an /v1/analyze response the check reads.
type analyzeReply struct {
	Unit   string `json:"unit"`
	Label  string `json:"label"`
	Census struct {
		Total     int `json:"total"`
		Pointer   int `json:"pointer"`
		Function  int `json:"function"`
		Aggregate int `json:"aggregate"`
		Store     int `json:"store"`
	} `json:"pairs"`
}

// reference is a direct solve of one unit: the census of an analyze
// request or the rendered body of a vet request.
type reference struct {
	census stats.PairCensus
	vet    []byte
}

// check reports whether a request succeeded with a correct answer: a
// 200 whose body equals its original's byte for byte and matches a
// direct solve of the same source.
func check(rq request, o, first outcome, ref reference) bool {
	if o.status != http.StatusOK {
		return false
	}
	if first.status == http.StatusOK && !bytes.Equal(o.body, first.body) {
		return false
	}
	if rq.path == "/v1/vet" {
		return bytes.Equal(o.body, ref.vet)
	}
	var got analyzeReply
	if err := json.Unmarshal(o.body, &got); err != nil {
		return false
	}
	c, exp := got.Census, ref.census
	return got.Label == "context-insensitive" && got.Unit == "request.c" &&
		c.Total == exp.Total && c.Pointer == exp.Pointer && c.Function == exp.Function &&
		c.Aggregate == exp.Aggregate && c.Store == exp.Store
}
