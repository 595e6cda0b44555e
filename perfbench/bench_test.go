package main

import (
	"encoding/json"
	"net/http"
	"os"
	"testing"
	"time"

	"aliaslab/internal/faults"
	"aliaslab/internal/obs"
)

// Small configurations of the three workloads, so that the self-tests
// finish in seconds.
func smallWorkloads() map[string]workload {
	return map[string]workload{
		"paper-eval":    &paperEval{expect: published, passes: 1},
		"daemon-mix":    smallDaemon(nil),
		"query-session": &querySession{units: 12, perUnit: 16, repeat: 15},
	}
}

func smallDaemon(inj *faults.Injector) *daemonMix {
	return &daemonMix{rate: 40, requests: 60, resubmit: 20, vet: 40, limit: time.Second, faults: inj}
}

func panicEvery4(t *testing.T) *faults.Injector {
	t.Helper()
	inj, err := faults.Parse("panic:solve:every=4", 0)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestInjectedFaultsAreCounted(t *testing.T) {
	inj := panicEvery4(t)
	rr, err := smallDaemon(inj).round(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Injected() == 0 {
		t.Fatal("no fault was injected")
	}
	if rr.Failed != inj.Injected() || rr.Why["500 "+http.StatusText(500)] != inj.Injected() {
		t.Errorf("failed = %d (%v), want the %d injected panics", rr.Failed, rr.Why, inj.Injected())
	}
	if rr.Wrong != 0 {
		t.Errorf("wrong = %d, want 0: an injected 500 is a failure, not a wrong answer", rr.Wrong)
	}
}

func TestWrongPinFailsEveryOp(t *testing.T) {
	pin := published
	pin.CI++
	rr, err := (&paperEval{expect: pin, passes: 1}).round(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Attempted == 0 || rr.Failed != rr.Attempted || rr.Wrong != rr.Attempted {
		t.Errorf("attempted %d, failed %d, wrong %d: a wrong pin must fail every op", rr.Attempted, rr.Failed, rr.Wrong)
	}
}

func TestWorkloadsPassTheirChecks(t *testing.T) {
	for name, w := range smallWorkloads() {
		rr, err := w.round(1, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rr.Attempted == 0 || rr.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d %v", name, rr.Attempted, rr.Failed, rr.Why)
		}
	}
}

// counts are the per-layer metrics that must repeat exactly at one seed.
// server.refused is left out: whether a request finds a free admission
// slot depends on timing.
func counts(t *testing.T, w workload, seed int64) (map[string]float64, int) {
	t.Helper()
	tr := obs.New(obs.Config{})
	rr, err := w.round(seed, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := summarize(tr).layerMetrics()
	out := map[string]float64{"query.memo_hit_ratio": m["query.memo_hit_ratio"]}
	for _, d := range perLayer {
		if d.Unit == "count" && d.Name != "gc.cycles" && d.Name != "server.refused" {
			out[d.Name] = m[d.Name]
		}
	}
	return out, rr.Attempted
}

func TestCountsRepeatAtOneSeed(t *testing.T) {
	for name, w := range smallWorkloads() {
		a, opsA := counts(t, w, 1)
		b, opsB := counts(t, w, 1)
		c, opsC := counts(t, w, 2)
		if opsA != opsB || opsA != opsC {
			t.Errorf("%s: op counts %d, %d, %d differ", name, opsA, opsB, opsC)
		}
		changed := false
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: %s = %v then %v at one seed", name, k, v, b[k])
			}
			changed = changed || c[k] != v
		}
		if a["lexer.tokens"] == 0 {
			t.Errorf("%s: no tokens counted", name)
		}
		if name != "paper-eval" && !changed {
			t.Errorf("%s: seed 2 gave the same counts as seed 1", name)
		}
	}
}

// TestDaemonCountsIgnoreOutcomes checks that daemon-mix's layer counts
// come from the seed, not from what the server answered: a run whose
// solves panic reports the same counts as a clean one.
func TestDaemonCountsIgnoreOutcomes(t *testing.T) {
	clean, _ := counts(t, smallDaemon(nil), 1)
	faulty, _ := counts(t, smallDaemon(panicEvery4(t)), 1)
	for k, v := range clean {
		if faulty[k] != v {
			t.Errorf("%s = %v clean, %v with injected panics", k, v, faulty[k])
		}
	}
	if clean["core.ci.steps"] == 0 {
		t.Error("no CI steps counted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads()))
	}
	for _, wl := range spec.Workloads {
		if _, ok := workloads()[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", wl.Name)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
