package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"swrec/internal/datagen"
)

func TestPlanFingerprints(t *testing.T) {
	active := []int32{3, 5, 8, 13, 21}
	plans := map[string]func(seed int64) plan{
		"cold": func(seed int64) plan { return coldPlan(seed, make([]bool, 500), 500) },
		"hot":  func(seed int64) plan { return hotPlan(seed, 400, 800, 341, 4096) },
		"open": func(seed int64) plan {
			return openPlan(seed, "churn", active, 400, 800, 200, 2*time.Second, 0.25)
		},
	}
	for name, mk := range plans {
		a, b, c := mk(7), mk(7), mk(8)
		if a.fp != b.fp {
			t.Errorf("%s: same seed gave fingerprints %s and %s", name, a.fp, b.fp)
		}
		if a.fp == c.fp {
			t.Errorf("%s: seeds 7 and 8 gave the same fingerprint %s", name, a.fp)
		}
	}
}

func TestColdPlanStratifies(t *testing.T) {
	single := make([]bool, 1000)
	for i := 0; i < 83; i++ {
		single[i*12] = true
	}
	p := coldPlan(9, single, len(single))
	seen := map[int32]bool{}
	few := 0
	for i, o := range p.ops {
		if seen[o.agent] {
			t.Fatalf("agent %d served twice", o.agent)
		}
		seen[o.agent] = true
		if single[o.agent] {
			few++
		}
		// Every prefix holds the community's share of single-rating agents.
		if want := (i + 1) * 83 / len(single); few != want {
			t.Fatalf("first %d requests hold %d single-rating agents, want %d", i+1, few, want)
		}
	}
	if len(seen) != len(single) {
		t.Fatalf("served %d agents, want %d", len(seen), len(single))
	}
}

func TestCounterGuard(t *testing.T) {
	final := counters{"swrec_engine": {"peers_hit": 3}}
	cr := counterReader{}
	cr.delta(final, final, "swrec_engine.peers_hit")
	cr.delta(final, final, "swrec_engine.results_hit")
	if err := cr.guard(final, nil); err != nil {
		t.Fatalf("an optional key read as 0 failed the guard: %v", err)
	}
	if err := cr.guard(final, []string{"swrec_engine.results_hit"}); err == nil {
		t.Fatal("a key the workload requires went missing without an error")
	}
	cr.delta(final, final, "swrec_engine.swaps")
	if err := cr.guard(final, nil); err == nil {
		t.Fatal("a non-optional key went missing without an error")
	}
	for _, name := range []string{"paper-cold", "bench-hot", "paper-churn"} {
		cfg, _ := workloadConfig(name)
		for _, key := range cfg.counters {
			if !optionalKeys[key] {
				t.Errorf("%s requires %s, which is not an optional key", name, key)
			}
		}
	}
}

func TestOpenPlanWritesAreValid(t *testing.T) {
	active := []int32{0, 1, 2}
	p := openPlan(3, "churn", active, 10, 20, 500, 2*time.Second, 0.5)
	writes := 0
	for _, o := range p.ops {
		if !o.kind.write() {
			continue
		}
		writes++
		if o.kind == opTrust && o.arg == o.agent {
			t.Fatalf("self-trust planned: %+v", o)
		}
		if o.val < -1 || o.val > 1 {
			t.Fatalf("value outside [-1,1]: %+v", o)
		}
	}
	if writes == 0 || writes == len(p.ops) {
		t.Fatalf("%d writes of %d ops, want a mix", writes, len(p.ops))
	}
}

func TestHistMatchesSortedSample(t *testing.T) {
	r := newRNG(42, "hist")
	for _, n := range []int{1, 2, 7, 100, 1000, 4097} {
		h := NewHist(0)
		exact := make([]float64, n)
		for i := range exact {
			v := time.Duration(r.float() * 1e9)
			exact[i] = float64(v)
			h.Add(v)
		}
		sort.Float64s(exact)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			idx := int(math.Ceil(q*float64(n))) - 1
			if idx < 0 {
				idx = 0
			}
			if got := float64(h.Quantile(q)); got != exact[idx] {
				t.Fatalf("n=%d q=%v: got %v, sorted sample says %v", n, q, got, exact[idx])
			}
			if got, want := h.Beyond(q), n-1-idx; got != want {
				t.Fatalf("n=%d q=%v: beyond %d, want %d", n, q, got, want)
			}
		}
	}
}

// miniature shrinks a workload so that it runs in a few seconds.
func miniature(t *testing.T, name string) config {
	cfg, ok := workloadConfig(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	c := datagen.SmallScale()
	c.Agents, c.Products = 120, 200
	cfg.community = c
	cfg.setups, cfg.restarts = 2, 1
	cfg.epiRate, cfg.epiDur = 50, time.Second
	cfg.replay = 4
	// Sub-millisecond cold calls leave the span-sum comparison to timer
	// noise; the paper-scale run checks it.
	cfg.replayMargin = 0
	cfg.planLen = 2048
	cfg.oracleAgents = min(cfg.oracleAgents, 24)
	// A 120-agent community need not reach the ladder's fallbacks or the
	// caches the full-scale workloads require; TestCounterGuard covers
	// the guard itself.
	cfg.counters = nil
	if cfg.open() {
		cfg.active, cfg.rate = 16, 100
	}
	return cfg
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layer []string) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer
}

// names lists the metrics that reach the result line.
func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		if !m.printOnly {
			out = append(out, m.name)
		}
	}
	return out
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	x, y := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(x)
	sort.Strings(y)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func TestMiniatureWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wantE2E, wantLayer := benchmarkNames(t)
	for _, name := range []string{"paper-cold", "bench-hot", "paper-churn"} {
		for _, traced := range []bool{false, true} {
			cfg := miniature(t, name)
			start := time.Now()
			res := run(context.Background(), cfg, 5, time.Second, traced, t.TempDir(), nil, io.Discard)
			if !res.correct || res.failed > 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d problems=%v", name, traced, res.correct, res.failed, res.problems)
			}
			if !sameSet(names(res.e2e), wantE2E) {
				t.Fatalf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", name, names(res.e2e), wantE2E)
			}
			for _, m := range res.e2e {
				if !(m.value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, m.value)
				}
			}
			if traced && !sameSet(names(res.layer), wantLayer) {
				t.Fatalf("%s: per-layer metrics %v, BENCHMARK.json declares %v", name, names(res.layer), wantLayer)
			}
			t.Logf("%s traced=%v: %d attempted in %v", name, traced, res.attempted, time.Since(start).Round(time.Millisecond))
		}
	}
}

func TestPinsAreCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the paper-scale community")
	}
	b, err := os.ReadFile("fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed pins
	if err := json.Unmarshal(b, &committed); err != nil {
		t.Fatal(err)
	}
	cur := currentPins(committed.ReferenceSeed, committed.ReferenceSeconds)
	for name, want := range committed.Communities {
		if got := cur.Communities[name]; got != want {
			t.Errorf("%s community: generated %+v, pinned %+v", name, got, want)
		}
		if got := cur.Plans[name]; got != committed.Plans[name] {
			t.Errorf("%s plan: generated %s, pinned %s", name, got, committed.Plans[name])
		}
	}
}
