// Command swrecbench is swrec's benchmark. It runs one workload against
// the real serving stack — api → engine → strategy → core/trust/cf/
// profmat/profile on the read side, api → ingest → wal →
// engine.SwapDelta → checkpoint on the write side — built exactly as
// cmd/swrecd builds it with -wal and its default flags, and drives
// api.Server.ServeHTTP in-process.
//
//	bash swrecbench/run.sh --workload paper-cold|bench-hot|paper-churn \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans at the program's existing seams and prints the
// per-layer metrics. Human-readable lines come first; the last line of
// standard output is one JSON object. It exits non-zero when an output
// oracle, an input pin or a counter guard fails.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"swrec/internal/datagen"
)

func main() {
	workload := flag.String("workload", "", "paper-cold | bench-hot | paper-churn")
	seed := flag.Int64("seed", 1, "workload seed: the request plan, the active set and the samples")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	root := flag.String("root", ".", "repository checkout; results and traces go to its .bench_build")
	printPins := flag.Bool("print-pins", false, "print the input fingerprints of every workload (the content of fingerprints.json) and exit")
	flag.Parse()

	if *printPins {
		b, _ := json.MarshalIndent(currentPins(1, 20), "", "  ")
		fmt.Println(string(b))
		return
	}

	cfg, ok := workloadConfig(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "swrecbench: usage: --workload paper-cold|bench-hot|paper-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	pn, err := loadPins(filepath.Join(*root, "swrecbench", "fingerprints.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "swrecbench:", err)
		os.Exit(1)
	}
	out := filepath.Join(*root, ".bench_build")
	traced := *trace == 1
	fmt.Printf("swrecbench workload=%s seed=%d seconds=%d trace=%d\n", cfg.name, *seed, *seconds, *trace)
	work := filepath.Join(out, "work", fmt.Sprintf("%s-%d", cfg.name, os.Getpid()))
	res := run(context.Background(), cfg, *seed, time.Duration(*seconds)*time.Second, traced, work, pn, os.Stdout)

	printMetrics("end-to-end", res.e2e)
	if traced {
		if err := res.tr.write(filepath.Join(out, "traces", fmt.Sprintf("%s-s%d.tsv", cfg.name, *seed))); err != nil {
			res.problem("writing spans: %v", err)
		}
		printMetrics("per-layer", res.layer)
		printOverhead(filepath.Join(out, "results", cfg.name+".jsonl"), buildID(), *seed, res.e2e)
	} else if res.correct {
		storeResult(filepath.Join(out, "results", cfg.name+".jsonl"), buildID(), *seed, res.e2e)
	}
	errRate := ratio(int64(res.failed), int64(res.attempted))
	fmt.Printf("error_rate %.6f ratio (failed %d of attempted %d)\n", errRate, res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Println("FAIL:", p)
	}

	report := res.e2e
	if traced {
		report = res.layer
	}
	metrics := map[string]any{}
	for _, m := range report {
		if !m.printOnly {
			metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": max(res.attempted, 1), "failed": res.failed, "metrics": metrics,
	})
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

// currentPins computes every workload's input fingerprints.
func currentPins(refSeed int64, refSeconds int) pins {
	p := pins{ReferenceSeed: refSeed, ReferenceSeconds: refSeconds,
		Communities: map[string]communityPin{}, Plans: map[string]string{}}
	for _, name := range []string{"paper-cold", "bench-hot", "paper-churn"} {
		cfg, _ := workloadConfig(name)
		comm, _ := datagen.Generate(cfg.community)
		p.Communities[name] = fingerprintCommunity(comm)
		p.Plans[name] = buildPlan(cfg, refSeed, newCorpus(comm), time.Duration(refSeconds)*time.Second).fp
	}
	return p
}

func loadPins(path string) (*pins, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("input pins: %w", err)
	}
	var p pins
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("input pins %s: %w", path, err)
	}
	return &p, nil
}

func printMetrics(kind string, ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("%s %-32s %14.6f %-6s n=%d", kind, m.name, m.value, m.unit, m.n)
		if m.beyond > 0 || strings.Contains(m.name, "p99") {
			line += fmt.Sprintf(" beyond=%d", m.beyond)
		}
		if m.printOnly {
			line += " (printed, not gated)"
		}
		fmt.Println(line)
	}
}

// buildID identifies the running binary by a hash of its file, so
// stored runs of an earlier build are never compared with this one.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// storedRun is one untraced run's end-to-end metrics.
type storedRun struct {
	Build   string             `json:"build"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

// storeResult appends an untraced run's end-to-end metrics, so a later
// traced run of the same build and seed can report its overhead
// against them.
func storeResult(path, build string, seed int64, ms []metric) {
	rec := storedRun{Build: build, Seed: seed, Metrics: map[string]float64{}}
	for _, m := range ms {
		rec.Metrics[m.name] = m.value
	}
	b, _ := json.Marshal(rec)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintln(f, string(b))
}

// printOverhead compares a traced run's end-to-end metrics with the
// median of the stored untraced runs of the same build and seed.
func printOverhead(path, build string, seed int64, ms []metric) {
	vals := map[string][]float64{}
	if b, err := os.ReadFile(path); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			var rec storedRun
			if json.Unmarshal([]byte(line), &rec) == nil && build != "" && rec.Build == build && rec.Seed == seed {
				for k, v := range rec.Metrics {
					vals[k] = append(vals[k], v)
				}
			}
		}
	}
	if len(vals) == 0 {
		fmt.Printf("trace overhead: no untraced run of this build with seed %d stored yet\n", seed)
		return
	}
	for _, m := range ms {
		base := vals[m.name]
		if len(base) == 0 {
			continue
		}
		sort.Float64s(base)
		med := base[(len(base)-1)/2]
		over := math.NaN()
		if med != 0 {
			over = (m.value/med - 1) * 100
		}
		fmt.Printf("trace overhead %-24s traced %.6f untraced median %.6f (%d runs) %+.1f%%\n", m.name, m.value, med, len(base), over)
	}
}
