package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
)

// config is one workload. The defaults are the benchmark's; the
// self-tests shrink them into miniatures.
type config struct {
	name      string
	community datagen.Config
	setups    int // set-ups per run; setup_s is their median
	restarts  int // clean restarts per run; restart_s is their median

	// Warm phase: "" (none), "all" (engine.WarmupCtx) or "active".
	warm   string
	active int // size of the seeded active set

	// Closed loop (paper-cold, bench-hot).
	clients int
	cyclic  bool
	planLen int // bench-hot plan length; the clients cycle over it

	// Open loop (paper-cold and bench-hot use it only for the write
	// epilogue, paper-churn for the whole measured phase).
	rate       float64 // events per second
	writeShare float64
	epiRate    float64       // write epilogue rate of the read-only workloads
	epiDur     time.Duration // write epilogue length
	settle     time.Duration // how long acked writes may take to become visible

	oracleAgents int           // agents whose /recommendations answers are all checked
	replay       int           // cold reads replayed stage by stage in traced runs
	replayMargin float64       // largest share of engine.cold_ms the stage spans may miss (0: not checked)
	slo          time.Duration // read latency limit behind read_slo_met
	counters     []string      // optional expvar keys this workload must show (see optionalKeys)
}

// benchScale is the 400-agent community of BENCH_engine.json's
// agents=400 rows.
func benchScale() datagen.Config {
	c := datagen.SmallScale()
	c.Agents, c.Products = 400, 800
	return c
}

// readSLO is the read latency limit of read_slo_met: ten times the
// cold-pipeline median at paper scale, so a read misses it only when
// it queued behind other work or ran the pipeline more than once.
const readSLO = 250 * time.Millisecond

// cacheHitKeys must show on the workloads that read warmed agents.
var cacheHitKeys = []string{"swrec_engine.results_hit", "swrec_engine.profile_hit", "swrec_engine.profile_miss"}

func workloadConfig(name string) (config, bool) {
	base := config{name: name, setups: 9, restarts: 9, clients: 2,
		epiRate: 120, epiDur: 10 * time.Second, writeShare: 1, settle: 15 * time.Second,
		replay: 24, slo: readSLO}
	switch name {
	case "paper-cold":
		base.community = datagen.PaperScale() // the §4.1 community
		base.oracleAgents = 150
		base.replayMargin = 0.25
		// The taxonomy-ancestor rung serves single-rating agents that
		// full synthesis cannot; trust-hop widening fired on only 7 of
		// 10 seeds, so it is not required.
		base.counters = []string{"swrec_strategy.taxonomy-ancestor_attempt", "swrec_strategy.taxonomy-ancestor_success"}
	case "bench-hot":
		base.community = benchScale()
		base.warm = "all"
		// Set-up and restart take milliseconds at this scale, so their
		// medians need more samples to hold still.
		base.setups, base.restarts = 21, 41
		base.cyclic = true
		base.planLen = 1 << 16
		base.oracleAgents = 12
		base.counters = cacheHitKeys
	case "paper-churn":
		base.community = datagen.PaperScale()
		base.warm = "active"
		base.active = churnActive
		base.rate = churnRate
		// A quarter, not a fifth: at 20% writes, write_ack_p99_ms and
		// visible_p99_ms had only 8-9 samples beyond them.
		base.writeShare = 0.25
		base.oracleAgents = 6
		base.counters = cacheHitKeys
	default:
		return config{}, false
	}
	return base, true
}

// churnActive and churnRate size paper-churn's traffic. Both depart
// from a plain "few hundred agents at half capacity", for steadiness;
// on a two-CPU virtual machine, with 20% writes:
//
//   - With 256 active agents the mix saturated at 150-220 ev/s (rate
//     over the executors' busy share put seeds 2-6 at 147-224). At 88,
//     72 and 56 ev/s, the quartile spread of read_p50_ms across six
//     seeds was 5.2, 0.35 and 0.38 of its median, and of
//     write_ack_p50_ms 35, 1.06 and 0.33: most reads are cold, and
//     queueing behind the ladder's slow fallbacks (up to 0.45 s each)
//     moves the medians with the host's speed.
//   - With 32 active agents the executors were busy 24% of the send
//     window at 300 ev/s, 29% at 1,000 and 52% at 3,200, with no
//     unbounded queueing: the capacity is above 3,200 ev/s. But each
//     swap sends every active agent cold at once, and the reads queued
//     behind that burst grow with the rate: read_slo_met was 0.95 at
//     300, 0.89 at 1,000 and 0.80 at 3,200 ev/s.
//
// So the active set is 32 agents and the rate 220 ev/s, where the
// post-swap cold reads are the tail rather than the median.
const (
	churnActive = 32
	churnRate   = 220
)

// coldPerSecond sizes paper-cold's fixed work: it serves this many
// distinct agents per second of --seconds, or stops at --seconds if the
// program is slower. Every served neighborhood stays cached, so a
// fixed count keeps heap_live_mb from growing with throughput.
const coldPerSecond = 60

// open reports whether the measured phase is the open loop.
func (c config) open() bool { return c.rate > 0 }

// buildPlan makes the measured phase's plan.
func buildPlan(cfg config, seed int64, c *corpus, seconds time.Duration) plan {
	switch {
	case cfg.open():
		return openPlan(seed, "churn", activeSet(cfg, seed, c), len(c.agents), len(c.products), cfg.rate, seconds, cfg.writeShare)
	case cfg.cyclic:
		return hotPlan(seed, len(c.agents), len(c.products), len(c.topicEsc), cfg.planLen)
	default:
		return coldPlan(seed, c.single, coldPerSecond*int(seconds/time.Second))
	}
}

// activeSet is the seeded set of agents the churn workload reads and
// writes, stratified like the cold plan; the other workloads' write
// epilogue draws from every agent.
func activeSet(cfg config, seed int64, c *corpus) []int32 {
	order := stratified(newRNG(seed, "active"), c.single)
	if cfg.active == 0 {
		return order
	}
	return order[:min(cfg.active, len(order))]
}

// communityPin is the fingerprint of a generated community.
type communityPin struct {
	Agents   int    `json:"agents"`
	Products int    `json:"products"`
	Topics   int    `json:"topics"`
	Edges    string `json:"edges"` // hash of every trust and rating statement
}

func fingerprintCommunity(comm *model.Community) communityPin {
	ids := append([]model.AgentID(nil), comm.Agents()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	for _, id := range ids {
		a := comm.Agent(id)
		ts := append([]model.TrustStatement(nil), a.TrustedPeers()...)
		sort.Slice(ts, func(i, j int) bool { return ts[i].Dst < ts[j].Dst })
		for _, t := range ts {
			fmt.Fprintf(h, "t %s %s %v\n", t.Src, t.Dst, t.Value)
		}
		rs := append([]model.RatingStatement(nil), a.RatedProducts()...)
		sort.Slice(rs, func(i, j int) bool { return rs[i].Product < rs[j].Product })
		for _, r := range rs {
			fmt.Fprintf(h, "r %s %s %v\n", r.Agent, r.Product, r.Value)
		}
	}
	pin := communityPin{Agents: comm.NumAgents(), Products: comm.NumProducts(), Edges: hex.EncodeToString(h.Sum(nil))[:16]}
	if tax := comm.Taxonomy(); tax != nil {
		pin.Topics = tax.Len()
	}
	return pin
}

// pins are the committed input fingerprints (fingerprints.json).
type pins struct {
	ReferenceSeed    int64                   `json:"reference_seed"`
	ReferenceSeconds int                     `json:"reference_seconds"`
	Communities      map[string]communityPin `json:"communities"`
	Plans            map[string]string       `json:"plans"`
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	n          int  // samples behind it (0 when not a sample statistic)
	beyond     int  // samples ranked above it, for percentiles
	printOnly  bool // printed, but not in BENCHMARK.json: too noisy across runs to gate
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	e2e, layer        []metric
	problems          []string
	tr                *tracer // spans of a traced run
}

func (r *result) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	return s[(len(s)-1)/2]
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// liveHeapMB is the live heap after two forced GCs. One is not enough:
// the runtime keeps each sync.Pool used since the last collection
// reachable for one more cycle, and through cf.Filter's scratch pool
// that is the filter and the community of an epoch already replaced.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runner carries one run's state between its phases.
type runner struct {
	cfg     config
	seed    int64
	seconds time.Duration
	work    string // scratch directory for WAL directories
	log     io.Writer
	tr      *tracer
	c       *corpus
	st      *stack
	res     *result
	cr      counterReader
}

func (r *runner) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

// run executes one workload end to end: generate, pin, set up, measure,
// write, check, restart, check again.
func run(ctx context.Context, cfg config, seed int64, seconds time.Duration, traced bool, work string, pn *pins, log io.Writer) *result {
	r := &runner{cfg: cfg, seed: seed, seconds: seconds, work: work, log: log,
		res: &result{correct: true}, cr: counterReader{}}
	if traced {
		r.tr = newTracer()
		r.res.tr = r.tr
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		r.res.problem("work dir: %v", err)
		return r.res
	}
	defer os.RemoveAll(work)
	defer func() {
		if r.st != nil {
			_ = r.st.pipe.Abort() // stops the pipeline when a check cut the run short; a no-op after Close
		}
	}()
	if err := r.execute(ctx, pn); err != nil {
		r.res.problem("%v", err)
	}
	return r.res
}

func (r *runner) execute(ctx context.Context, pn *pins) error {
	cfg := r.cfg
	comm, _ := datagen.Generate(cfg.community)
	cp := fingerprintCommunity(comm)
	r.logf("community agents=%d products=%d topics=%d edges=%s", cp.Agents, cp.Products, cp.Topics, cp.Edges)
	r.c = newCorpus(comm)
	p := buildPlan(cfg, r.seed, r.c, r.seconds)
	r.logf("plan %s seed=%d ops=%d fingerprint=%s", cfg.name, r.seed, len(p.ops), p.fp)
	if !cfg.cyclic {
		few, n := 0, 0
		for _, o := range p.ops {
			if !o.kind.write() {
				n++
				if r.c.single[o.agent] {
					few++
				}
			}
		}
		r.logf("plan: %d of %d reads (%.1f%%) are of agents with a single rating", few, n, 100*ratio(int64(few), int64(n)))
	}
	if pn != nil {
		if want, ok := pn.Communities[cfg.name]; !ok || want != cp {
			return fmt.Errorf("input pin: community of %s is %+v, fingerprints.json pins %+v", cfg.name, cp, want)
		}
		ref := buildPlan(cfg, pn.ReferenceSeed, r.c, time.Duration(pn.ReferenceSeconds)*time.Second)
		if want := pn.Plans[cfg.name]; ref.fp != want {
			return fmt.Errorf("input pin: %s plan for reference seed %d is %s, fingerprints.json pins %s",
				cfg.name, pn.ReferenceSeed, ref.fp, want)
		}
		r.logf("input pins ok (reference plan %s)", ref.fp)
	}

	// Set-up, several times; the last stack serves.
	var setups []setupTimes
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		dir := filepath.Join(r.work, fmt.Sprintf("wal%d", i))
		st, t, err := startStack(comm, dir, r.tr, r.warmFunc(ctx))
		if err != nil {
			return err
		}
		setups = append(setups, t)
		if i < cfg.setups-1 {
			if err := st.pipe.Abort(); err != nil {
				return fmt.Errorf("abort set-up %d: %w", i, err)
			}
			os.RemoveAll(dir)
			continue
		}
		r.st = st
	}
	runtime.GC()

	sampled := make([]bool, len(r.c.agents))
	oracleAgents := sample(r.seed, "oracle", len(r.c.agents), cfg.oracleAgents)
	if cfg.open() {
		act := activeSet(cfg, r.seed, r.c)
		oracleAgents = act[:min(cfg.oracleAgents, len(act))]
	}
	for _, a := range oracleAgents {
		sampled[a] = true
	}
	e := &env{c: r.c, seed: r.seed, tr: r.tr,
		keep: func(o op) bool { return o.kind == opRec && sampled[o.agent] },
		eng:  func() *engine.Engine { return r.st.eng },
		srv:  func() http.Handler { return r.st.srv },
	}

	// Measured phase.
	before, err := readCounters()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var reads *loopStats
	var writes *openStats
	var elapsed time.Duration
	epochSeq := map[uint64]uint64{}
	if epoch, seq := r.st.pipe.Applied(); !cfg.open() {
		epochSeq[epoch] = seq
	}
	if cfg.open() {
		writes = e.runOpen(p, func() *ingest.Pipeline { return r.st.pipe }, cfg.clients, cfg.settle)
		reads, elapsed = writes.loopStats, writes.elapsed
	} else {
		reads, elapsed = e.runClosed(p, r.seconds, cfg.clients, cfg.cyclic)
	}
	runtime.ReadMemStats(&m1)
	after, err := readCounters()
	if err != nil {
		return err
	}
	if cfg.open() {
		epochSeq = writes.epochSeq
		// The executors' share of the send window spent inside
		// ServeHTTP; the mix's capacity is about rate / busy.
		busy := reads.busy.Seconds() / (float64(cfg.clients) * elapsed.Seconds())
		r.logf("open loop: executors busy %.1f%% of the send window at %.0f ev/s, capacity of this mix about %.0f ev/s",
			100*busy, cfg.rate, cfg.rate/busy)
	}
	// Derive the read metrics now and drop the raw samples, so the live
	// heap below is the program's, not the benchmark's bookkeeping.
	completed := reads.attempted - reads.failed
	// A closed loop's rate is the median over ten equal-time chunks of
	// the phase; an open loop completes what its schedule offers.
	throughput := float64(completed) / elapsed.Seconds()
	if !cfg.open() {
		throughput = reads.chunkRate(elapsed)
	}
	readAttempts := reads.read.N() + reads.failed
	withinSLO := reads.read.N() - reads.read.CountAbove(cfg.slo)
	sloMet := ratio(int64(withinSLO), int64(readAttempts))
	readMetrics := []metric{
		pct("rec_p50_ms", reads.rec, 0.50), tail(pct("rec_p99_ms", reads.rec, 0.99)),
		pct("read_p50_ms", reads.read, 0.50), tail(pct("read_p99_ms", reads.read, 0.99)),
	}
	r.logf("read latency q25 %.3f ms, q50 %.3f ms, q75 %.3f ms", ms(reads.read.Quantile(0.25)), ms(reads.read.Quantile(0.5)), ms(reads.read.Quantile(0.75)))
	reads.rec, reads.read, reads.buckets = nil, nil, nil
	// The open loop ends anywhere within an epoch, and the engine keeps
	// the previous epoch's caches. One more write, sent once every write
	// of the phase is visible, retires the epoch the phase's last reads
	// filled, so the live heap does not depend on where the phase ended.
	var flush *openStats
	if cfg.open() {
		flush = e.runOpen(openPlan(r.seed, "flush", activeSet(cfg, r.seed, r.c), len(r.c.agents), len(r.c.products), 1, time.Second, 1),
			func() *ingest.Pipeline { return r.st.pipe }, cfg.clients, cfg.settle)
	}
	heapLive := liveHeapMB()
	// peak_rss_mb is the whole process's peak, read at the end. On
	// paper-churn the oracle's from-scratch rebuilds set it; the serving
	// peak logged here is bimodal across seeds there, by whether the 32
	// active agents include one the ladder sends to a fallback that
	// allocates 60-120 MiB per read.
	r.logf("peak RSS up to the end of the measured phase: %.1f MiB", peakRSSMB())

	// Write phase: the churn workload's writes are part of its measured
	// phase; the read-only workloads get a write epilogue.
	wBefore, wAfter := before, after
	if !cfg.open() {
		if wBefore, err = readCounters(); err != nil {
			return err
		}
		ep := openPlan(r.seed, "epilogue", activeSet(cfg, r.seed, r.c), len(r.c.agents), len(r.c.products),
			cfg.epiRate, cfg.epiDur, 1)
		e.keep = nil
		writes = e.runOpen(ep, func() *ingest.Pipeline { return r.st.pipe }, cfg.clients, cfg.settle)
		if wAfter, err = readCounters(); err != nil {
			return err
		}
	}
	r.logf("dispatcher lateness p50 %.3f ms, p99 %.3f ms", ms(writes.late.Quantile(0.5)), ms(writes.late.Quantile(0.99)))
	r.res.attempted += reads.attempted
	r.res.failed += reads.failed
	if !cfg.open() {
		r.res.attempted += writes.attempted
		r.res.failed += writes.failed
	}
	for _, f := range append(reads.failures, writes.failures...) {
		r.logf("failure: %s", f)
	}
	if flush != nil {
		r.res.attempted += flush.attempted
		r.res.failed += flush.failed
		for _, f := range flush.failures {
			r.res.problem("flush write: %s", f)
		}
		writes.unresolved += flush.unresolved
		reads.muts = append(reads.muts, flush.muts...)
	}
	if writes.unresolved > 0 {
		r.res.failed += writes.unresolved
		r.res.problem("%d acknowledged writes never became visible within %v", writes.unresolved, cfg.settle)
	}

	// Output oracle, outside every timed phase.
	muts := reads.muts
	if !cfg.open() {
		muts = append(muts, writes.muts...)
	}
	hist := newHistory(comm, muts)
	var rep oracleReport
	checkKept(r.c, hist, epochSeq, reads.kept, &rep)

	var lay *layers
	if r.tr != nil {
		lay = r.traceProbes(ctx, p, reads)
	}

	// Clean restarts; sampled answers must survive them unchanged.
	probeAgents := oracleAgents[:min(8, len(oracleAgents))]
	pre, err := probeAnswers(ctx, r.st.srv, r.c, r.seed, probeAgents)
	if err != nil {
		return err
	}
	r.res.attempted += len(probeAgents)
	probeReq := r.c.request(op{kind: opRec, agent: probeAgents[0]}, r.seed)
	var restarts []restartTimes
	rctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for i := 0; i < cfg.restarts; i++ {
		rt, err := r.st.restart(rctx, probeReq)
		if err != nil {
			return err
		}
		r.res.attempted++
		if rt.rung != 1 {
			r.res.failed++
			r.res.problem("restart %d: checkpoint.Recover landed on rung %d, want 1", i, rt.rung)
		}
		restarts = append(restarts, rt)
	}
	post, err := probeAnswers(ctx, r.st.srv, r.c, r.seed, probeAgents)
	if err != nil {
		return err
	}
	r.res.attempted += len(probeAgents)
	finalComm, err := hist.at(hist.last())
	if err != nil {
		return err
	}
	finalRec, err := core.New(finalComm, servingOptions())
	if err != nil {
		return err
	}
	for _, a := range probeAgents {
		if !sameItems(pre[a], post[a]) {
			rep.miss("agent %d: answer changed across the restart", a)
		}
		if post[a].Strategy.Procedure != "full-synthesis" {
			rep.skipped++
			continue
		}
		want, err := finalRec.Recommend(r.c.agents[a], 10)
		rep.checked++
		if err != nil || !matches(post[a], want) {
			rep.miss("agent %d: answer after restart differs from core.New(...).Recommend", a)
		}
	}
	final, err := readCounters()
	if err != nil {
		return err
	}
	if err := r.st.pipe.Close(); err != nil {
		return fmt.Errorf("final close: %w", err)
	}
	r.res.attempted += rep.checked
	r.res.failed += rep.mismatches
	r.logf("oracle: %d answers checked, %d from other strategy rungs skipped, %d mismatches", rep.checked, rep.skipped, rep.mismatches)
	for _, n := range rep.notes {
		r.logf("oracle miss: %s", n)
	}
	if rep.mismatches > 0 {
		r.res.problem("%d answers failed the output oracle", rep.mismatches)
	}
	if rep.checked == 0 {
		r.res.problem("the output oracle checked no answer")
	}
	if reads.failed > 0 || writes.failed > 0 {
		r.res.problem("%d requests failed", reads.failed+writes.failed)
	}

	// End-to-end metrics.
	var setupTotals, restartTotals []time.Duration
	for _, s := range setups {
		setupTotals = append(setupTotals, s.total())
	}
	for _, rt := range restarts {
		restartTotals = append(restartTotals, rt.total)
	}
	r.res.e2e = []metric{
		{name: "setup_s", unit: "s", value: median(setupTotals).Seconds(), n: len(setupTotals)},
		{name: "throughput_rps", unit: "req/s", value: throughput, n: completed},
		readMetrics[0], readMetrics[1], readMetrics[2], readMetrics[3],
		{name: "read_slo_met", unit: "ratio", value: sloMet, n: readAttempts},
		pct("write_ack_p50_ms", writes.ack, 0.50), tail(pct("write_ack_p99_ms", writes.ack, 0.99)),
		pct("visible_p50_ms", writes.visible, 0.50), pct("visible_p99_ms", writes.visible, 0.99),
		{name: "restart_s", unit: "s", value: median(restartTotals).Seconds(), n: len(restartTotals)},
		{name: "heap_live_mb", unit: "MiB", value: heapLive, n: 1},
		{name: "peak_rss_mb", unit: "MiB", value: peakRSSMB(), n: 1},
	}
	r.logf("read_slo_miss %.6f ratio (limit %v, %d of %d reads)", 1-sloMet, cfg.slo, readAttempts-withinSLO, readAttempts)
	if lay != nil && cfg.replayMargin > 0 {
		if g := float64(lay.gap.Quantile(0.5)) / 1e6; g > cfg.replayMargin {
			r.res.problem("stage replay: spans miss engine.cold_ms by %.0f%%, margin %.0f%%", g*100, cfg.replayMargin*100)
		}
	}
	if lay != nil {
		r.res.layer = lay.metrics(r, setups, restarts, reads, writes, before, after, wBefore, wAfter, final, m0, m1)
	}
	r.logf("counters: optional keys absent at the end: %s", strings.Join(final.absentOptional(), " "))
	if err := r.cr.guard(final, append(requiredKeys, cfg.counters...)); err != nil {
		return err
	}
	return nil
}

// pct reports a percentile of h in milliseconds with its support.
func pct(name string, h *Hist, q float64) metric {
	return metric{name: name, unit: "ms", value: ms(h.Quantile(q)), n: h.N(), beyond: h.Beyond(q)}
}

// tail marks a p99 as printed but not gated. On paper-churn the p99s
// of reads and write acks sit in the recompute bursts after epoch
// swaps; across seeds their quartile spread was 0.4-1.6 of the median
// on a two-CPU virtual machine, beyond any bound BENCHMARK.json allows.
func tail(m metric) metric {
	m.printOnly = true
	return m
}

// warmFunc is the workload's warm phase, run between engine.New and
// ingest.Open.
func (r *runner) warmFunc(ctx context.Context) func(*engine.Engine) {
	switch r.cfg.warm {
	case "all":
		return func(eng *engine.Engine) { eng.WarmupCtx(ctx, 0) }
	case "active":
		act := activeSet(r.cfg, r.seed, r.c)
		return func(eng *engine.Engine) { warmAgents(ctx, eng, r.c, act, r.cfg.clients) }
	}
	return nil
}

// warmAgents fills the engine's caches for the given agents through the
// public snapshot calls the API serves from: the recommendation list
// the workload asks for (which caches the neighborhood) and the Eq. 3
// profile.
func warmAgents(ctx context.Context, eng *engine.Engine, c *corpus, agents []int32, workers int) {
	snap := eng.Snapshot()
	next := make(chan int32)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for a := range next {
				id := c.agents[a]
				_, _ = snap.RecommendCtx(ctx, id, 10, engine.Overrides{})
				_, _ = snap.ProfileCtx(ctx, id)
			}
			done <- struct{}{}
		}()
	}
	for _, a := range agents {
		next <- a
	}
	close(next)
	for w := 0; w < workers; w++ {
		<-done
	}
}
