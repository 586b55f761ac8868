package main

import (
	"context"
	"net/http"
	"runtime"
	"sort"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/trust"
)

// layers holds what the traced run measures outside the measured phase.
type layers struct {
	warm        *Hist // handler time of cache-hit reads
	appleseed   *Hist
	similarity  *Hist
	synthSelf   *Hist
	vote        *Hist
	cold        *Hist
	engineSelf  []float64 // cold − stage sum, ms; negative when the stages ran slower
	gap         *Hist     // |cold − stage sum| / cold, in ns per ms of cold
	nbSize      []float64
	peersScan   []float64
	defined     []float64
	candidates  []float64
	compile     time.Duration
	arenaMB     float64
	eq3         *Hist
	replayAgree int // replayed answers equal to the cold engine's
	replayed    int
}

func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[(len(s)-1)/2]
}

// traceProbes runs, after the measured phase, the probes that only the
// traced run needs: a sequential pass over cache-hit reads, and a
// stage-by-stage replay of cold reads on a second engine built over the
// serving community — so the replay warms nothing a served request hits.
func (r *runner) traceProbes(ctx context.Context, p plan, reads *loopStats) *layers {
	l := &layers{warm: NewHist(256), appleseed: NewHist(64), similarity: NewHist(64), synthSelf: NewHist(64),
		vote: NewHist(64), cold: NewHist(64), gap: NewHist(64), eq3: NewHist(64)}

	// Cache-hit reads: agents recently served, read twice; the second
	// pass is timed.
	seen := map[int32]bool{}
	var agents []int32
	for i := 0; i < len(p.ops) && i < reads.attempted && len(agents) < 200; i++ {
		if o := p.ops[i]; o.kind == opRec && !seen[o.agent] {
			seen[o.agent] = true
			agents = append(agents, o.agent)
		}
	}
	rec := newRecorder()
	for pass := 0; pass < 2; pass++ {
		before, _ := readCounters()
		for _, a := range agents {
			req := r.c.request(op{kind: opRec, agent: a}, r.seed).WithContext(ctx)
			start := time.Now()
			serve(r.st.srv, rec, req)
			if pass == 1 && rec.status == http.StatusOK {
				l.warm.Add(time.Since(start))
			}
		}
		if pass == 1 {
			after, _ := readCounters()
			r.logf("warm probe: %d reads, %d result-cache misses in the timed pass", len(agents),
				after.val("swrec_engine.results_miss")-before.val("swrec_engine.results_miss"))
		}
	}

	// Stage replay.
	comm := r.st.eng.Snapshot().Community()
	opt := servingOptions()
	eng2, err := engine.New(comm, opt, engineConfig())
	if err != nil {
		r.res.problem("replay engine: %v", err)
		return l
	}
	snap := eng2.Snapshot()
	rc := snap.Recommender()
	f := rc.Filter()
	net := trust.FromCommunity(comm)
	var replay []model.AgentID
	for _, a := range sample(r.seed, "replay", len(r.c.agents), r.cfg.replay) {
		replay = append(replay, r.c.agents[a])
	}
	for i, id := range replay {
		var coldRecs []core.Recommendation
		var cold time.Duration
		engineCall := func() {
			t := time.Now()
			coldRecs, _ = snap.RecommendCtx(ctx, id, 10, engine.Overrides{})
			cold = time.Since(t)
		}
		if i%2 == 1 {
			engineCall()
		}
		t0 := time.Now()
		nb, err := trust.AppleseedCtx(ctx, net, id, opt.Appleseed)
		t1 := time.Now()
		if err != nil {
			r.res.problem("replay appleseed: %v", err)
			return l
		}
		peers, err := rc.SynthesizeCtx(ctx, id, nb)
		t2 := time.Now()
		if err != nil {
			r.res.problem("replay synthesize: %v", err)
			return l
		}
		recs, err := rc.RecommendFromCtx(ctx, id, peers, 10)
		t3 := time.Now()
		if err != nil {
			r.res.problem("replay vote: %v", err)
			return l
		}
		// The similarity scan inside synthesis, timed on its own.
		ids := make([]model.AgentID, len(nb.Ranks))
		for j, rk := range nb.Ranks {
			ids[j] = rk.Agent
		}
		sims := make([]cf.SimResult, len(ids))
		t4 := time.Now()
		_ = f.Similarities(ctx, id, ids, sims)
		sim := time.Since(t4)
		if i%2 == 0 {
			engineCall()
		}
		all, _ := rc.RecommendFromCtx(ctx, id, peers, 0)

		app, synth, vote := t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
		l.appleseed.Add(app)
		l.similarity.Add(sim)
		l.synthSelf.Add(max(synth-sim, 0))
		l.vote.Add(vote)
		l.cold.Add(cold)
		stages := app + synth + vote
		l.engineSelf = append(l.engineSelf, ms(cold-stages))
		diff := cold - stages
		if diff < 0 {
			diff = -diff
		}
		l.gap.Add(time.Duration(float64(diff) / float64(cold) * 1e6))
		def := 0
		for _, s := range sims {
			if s.OK {
				def++
			}
		}
		l.nbSize = append(l.nbSize, float64(len(nb.Ranks)))
		l.peersScan = append(l.peersScan, float64(len(ids)))
		if len(ids) > 0 {
			l.defined = append(l.defined, float64(def)/float64(len(ids)))
		}
		l.candidates = append(l.candidates, float64(len(all)))
		l.replayed++
		if sameRecs(recs, coldRecs) {
			l.replayAgree++
		}
	}
	if l.replayAgree != l.replayed {
		r.res.problem("stage replay: %d of %d answers differ from the cold engine call", l.replayed-l.replayAgree, l.replayed)
	}

	// Compiled similarity substrate and Eq. 3 profiles.
	if tax := comm.Taxonomy(); tax != nil {
		fc, err := cf.New(comm, opt.CF)
		if err == nil {
			t := time.Now()
			err = fc.Compile(ctx)
			l.compile = time.Since(t)
		}
		if err != nil {
			r.res.problem("profmat compile: %v", err)
		} else if mat := fc.Matrix(); mat != nil {
			var bytes int64
			for ord := 0; ord < mat.Len(); ord++ {
				if row := mat.Row(int32(ord)); row != nil {
					bytes += int64(len(row.Keys))*4 + int64(len(row.Vals))*8
				}
			}
			l.arenaMB = float64(bytes) / (1 << 20)
		}
		gen := profile.New(tax)
		for _, id := range replay {
			t := time.Now()
			_, _ = gen.ProfileCtx(ctx, comm.Agent(id), comm)
			l.eq3.Add(time.Since(t))
		}
	}
	runtime.KeepAlive(eng2)
	return l
}

func sameRecs(a, b []core.Recommendation) bool {
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

// metrics derives the per-layer metrics of a traced run.
func (l *layers) metrics(r *runner, setups []setupTimes, restarts []restartTimes, reads *loopStats, writes *openStats,
	before, after, wBefore, wAfter, final counters, m0, m1 runtime.MemStats) []metric {
	cr, tr := r.cr, r.tr
	d := func(key string) int64 { return cr.delta(before, after, key) }
	wd := func(key string) int64 { return cr.delta(wBefore, wAfter, key) }
	var news, warms []time.Duration
	for _, s := range setups {
		news, warms = append(news, s.newEng), append(warms, s.warm)
	}
	var recovers []time.Duration
	replayed := 0
	for _, rt := range restarts {
		recovers = append(recovers, rt.recover)
		replayed += rt.replayed
	}

	// Spans of the write phase.
	win := func(s span) bool { return s.start >= tr.ns(writes.start) && s.end <= tr.ns(writes.end) }
	submits, walWrites, walSyncs := NewHist(1024), NewHist(1024), NewHist(1024)
	writeSelf := NewHist(1024)
	children := map[uint64]span{}
	var roots []span
	var ckpts []span
	for _, s := range tr.all() {
		switch {
		case s.name == "checkpoint.write":
			ckpts = append(ckpts, s)
		case !win(s):
		case s.name == "ingest.submit":
			submits.Add(s.dur())
			if s.parent != 0 {
				children[s.parent] = s
			}
		case s.name == "wal.write":
			walWrites.Add(s.dur())
		case s.name == "wal.sync":
			walSyncs.Add(s.dur())
		case len(s.name) > 10 && s.name[:10] == "api.write_":
			roots = append(roots, s)
		}
	}
	for _, root := range roots {
		if c, ok := children[root.id]; ok {
			writeSelf.Add(root.dur() - c.dur())
		}
	}
	ckptTimes, ckptBytes := NewHist(8), []float64{}
	for _, s := range ckpts {
		ckptTimes.Add(s.dur())
		ckptBytes = append(ckptBytes, float64(s.bytes))
	}

	// Slow-ack attribution: acks above the p99 that overlapped an epoch
	// publish or a checkpoint write.
	p99 := writes.ack.Quantile(0.99)
	var slow, slowSwap, slowCkpt int
	for _, w := range writes.pending {
		if w.at.Sub(w.due) <= p99 {
			continue
		}
		slow++
		for _, pb := range writes.publishes {
			if !pb.at.Before(w.due) && !pb.from.After(w.at) {
				slowSwap++
				break
			}
		}
		for _, s := range ckpts {
			if s.end >= tr.ns(w.due) && s.start <= tr.ns(w.at) {
				slowCkpt++
				break
			}
		}
	}
	gaps := NewHist(16)
	prevPeers := 0
	for i, pb := range writes.publishes {
		prevPeers += pb.prevPeer
		if i > 0 {
			gaps.Add(pb.at.Sub(writes.publishes[i-1].at))
		}
	}

	ladder := []string{"full-synthesis", "trust-hop-widening", "taxonomy-ancestor", "popularity", "degraded-cache"}
	var attempts, successes int64
	for _, p := range ladder {
		attempts += d("swrec_strategy." + p + "_attempt")
		successes += d("swrec_strategy." + p + "_success")
	}
	walks := successes + d("swrec_strategy.exhausted")
	acked := int64(writes.ack.N())
	swapDelta := wd("swrec_engine.swap_delta")
	// Means, not medians: on paper-churn the read median sits between
	// the cache-hit and the cold mode, so the two halves' medians can
	// land in different modes.
	overhead := 0.0
	if u := reads.untraced.Mean(); u > 0 {
		overhead = (float64(reads.traced.Mean())/float64(u) - 1) * 100
	}
	reqs := int64(reads.attempted)

	return []metric{
		{name: "api.warm_us", unit: "us", value: us(l.warm.Quantile(0.5)), n: l.warm.N()},
		{name: "api.allocs_per_req", unit: "count", value: ratio(int64(m1.Mallocs-m0.Mallocs), reqs), n: int(reqs)},
		{name: "api.resp_bytes", unit: "B", value: ratio(reads.respBytes, int64(reads.attempted-reads.failed)), n: reads.attempted},
		{name: "api.write_self_us", unit: "us", value: us(writeSelf.Quantile(0.5)), n: writeSelf.N()},
		{name: "engine.new_ms", unit: "ms", value: ms(median(news)), n: len(news)},
		{name: "engine.warmup_ms", unit: "ms", value: ms(median(warms)), n: len(warms)},
		{name: "engine.cold_ms", unit: "ms", value: ms(l.cold.Quantile(0.5)), n: l.cold.N()},
		{name: "engine.self_ms", unit: "ms", value: medianF(l.engineSelf), n: len(l.engineSelf)},
		{name: "engine.peers_hit_ratio", unit: "ratio", value: ratio(d("swrec_engine.peers_hit"), d("swrec_engine.peers_hit")+d("swrec_engine.peers_miss"))},
		{name: "engine.results_hit_ratio", unit: "ratio", value: ratio(d("swrec_engine.results_hit"), d("swrec_engine.results_hit")+d("swrec_engine.results_miss"))},
		{name: "engine.profile_hit_ratio", unit: "ratio", value: ratio(d("swrec_engine.profile_hit"), d("swrec_engine.profile_hit")+d("swrec_engine.profile_miss"))},
		{name: "engine.flight_shared", unit: "count", value: float64(d("swrec_engine.flight_shared"))},
		{name: "engine.swaps", unit: "count", value: float64(wd("swrec_engine.swaps"))},
		{name: "engine.dirty_agents_per_swap", unit: "count", value: ratio(wd("swrec_engine.dirty_agents"), swapDelta)},
		{name: "engine.carried_peers_ratio", unit: "ratio", value: ratio(wd("swrec_engine.carried_peers"), int64(prevPeers))},
		{name: "engine.carried_rows_ratio", unit: "ratio", value: ratio(wd("swrec_engine.carried_rows"), swapDelta*int64(len(r.c.agents)))},
		{name: "strategy.full_synthesis_share", unit: "ratio", value: ratio(d("swrec_strategy.full-synthesis_success"), successes)},
		{name: "strategy.attempts_per_read", unit: "count", value: ratio(attempts, walks)},
		{name: "trust.appleseed_ms", unit: "ms", value: ms(l.appleseed.Quantile(0.5)), n: l.appleseed.N()},
		{name: "trust.neighborhood_size", unit: "count", value: medianF(l.nbSize), n: len(l.nbSize)},
		{name: "cf.similarities_ms", unit: "ms", value: ms(l.similarity.Quantile(0.5)), n: l.similarity.N()},
		{name: "cf.peers_per_scan", unit: "count", value: medianF(l.peersScan), n: len(l.peersScan)},
		{name: "cf.defined_ratio", unit: "ratio", value: medianF(l.defined), n: len(l.defined)},
		{name: "core.synthesize_self_ms", unit: "ms", value: ms(l.synthSelf.Quantile(0.5)), n: l.synthSelf.N()},
		{name: "core.vote_ms", unit: "ms", value: ms(l.vote.Quantile(0.5)), n: l.vote.N()},
		{name: "core.vote_candidates", unit: "count", value: medianF(l.candidates), n: len(l.candidates)},
		{name: "profmat.compile_ms", unit: "ms", value: ms(l.compile), n: 1},
		{name: "profmat.arena_mb", unit: "MiB", value: l.arenaMB, n: 1},
		{name: "profile.eq3_us", unit: "us", value: us(l.eq3.Quantile(0.5)), n: l.eq3.N()},
		{name: "ingest.submit_p50_ms", unit: "ms", value: ms(submits.Quantile(0.5)), n: submits.N()},
		{name: "ingest.submit_p99_ms", unit: "ms", value: ms(submits.Quantile(0.99)), n: submits.N(), beyond: submits.Beyond(0.99)},
		{name: "ingest.queue_depth_max", unit: "count", value: float64(writes.queueMax)},
		{name: "ingest.writes_per_epoch", unit: "count", value: ratio(acked, int64(len(writes.publishes))), n: len(writes.publishes)},
		{name: "ingest.publish_gap_ms", unit: "ms", value: ms(gaps.Quantile(0.5)), n: gaps.N()},
		{name: "ingest.slow_ack_swap_share", unit: "ratio", value: ratio(int64(slowSwap), int64(slow)), n: slow},
		{name: "ingest.slow_ack_ckpt_share", unit: "ratio", value: ratio(int64(slowCkpt), int64(slow)), n: slow},
		{name: "wal.write_us", unit: "us", value: us(walWrites.Quantile(0.5)), n: walWrites.N()},
		{name: "wal.sync_ms", unit: "ms", value: ms(walSyncs.Quantile(0.5)), n: walSyncs.N()},
		{name: "wal.syncs_per_write", unit: "count", value: ratio(int64(walSyncs.N()), acked), n: int(acked)},
		{name: "wal.replay_records", unit: "count", value: float64(replayed)},
		{name: "checkpoint.write_ms", unit: "ms", value: ms(ckptTimes.Quantile(0.5)), n: ckptTimes.N()},
		{name: "checkpoint.bytes", unit: "B", value: medianF(ckptBytes), n: len(ckptBytes)},
		{name: "checkpoint.recover_ms", unit: "ms", value: ms(median(recovers)), n: len(recovers)},
		{name: "checkpoint.rung", unit: "count", value: float64(cr.value(final, "swrec_recovery.last_rung"))},
		{name: "bench.late_p99_ms", unit: "ms", value: ms(writes.late.Quantile(0.99)), n: writes.late.N(), beyond: writes.late.Beyond(0.99)},
		{name: "bench.trace_overhead_pct", unit: "%", value: overhead, n: reads.traced.N()},
		{name: "bench.replay_gap_ratio", unit: "ratio", value: float64(l.gap.Quantile(0.5)) / 1e6, n: l.gap.N()},
	}
}
