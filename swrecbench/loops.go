package main

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
	"swrec/internal/wal"
)

// env is what a load loop needs besides its plan.
type env struct {
	c    *corpus
	seed int64
	tr   *tracer         // nil in untraced runs
	keep func(o op) bool // oracle sample membership; nil keeps nothing
	eng  func() *engine.Engine
	srv  func() http.Handler
}

// kept is one response the oracle checks after the phase, with the
// engine epochs current just before and after the request.
type kept struct {
	o      op
	sum    uint64 // FNV-64a of the body
	body   []byte // nil when the client already kept a body of this agent and epoch
	epochs [2]uint64
}

// seqMut is an acknowledged write with the WAL sequence number its 202
// carried.
type seqMut struct {
	seq uint64
	m   wal.Mutation
}

// keptKey is an agent within one epoch.
type keptKey struct {
	agent int32
	epoch uint64
}

// loopStats is what one client or executor observed.
type loopStats struct {
	rec, read, ack   *Hist
	traced, untraced *Hist // read latency split by whether a span was recorded
	attempted        int
	failed           int
	failures         []string
	respBytes        int64
	busy             time.Duration // summed time inside ServeHTTP
	kept             []kept
	shard            []span
	pending          []pendingWrite
	bodies           map[keptKey]bool // kept bodies of this client
	muts             []seqMut
	buckets          []int // successful completions per bucket of the phase
}

// bucket is the resolution at which completions are counted.
const bucket = 10 * time.Millisecond

func newLoopStats(capHint int) *loopStats {
	return &loopStats{rec: NewHist(capHint), read: NewHist(capHint), ack: NewHist(capHint / 4),
		traced: NewHist(capHint / 2), untraced: NewHist(capHint / 2), bodies: map[keptKey]bool{}}
}

func (s *loopStats) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

func (s *loopStats) merge(o *loopStats) {
	s.rec.Merge(o.rec)
	s.read.Merge(o.read)
	s.ack.Merge(o.ack)
	s.traced.Merge(o.traced)
	s.untraced.Merge(o.untraced)
	s.attempted += o.attempted
	s.failed += o.failed
	for _, f := range o.failures {
		if len(s.failures) < 5 {
			s.failures = append(s.failures, f)
		}
	}
	s.respBytes += o.respBytes
	s.busy += o.busy
	s.kept = append(s.kept, o.kept...)
	s.pending = append(s.pending, o.pending...)
	s.muts = append(s.muts, o.muts...)
	if len(o.buckets) > len(s.buckets) {
		s.buckets = append(s.buckets, make([]int, len(o.buckets)-len(s.buckets))...)
	}
	for i, n := range o.buckets {
		s.buckets[i] += n
	}
}

// chunkRate splits the phase into ten chunks of equal time and returns
// the median of their completion rates: a throughput that a stall in
// one part of the phase does not drag down.
func (s *loopStats) chunkRate(elapsed time.Duration) float64 {
	n := min(int(elapsed/bucket), len(s.buckets))
	size := n / 10
	if size == 0 { // too short a phase to split: its plain rate
		sum := 0
		for _, k := range s.buckets {
			sum += k
		}
		return float64(sum) / elapsed.Seconds()
	}
	rates := make([]float64, 0, 10)
	for c := 0; c < 10; c++ {
		sum := 0
		for _, k := range s.buckets[c*size : (c+1)*size] {
			sum += k
		}
		rates = append(rates, float64(sum)/(time.Duration(size)*bucket).Seconds())
	}
	return medianF(rates)
}

// pendingWrite is an acknowledged write not yet seen visible.
type pendingWrite struct {
	seq     uint64
	due, at time.Time // scheduled send, 202 received
}

// mutation is the wal.Mutation the API builds for a write op; the trace
// uses it to parent ingest.submit under the request's root span.
func (e *env) mutation(o op) wal.Mutation {
	switch o.kind {
	case opRate:
		return wal.Mutation{Op: wal.OpUpsertRating, Agent: e.c.agents[o.agent], Product: e.c.products[o.arg], Value: o.val}
	case opTrust:
		return wal.Mutation{Op: wal.OpUpsertTrust, Agent: e.c.agents[o.agent], Peer: e.c.agents[o.arg], Value: o.val}
	default:
		return wal.Mutation{Op: wal.OpUpsertAgent, Agent: model.AgentID(joinID(e.seed, o.arg))}
	}
}

// exec sends one op and records it. Latency runs from from: the send
// in a closed loop, the scheduled arrival in an open one. Even-numbered
// requests of a traced run record a root span; odd ones do not, so the
// run measures its own tracing overhead.
func (e *env) exec(st *loopStats, rec *recorder, o op, i int, from, phase time.Time) {
	h := e.srv()
	req := e.c.request(o, e.seed)
	traced := e.tr != nil && i%2 == 0
	var id uint64
	if traced {
		id = e.tr.id()
		if o.kind.write() {
			e.tr.expectParent(e.mutation(o), id)
		}
	}
	keep := e.keep != nil && e.keep(o)
	var k kept
	if keep {
		k.epochs[0] = e.eng().Epoch()
	}
	start := time.Now()
	serve(h, rec, req)
	end := time.Now()
	st.busy += end.Sub(start)
	if traced {
		st.shard = append(st.shard, span{id: id, name: "api." + o.kind.String(), start: e.tr.ns(start), end: e.tr.ns(end)})
	}
	st.attempted++
	lat := end.Sub(from)
	if rec.status != expectStatus(o.kind) {
		st.fail("%s agent %d: status %d: %.200s", o.kind, o.agent, rec.status, rec.body.String())
		return
	}
	st.respBytes += int64(rec.body.Len())
	b := int(end.Sub(phase) / bucket)
	for len(st.buckets) <= b {
		st.buckets = append(st.buckets, 0)
	}
	st.buckets[b]++
	if o.kind.write() {
		seq, ok := parseSeq(rec.body.Bytes())
		if !ok {
			st.fail("%s: no seq in 202 body %q", o.kind, rec.body.String())
			return
		}
		st.ack.Add(lat)
		st.pending = append(st.pending, pendingWrite{seq: seq, due: from, at: end})
		st.muts = append(st.muts, seqMut{seq: seq, m: e.mutation(o)})
		return
	}
	st.read.Add(lat)
	if o.kind == opRec {
		st.rec.Add(lat)
	}
	if e.tr != nil {
		if traced {
			st.traced.Add(end.Sub(start))
		} else {
			st.untraced.Add(end.Sub(start))
		}
	}
	if keep {
		k.epochs[1] = e.eng().Epoch()
		k.o = o
		h := fnv.New64a()
		h.Write(rec.body.Bytes())
		k.sum = h.Sum64()
		key := keptKey{o.agent, k.epochs[0]}
		if k.epochs[0] != k.epochs[1] || !st.bodies[key] {
			k.body = append([]byte(nil), rec.body.Bytes()...)
			if k.epochs[0] == k.epochs[1] {
				st.bodies[key] = true
			}
		}
		st.kept = append(st.kept, k)
	}
}

// runClosed drives the plan with a closed loop of clients for d: each
// client sends its next request only when the previous one answered.
// A cyclic plan wraps around; otherwise the phase also ends when the
// plan is used up.
func (e *env) runClosed(p plan, d time.Duration, clients int, cyclic bool) (*loopStats, time.Duration) {
	if !cyclic && len(p.ops) == 0 {
		return newLoopStats(0), 0
	}
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	all := newLoopStats(0)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newLoopStats(1 << 16)
			rec := newRecorder()
			for {
				i := int(next.Add(1) - 1)
				if !cyclic && i >= len(p.ops) {
					break
				}
				now := time.Now()
				if !now.Before(deadline) {
					break
				}
				e.exec(st, rec, p.ops[i%len(p.ops)], i, now, start)
			}
			mu.Lock()
			all.merge(st)
			mu.Unlock()
			if e.tr != nil {
				e.tr.collect(st.shard)
			}
		}()
	}
	wg.Wait()
	return all, time.Since(start)
}

// publish is one epoch change seen by the dispatcher: it happened after
// from and no later than at.
type publish struct {
	from, at time.Time
	epoch    uint64
	seq      uint64
	prevPeer int // neighborhoods cached in the replaced epoch (traced runs)
}

// openStats is an open-loop phase's outcome.
type openStats struct {
	*loopStats
	late       *Hist
	visible    *Hist
	publishes  []publish
	queueMax   int
	unresolved int
	elapsed    time.Duration
	start, end time.Time         // first send, last write seen visible
	epochSeq   map[uint64]uint64 // every epoch seen, with the last sequence it applied
}

type job struct {
	o   op
	i   int
	due time.Time
}

// runOpen drives a timed plan with one dispatcher (this goroutine) and
// executors workers. The dispatcher sends each request when it is due,
// whether or not earlier ones have answered, and between sends samples
// Pipeline.Applied and QueueStats — so write visibility is observed
// without a poller goroutine of its own. Once the plan is sent it keeps
// sampling until every acknowledged write is visible or settle passes.
func (e *env) runOpen(p plan, pipe func() *ingest.Pipeline, executors int, settle time.Duration) *openStats {
	out := &openStats{loopStats: newLoopStats(0), late: NewHist(len(p.ops)), visible: NewHist(len(p.ops))}
	jobs := make(chan job, len(p.ops)) // one slot per send: the dispatcher never blocks
	var done atomic.Int64
	var mu sync.Mutex // guards pending, shared by executors and the dispatcher
	var pending []pendingWrite
	var wg sync.WaitGroup
	results := make([]*loopStats, executors)
	// Completions are bucketed from phase; the schedule restarts at
	// start, just before the first send.
	phase := time.Now()
	start := phase
	for x := 0; x < executors; x++ {
		st := newLoopStats(len(p.ops))
		results[x] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := newRecorder()
			for j := range jobs {
				n := len(st.pending)
				e.exec(st, rec, j.o, j.i, j.due, phase)
				if len(st.pending) > n {
					mu.Lock()
					pending = append(pending, st.pending[n:]...)
					mu.Unlock()
				}
				done.Add(1)
			}
		}()
	}

	lastEpoch, lastSeq := pipe().Applied()
	out.epochSeq = map[uint64]uint64{lastEpoch: lastSeq}
	lastSample := time.Now()
	observe := func(now time.Time) {
		pl := pipe()
		epoch, seq := pl.Applied()
		if epoch != lastEpoch {
			pb := publish{from: lastSample, at: now, epoch: epoch, seq: seq}
			if e.tr != nil {
				if prev := e.eng().Previous(); prev != nil {
					pb.prevPeer = len(prev.ExportPeers())
				}
			}
			out.publishes = append(out.publishes, pb)
			out.epochSeq[epoch] = seq
			lastEpoch = epoch
		}
		if seq != lastSeq {
			lastSeq = seq
			mu.Lock()
			keep := pending[:0]
			for _, w := range pending {
				if w.seq <= seq {
					out.visible.Add(now.Sub(w.at))
				} else {
					keep = append(keep, w)
				}
			}
			pending = keep
			mu.Unlock()
		}
		if depth, _ := pl.QueueStats(); depth > out.queueMax {
			out.queueMax = depth
		}
		lastSample = now
	}

	start = time.Now()
	out.start = start
	for i, o := range p.ops {
		due := start.Add(o.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		out.late.Add(now.Sub(due))
		jobs <- job{o: o, i: i, due: due}
		observe(now)
	}
	close(jobs)
	sendEnd := time.Now()
	for {
		mu.Lock()
		left := len(pending)
		mu.Unlock()
		if done.Load() == int64(len(p.ops)) && left == 0 {
			break
		}
		if time.Since(sendEnd) > settle {
			break
		}
		time.Sleep(time.Millisecond)
		observe(time.Now())
	}
	wg.Wait()
	out.end = time.Now()
	out.elapsed = sendEnd.Sub(start)
	for _, st := range results {
		out.merge(st)
		if e.tr != nil {
			e.tr.collect(st.shard)
		}
	}
	mu.Lock()
	out.unresolved = len(pending)
	mu.Unlock()
	return out
}
