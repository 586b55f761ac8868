package main

import (
	"bufio"
	"expvar"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swrec/internal/checkpoint"
	"swrec/internal/ingest"
	"swrec/internal/wal"
)

// span is one timed interval at a layer boundary. Spans of one request
// share the root's id through parent.
type span struct {
	id, parent uint64
	name       string
	start, end int64 // ns since the tracer was created
	bytes      int64
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer keeps spans in memory; they are written out once the run ends.
// Request clients record into their own shard; the pass-through
// wrappers, which run on the program's goroutines, share a locked one.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []span
	shards [][]span

	// parents maps a submitted mutation to the root span of the write
	// request carrying it, so ingest.submit is recorded as its child.
	parents sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }
func (t *tracer) id() uint64            { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// collect hands a client's shard to the tracer.
func (t *tracer) collect(shard []span) {
	t.mu.Lock()
	t.shards = append(t.shards, shard)
	t.mu.Unlock()
}

// all returns every recorded span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for _, sh := range t.shards {
		out = append(out, sh...)
	}
	return out
}

// write stores every span as tab-separated text.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\tbytes")
	for _, s := range t.all() {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mutationKey identifies a submitted mutation for parent lookup.
func mutationKey(m wal.Mutation) string {
	return fmt.Sprintf("%d|%s|%s|%s|%v", m.Op, m.Agent, m.Peer, m.Product, m.Value)
}

// expectParent registers the root span of the write request about to
// submit m.
func (t *tracer) expectParent(m wal.Mutation, id uint64) { t.parents.Store(mutationKey(m), id) }

// tracedWriter is a pass-through api.Writer recording ingest.submit.
type tracedWriter struct {
	pipe *ingest.Pipeline
	tr   *tracer
}

func (w *tracedWriter) Submit(m wal.Mutation) (uint64, error) {
	start := time.Now()
	seq, err := w.pipe.Submit(m)
	end := time.Now()
	var parent uint64
	if v, ok := w.tr.parents.LoadAndDelete(mutationKey(m)); ok {
		parent = v.(uint64)
	}
	w.tr.add(span{id: w.tr.id(), parent: parent, name: "ingest.submit", start: w.tr.ns(start), end: w.tr.ns(end)})
	return seq, err
}

// QueueStats keeps the API's Retry-After derivation unchanged.
func (w *tracedWriter) QueueStats() (depth, capacity int) { return w.pipe.QueueStats() }

// walFile wraps the active WAL segment, recording wal.write and
// wal.sync; the fsync still happens.
type walFile struct {
	wal.File
	tr *tracer
}

func (t *tracer) wrapWAL(f *os.File) wal.File { return &walFile{File: f, tr: t} }

func (f *walFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(b)
	f.tr.add(span{id: f.tr.id(), name: "wal.write", start: f.tr.ns(start), end: f.tr.ns(time.Now()), bytes: int64(n)})
	return n, err
}

func (f *walFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.tr.add(span{id: f.tr.id(), name: "wal.sync", start: f.tr.ns(start), end: f.tr.ns(time.Now())})
	return err
}

// ckptFile wraps one compiled-checkpoint temporary from creation to
// Close, recording checkpoint.write over the write, fsync and close.
type ckptFile struct {
	checkpoint.File
	tr    *tracer
	start time.Time
	bytes int64
}

func (t *tracer) wrapCheckpoint(f *os.File) checkpoint.File {
	return &ckptFile{File: f, tr: t, start: time.Now()}
}

func (f *ckptFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.bytes += int64(n)
	return n, err
}

func (f *ckptFile) Close() error {
	err := f.File.Close()
	f.tr.add(span{id: f.tr.id(), name: "checkpoint.write", start: f.tr.ns(f.start), end: f.tr.ns(time.Now()), bytes: f.bytes})
	return err
}

// counters reads the program's expvar maps. A map or a required key
// that is missing is an error, never a silent 0: the counters may be
// re-homed, and a benchmark reading zeros would report nonsense.
type counters map[string]map[string]int64

// counterMaps are the expvar maps the benchmark reads.
var counterMaps = []string{"swrec_engine", "swrec_ingest", "swrec_recovery", "swrec_strategy"}

// optionalKeys may be absent: the program creates a key on its first
// increment, and each of these reads 0 on at least one workload. A
// workload lists in config.counters the ones it must show, so a key
// that is renamed fails the run there instead of reading 0.
var optionalKeys = map[string]bool{
	"swrec_engine.flight_shared": true, "swrec_engine.carried_peers": true,
	"swrec_engine.carried_results": true, "swrec_engine.carried_profiles": true,
	"swrec_engine.profile_hit": true, "swrec_engine.profile_miss": true, "swrec_engine.results_hit": true,
	"swrec_ingest.replay_records": true, "swrec_strategy.exhausted": true, "swrec_ingest.compiled_checkpoint_skipped": true,
	"swrec_strategy.trust-hop-widening_attempt": true, "swrec_strategy.trust-hop-widening_success": true,
	"swrec_strategy.taxonomy-ancestor_attempt": true, "swrec_strategy.taxonomy-ancestor_success": true,
	"swrec_strategy.popularity_attempt": true, "swrec_strategy.popularity_success": true,
	"swrec_strategy.degraded-cache_attempt": true, "swrec_strategy.degraded-cache_success": true,
}

// requiredKeys must exist at the end of every workload, traced or not:
// the per-layer metrics derive from them, and each is incremented in
// every healthy run.
var requiredKeys = []string{
	"swrec_engine.peers_hit", "swrec_engine.peers_miss", "swrec_engine.results_miss",
	"swrec_engine.swaps", "swrec_engine.swap_delta", "swrec_engine.dirty_agents", "swrec_engine.carried_rows",
	"swrec_strategy.full-synthesis_attempt", "swrec_strategy.full-synthesis_success",
	"swrec_recovery.last_rung",
}

func readCounters() (counters, error) {
	c := counters{}
	for _, name := range counterMaps {
		m, ok := expvar.Get(name).(*expvar.Map)
		if !ok {
			return nil, fmt.Errorf("counter guard: expvar map %q is missing", name)
		}
		vals := map[string]int64{}
		m.Do(func(kv expvar.KeyValue) {
			if iv, ok := kv.Value.(*expvar.Int); ok {
				vals[kv.Key] = iv.Value()
			}
		})
		c[name] = vals
	}
	return c, nil
}

// val returns the counter "map.key", 0 when absent.
func (c counters) val(key string) int64 {
	m, k, _ := strings.Cut(key, ".")
	return c[m][k]
}

// counterReader remembers every key a metric was derived from, so the
// final guard can insist that each of them exists.
type counterReader map[string]bool

// delta is after − before for one key.
func (r counterReader) delta(before, after counters, key string) int64 {
	r[key] = true
	return after.val(key) - before.val(key)
}

// value reads a gauge.
func (r counterReader) value(c counters, key string) int64 {
	r[key] = true
	return c.val(key)
}

// guard fails on any non-optional key read, and on any key of
// required, that the final counters do not hold.
func (r counterReader) guard(final counters, required []string) error {
	need := map[string]bool{}
	for key := range r {
		if !optionalKeys[key] {
			need[key] = true
		}
	}
	for _, key := range required {
		need[key] = true
	}
	var missing []string
	for key := range need {
		if !final.has(key) {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("counter guard: expvar keys missing: %s", strings.Join(missing, ", "))
	}
	return nil
}

// has reports whether the counter "map.key" exists.
func (c counters) has(key string) bool {
	m, k, _ := strings.Cut(key, ".")
	_, ok := c[m][k]
	return ok
}

// absentOptional lists the optional keys the counters do not hold.
func (c counters) absentOptional() []string {
	var out []string
	for key := range optionalKeys {
		if !c.has(key) {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
