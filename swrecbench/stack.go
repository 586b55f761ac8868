package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"swrec/internal/api"
	"swrec/internal/cf"
	"swrec/internal/checkpoint"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
)

// servingOptions is cmd/swrecd's default pipeline: Appleseed, α = 0.5,
// cosine similarity over the taxonomy, no neighborhood gates.
func servingOptions() core.Options {
	return core.Options{
		Alpha: 0.5, AlphaSet: true,
		Metric: core.Appleseed,
		CF:     cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}
}

// engineConfig is cmd/swrecd's default engine configuration.
func engineConfig() engine.Config { return engine.Config{} }

// apiConfig is cmd/swrecd's default API configuration.
func apiConfig() api.Config { return api.Config{} }

// ingestConfig is cmd/swrecd's -wal configuration: compiled checkpoints
// every 64 snapshots, two retained, WAL fsync on. A tracer only adds
// pass-through wrappers at the file seams the program already has.
func ingestConfig(tr *tracer) ingest.Config {
	cfg := ingest.Config{CheckpointEvery: 64, CheckpointRetain: 2}
	if tr != nil {
		cfg.WAL.WrapFile = tr.wrapWAL
		cfg.CheckpointWrap = tr.wrapCheckpoint
	}
	return cfg
}

// corpus indexes the generated community for request building. It is
// the input handed to the program, not program state.
type corpus struct {
	comm     *model.Community
	agents   []model.AgentID
	agentEsc []string
	products []model.ProductID
	prodEsc  []string
	topicEsc []string
	single   []bool // agents with a single rating
}

func newCorpus(comm *model.Community) *corpus {
	c := &corpus{comm: comm, agents: append([]model.AgentID(nil), comm.Agents()...),
		products: append([]model.ProductID(nil), comm.Products()...)}
	for _, a := range c.agents {
		c.agentEsc = append(c.agentEsc, url.PathEscape(string(a)))
		c.single = append(c.single, len(comm.Agent(a).Ratings) == 1)
	}
	for _, p := range c.products {
		c.prodEsc = append(c.prodEsc, url.PathEscape(string(p)))
	}
	if tax := comm.Taxonomy(); tax != nil {
		for _, t := range tax.Topics() {
			c.topicEsc = append(c.topicEsc, url.PathEscape(tax.QualifiedName(t)))
		}
	}
	return c
}

// joinID names the agent a join op creates; seed keeps runs apart.
func joinID(seed int64, n int32) string {
	return fmt.Sprintf("http://swrec.example/people/bench-s%d-j%d", seed, n)
}

// request builds the HTTP request of one op.
func (c *corpus) request(o op, seed int64) *http.Request {
	var method, target, body string
	method = http.MethodGet
	agent := "/v1/agents/" + c.agentEsc[o.agent]
	switch o.kind {
	case opRec:
		target = agent + "/recommendations?n=10"
	case opNeighbors:
		target = agent + "/neighbors?n=25"
	case opProfile:
		target = agent + "/profile"
	case opAgent:
		target = agent
	case opAgents:
		target = "/v1/agents?limit=25&offset=" + strconv.Itoa(int(o.arg))
	case opProduct:
		target = "/v1/products/" + c.prodEsc[o.arg]
	case opTopic:
		target = "/v1/topics/" + c.topicEsc[o.arg] + "?limit=50"
	case opStats:
		target = "/v1/stats"
	case opRate:
		method, target = http.MethodPost, agent+"/ratings"
		body = `{"product":` + strconv.Quote(string(c.products[o.arg])) + `,"value":` + strconv.FormatFloat(o.val, 'g', -1, 64) + `}`
	case opTrust:
		method, target = http.MethodPost, agent+"/trust"
		body = `{"peer":` + strconv.Quote(string(c.agents[o.arg])) + `,"value":` + strconv.FormatFloat(o.val, 'g', -1, 64) + `}`
	case opJoin:
		method, target = http.MethodPost, "/v1/agents"
		body = `{"id":` + strconv.Quote(joinID(seed, o.arg)) + `,"name":"bench joiner"}`
	}
	var r *http.Request
	if body != "" {
		r, _ = http.NewRequest(method, target, strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
	} else {
		r, _ = http.NewRequest(method, target, nil)
	}
	return r
}

// expectStatus is the only status an op may answer with.
func expectStatus(k opKind) int {
	if k.write() {
		return http.StatusAccepted
	}
	return http.StatusOK
}

// recorder is an in-process http.ResponseWriter: the benchmark drives
// api.Server.ServeHTTP directly, so kernel networking noise on a small
// shared machine is not part of what it measures.
type recorder struct {
	hdr    http.Header
	status int
	wrote  bool
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) reset() {
	for k := range r.hdr {
		delete(r.hdr, k)
	}
	r.status, r.wrote = http.StatusOK, false
	r.body.Reset()
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if !r.wrote {
		r.status, r.wrote = code, true
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.body.Write(b)
}

// serve runs one request through h into rec.
func serve(h http.Handler, rec *recorder, req *http.Request) {
	rec.reset()
	h.ServeHTTP(rec, req)
}

// parseSeq reads the WAL sequence number out of a 202 body.
func parseSeq(body []byte) (uint64, bool) {
	i := bytes.Index(body, []byte(`"seq":`))
	if i < 0 {
		return 0, false
	}
	j := i + len(`"seq":`)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	v, err := strconv.ParseUint(string(body[j:k]), 10, 64)
	return v, err == nil
}

// stack is the program as cmd/swrecd assembles it with -wal: engine,
// ingest pipeline over a WAL directory, API server.
type stack struct {
	dir  string
	comm *model.Community // the corpus the program was started from
	tr   *tracer
	eng  *engine.Engine
	pipe *ingest.Pipeline
	srv  *api.Server
}

// setupTimes splits one set-up into its parts.
type setupTimes struct {
	newEng, warm, open time.Duration
}

func (t setupTimes) total() time.Duration { return t.newEng + t.warm + t.open }

// startStack builds the engine over comm, runs warm (which may be nil),
// and opens ingest in dir — the set-up setup_s measures.
func startStack(comm *model.Community, dir string, tr *tracer, warm func(*engine.Engine)) (*stack, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	eng, err := engine.New(comm, servingOptions(), engineConfig())
	if err != nil {
		return nil, t, fmt.Errorf("engine.New: %w", err)
	}
	t1 := time.Now()
	if warm != nil {
		warm(eng)
	}
	t2 := time.Now()
	pipe, err := ingest.Open(eng, dir, ingestConfig(tr))
	if err != nil {
		return nil, t, fmt.Errorf("ingest.Open: %w", err)
	}
	t3 := time.Now()
	t = setupTimes{newEng: t1.Sub(t0), warm: t2.Sub(t1), open: t3.Sub(t2)}
	st := &stack{dir: dir, comm: comm, tr: tr, eng: eng, pipe: pipe}
	st.srv = api.NewWithConfig(eng, st.writer(), apiConfig())
	return st, t, nil
}

// writer is what the API submits through: the pipeline itself, or the
// tracer's pass-through wrapper around it.
func (s *stack) writer() api.Writer {
	if s.tr != nil {
		return &tracedWriter{pipe: s.pipe, tr: s.tr}
	}
	return s.pipe
}

// restartTimes splits one restart into its parts.
type restartTimes struct {
	close, recover, open, firstRead, total time.Duration
	rung                                   int
	replayed                               int
}

// restart is a clean restart: Close (with its final compiled
// checkpoint), checkpoint.Recover, ingest.OpenFrom, then the first
// successful read of probe.
func (s *stack) restart(ctx context.Context, probe *http.Request) (restartTimes, error) {
	var rt restartTimes
	runtime.GC() // each restart starts from the same collector state
	t0 := time.Now()
	if err := s.pipe.Close(); err != nil {
		return rt, fmt.Errorf("ingest close: %w", err)
	}
	t1 := time.Now()
	res, err := checkpoint.Recover(checkpoint.RecoverConfig{
		WALDir:  s.dir,
		Options: servingOptions(),
		Engine:  engineConfig(),
		Corpus:  func() (*model.Community, error) { return s.comm, nil },
	})
	if err != nil {
		return rt, fmt.Errorf("recover: %w", err)
	}
	t2 := time.Now()
	pipe, err := ingest.OpenFrom(res.Engine, s.dir, ingestConfig(s.tr), res.Seq)
	if err != nil {
		return rt, fmt.Errorf("ingest.OpenFrom: %w", err)
	}
	t3 := time.Now()
	s.eng, s.pipe = res.Engine, pipe
	s.srv = api.NewWithConfig(s.eng, s.writer(), apiConfig())
	rec := newRecorder()
	for {
		serve(s.srv, rec, probe.Clone(ctx))
		if rec.status == http.StatusOK {
			break
		}
		if ctx.Err() != nil {
			return rt, fmt.Errorf("first read after restart: status %d", rec.status)
		}
	}
	t4 := time.Now()
	rt = restartTimes{close: t1.Sub(t0), recover: t2.Sub(t1), open: t3.Sub(t2),
		firstRead: t4.Sub(t3), total: t4.Sub(t0), rung: res.Rung, replayed: pipe.Replayed()}
	return rt, nil
}
