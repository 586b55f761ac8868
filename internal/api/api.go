// Package api exposes the recommender over a JSON HTTP API — the
// deployment surface a §4-style installation offers its own user
// interface once the crawler has materialized a community. The server is
// a thin handler layer over internal/engine: every request pins one
// immutable snapshot, so responses are consistent even while a
// background crawler publishes updated views via Engine.Swap. Read
// endpoints:
//
//	GET /v1/healthz                        serving status: epoch, counts, uptime
//	GET /v1/metrics                        expvar (engine cache + request counters)
//	GET /v1/stats                          community + taxonomy statistics
//	GET /v1/strategies                     the configured strategy ladder
//	GET /v1/agents?offset=0&limit=25       agent directory by trust out-degree
//	GET /v1/agents/{uri}                   one agent's statements
//	GET /v1/agents/{uri}/neighbors?n=25&metric=&alpha=&measure=&strategy=
//	GET /v1/agents/{uri}/profile?n=15      top taxonomy interests
//	GET /v1/agents/{uri}/recommendations?n=10&novel=1&theta=0.4&metric=&alpha=&measure=&strategy=
//	GET /v1/products/{id}                  catalog entry
//	GET /v1/topics/{path}?offset=0&limit=50  products in a taxonomy branch
//
// A server built with NewWritable additionally accepts first-party
// mutations through the durable ingest pipeline (internal/ingest); a
// server built with New stays read-only and answers 405 to every write:
//
//	POST   /v1/agents                      {"id", "name"} upsert an agent
//	POST   /v1/agents/{uri}/trust          {"peer", "value"} assert trust in [-1,1]
//	DELETE /v1/agents/{uri}/trust?peer=    retract a trust edge
//	POST   /v1/agents/{uri}/ratings        {"product", "value"} rate in [-1,1]
//	DELETE /v1/agents/{uri}/ratings?product=  retract a rating
//
// Writes are validated against the pinned snapshot (rating targets must
// be cataloged products or checksum-valid urn:isbn: URNs), appended to
// the write-ahead log, and acknowledged with 202 Accepted and the
// assigned WAL sequence number once durable. Visibility is at the next
// epoch swap, so a read-after-write may briefly see the previous state;
// a full ingest queue fails fast with 503 overloaded.
//
// Agent URIs and product IDs arrive URL-escaped in the path.
//
// Responses use a uniform envelope (the breaking v1 revision noted in
// CHANGES.md): errors are {"error": {"code", "message"}} with
// machine-readable codes (invalid_argument, not_found, no_taxonomy,
// method_not_allowed, internal); list-shaped responses are
// {"items": [...], "total": N} with real offset/limit pagination on
// /v1/agents and /v1/topics/{path}.
//
// Per-request pipeline overrides on neighbors and recommendations —
// metric=appleseed|advogato|pathtrust|none, alpha=[0,1],
// measure=pearson|cosine — are validated eagerly (400 invalid_argument)
// and served from override-specific engine caches.
//
// Neighbors and recommendations are answered through the engine's
// strategy ladder (internal/strategy): every response carries a
// "strategy" provenance block naming the procedure that produced it,
// the full rung attempt trace, and the answering epoch. The strategy=
// parameter pins one rung (strategy=popularity) or excludes rungs
// (strategy=-popularity,-degraded-cache), validated like the other
// overrides; GET /v1/strategies lists the configured ladder. A degraded
// answer is marked in the same block (strategy.degraded, .source,
// .epoch).
package api

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"encoding/json"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
	"swrec/internal/strategy"
	"swrec/internal/taxonomy"
	"swrec/internal/wal"
)

// apiStats aggregates request counters across all servers in the
// process, published as "swrec_api" (requests, request_ns, status_NNN).
var apiStats = expvar.NewMap("swrec_api")

// httpStats breaks the request counters down per endpoint class,
// published as "swrec_http". Keys are <endpoint>_requests,
// <endpoint>_errors (status ≥ 500), and one disjoint latency bucket
// <endpoint>_le_1ms | _le_10ms | _le_100ms | _le_1s | _gt_1s per
// request (le_10ms counts service times in (1ms, 10ms], not a
// cumulative histogram). The endpoint classes match the load harness's
// endpoint names, so a BENCH_load.json report can be cross-checked
// against /v1/metrics counts.
var httpStats = expvar.NewMap("swrec_http")

// endpointClass maps one request onto its swrec_http counter family.
// It mirrors the mux plus handleAgentSubtree's suffix routing (the ID
// segment of /v1/agents/{id} is an escaped URI, so the subtree action
// is the suffix of the escaped path).
func endpointClass(method, escapedPath string) string {
	switch escapedPath {
	case "/v1/healthz":
		return "healthz"
	case "/v1/metrics":
		return "metrics"
	case "/v1/stats":
		return "stats"
	case "/v1/strategies":
		return "strategies"
	case "/v1/agents":
		if method == http.MethodPost {
			return "write_join"
		}
		return "agents"
	}
	switch {
	case strings.HasPrefix(escapedPath, "/v1/agents/"):
		rest := strings.TrimPrefix(escapedPath, "/v1/agents/")
		switch {
		case strings.HasSuffix(rest, "/recommendations"):
			return "recommendations"
		case strings.HasSuffix(rest, "/neighbors"):
			return "neighbors"
		case strings.HasSuffix(rest, "/profile"):
			return "profile"
		case strings.HasSuffix(rest, "/trust"):
			if method == http.MethodDelete {
				return "delete_trust"
			}
			return "write_trust"
		case strings.HasSuffix(rest, "/ratings"):
			if method == http.MethodDelete {
				return "delete_rating"
			}
			return "write_rating"
		}
		return "agent"
	case strings.HasPrefix(escapedPath, "/v1/products/"):
		return "product"
	case strings.HasPrefix(escapedPath, "/v1/topics/"):
		return "topic"
	}
	return "other"
}

// latencyBucket picks the one swrec_http bucket suffix d falls in.
func latencyBucket(d time.Duration) string {
	switch {
	case d <= time.Millisecond:
		return "le_1ms"
	case d <= 10*time.Millisecond:
		return "le_10ms"
	case d <= 100*time.Millisecond:
		return "le_100ms"
	case d <= time.Second:
		return "le_1s"
	default:
		return "gt_1s"
	}
}

// Writer is the slice of the ingest pipeline the API needs: durable
// acknowledgement of one validated mutation. *ingest.Pipeline satisfies
// it; tests may substitute fakes.
type Writer interface {
	Submit(m wal.Mutation) (uint64, error)
}

// QueueReporter is the optional Writer extension the overload path uses
// to derive a Retry-After hint from the actual backlog instead of a
// constant. *ingest.Pipeline satisfies it.
type QueueReporter interface {
	QueueStats() (depth, capacity int)
}

// Config tunes the server's resilience behavior.
type Config struct {
	// ReadBudget caps the server-side computation time of every read
	// request, compounding with whatever deadline the client's own
	// context carries (the tighter of the two wins). A request that
	// misses the budget gets a degraded cached answer when one exists,
	// else 504 deadline_exceeded. 0 means only the client's context
	// bounds the request.
	ReadBudget time.Duration
}

// Server is the HTTP handler layer over one serving engine.
type Server struct {
	eng    *engine.Engine
	writer Writer // nil = read-only surface
	cfg    Config
	mux    *http.ServeMux
}

// New creates a read-only API server over an already validated engine.
func New(eng *engine.Engine) *Server { return NewWithConfig(eng, nil, Config{}) }

// NewWritable creates the API server with the write endpoints backed by
// w (normally the *ingest.Pipeline). A nil w yields a read-only server.
func NewWritable(eng *engine.Engine, w Writer) *Server { return NewWithConfig(eng, w, Config{}) }

// NewWithConfig creates the API server with explicit resilience
// configuration.
func NewWithConfig(eng *engine.Engine, w Writer, cfg Config) *Server {
	s := &Server{eng: eng, writer: w, cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/strategies", s.handleStrategies)
	s.mux.HandleFunc("/v1/agents", s.handleAgents)
	s.mux.HandleFunc("/v1/agents/", s.handleAgentSubtree)
	s.mux.HandleFunc("/v1/products/", s.handleProduct)
	s.mux.HandleFunc("/v1/topics/", s.handleTopic)
	return s
}

// statusRecorder captures the status code for request accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler, instrumenting every request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		s.mux.ServeHTTP(rec, r)
	case http.MethodPost, http.MethodDelete:
		if s.writer == nil {
			writeError(rec, http.StatusMethodNotAllowed, "method_not_allowed", "read-only API")
		} else {
			s.mux.ServeHTTP(rec, r)
		}
	default:
		writeError(rec, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("method %s not supported", r.Method))
	}
	elapsed := time.Since(start)
	apiStats.Add("requests", 1)
	apiStats.Add("request_ns", elapsed.Nanoseconds())
	apiStats.Add(fmt.Sprintf("status_%d", rec.status), 1)

	ep := endpointClass(r.Method, r.URL.EscapedPath())
	httpStats.Add(ep+"_requests", 1)
	if rec.status >= 500 {
		httpStats.Add(ep+"_errors", 1)
	}
	httpStats.Add(ep+"_"+latencyBucket(elapsed), 1)
}

// requestCtx derives the context bounding one read request: the
// client's own context (disconnect, client-set deadline) tightened by
// the server's ReadBudget when one is configured.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.ReadBudget > 0 {
		return context.WithTimeout(r.Context(), s.cfg.ReadBudget)
	}
	return r.Context(), func() {}
}

// deadlineHit reports whether err means the request ran out of time
// rather than failing on its own terms.
func deadlineHit(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// requireRead rejects write methods on read-only endpoints. With a
// writer configured the global gate admits POST/DELETE, so each read
// handler applies this guard.
func requireRead(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
		fmt.Sprintf("%s does not accept %s", r.URL.Path, r.Method))
	return false
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireRead(w, r) {
		return
	}
	expvar.Handler().ServeHTTP(w, r)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// page is the uniform list envelope. Offset/Limit echo the effective
// pagination window; endpoints without windowed pagination omit them.
// Strategy is the provenance block of ladder-answered endpoints
// (neighbors, recommendations): the procedure that produced the answer,
// the rung attempt trace, and the answering epoch — including the
// degraded marker when the bottom rung served from a previous-epoch
// cache.
type page struct {
	Items    any              `json:"items"`
	Total    int              `json:"total"`
	Offset   *int             `json:"offset,omitempty"`
	Limit    *int             `json:"limit,omitempty"`
	Strategy *strategy.Result `json:"strategy,omitempty"`
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	var body errorBody
	body.Error.Code, body.Error.Message = code, msg
	_ = json.NewEncoder(w).Encode(body)
}

// writeList emits the items envelope without a pagination window. All
// provenance-carrying responses route through here (res non-nil), so the
// strategy block is attached in exactly one place.
func writeList(w http.ResponseWriter, items any, total int, res *strategy.Result) {
	writeJSON(w, page{Items: items, Total: total, Strategy: res})
}

// writePage emits the items envelope with its pagination window.
func writePage(w http.ResponseWriter, items any, total, offset, limit int) {
	writeJSON(w, page{Items: items, Total: total, Offset: &offset, Limit: &limit})
}

// intParam parses a non-negative integer query parameter. A malformed or
// negative value is a validation error, not a silent default.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%s must be a non-negative integer, got %q", name, v)
	}
	return n, nil
}

// pageParams reads the offset/limit pagination window. limit = 0 means
// "no cap" and pages to the end.
func pageParams(r *http.Request, defLimit int) (offset, limit int, err error) {
	if offset, err = intParam(r, "offset", 0); err != nil {
		return 0, 0, err
	}
	if limit, err = intParam(r, "limit", defLimit); err != nil {
		return 0, 0, err
	}
	return offset, limit, nil
}

// window applies the pagination window to a slice of length n, returning
// the clamped [lo, hi) bounds.
func window(n, offset, limit int) (lo, hi int) {
	if offset > n {
		offset = n
	}
	hi = n
	if limit > 0 && offset+limit < n {
		hi = offset + limit
	}
	return offset, hi
}

// overrides parses the per-request pipeline override parameters shared
// by the neighbors and recommendations endpoints.
func parseOverrides(r *http.Request) (engine.Overrides, error) {
	var ov engine.Overrides
	q := r.URL.Query()
	if v := q.Get("metric"); v != "" {
		var m core.Metric
		switch v {
		case "appleseed":
			m = core.Appleseed
		case "advogato":
			m = core.Advogato
		case "pathtrust":
			m = core.PathTrust
		case "none":
			m = core.NoTrust
		default:
			return ov, fmt.Errorf("metric must be appleseed|advogato|pathtrust|none, got %q", v)
		}
		ov.Metric = &m
	}
	if v := q.Get("alpha"); v != "" {
		a, err := strconv.ParseFloat(v, 64)
		if err != nil || a < 0 || a > 1 {
			return ov, fmt.Errorf("alpha must be in [0,1], got %q", v)
		}
		ov.Alpha = &a
	}
	if v := q.Get("measure"); v != "" {
		var m cf.Measure
		switch v {
		case "pearson":
			m = cf.Pearson
		case "cosine":
			m = cf.Cosine
		default:
			return ov, fmt.Errorf("measure must be pearson|cosine, got %q", v)
		}
		ov.Measure = &m
	}
	switch v := q.Get("novel"); v {
	case "", "0":
	case "1":
		c := core.NovelCategories
		ov.Content = &c
	default:
		return ov, fmt.Errorf("novel must be 0 or 1, got %q", v)
	}
	return ov, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireRead(w, r) {
		return
	}
	snap := s.eng.Snapshot()
	comm := snap.Community()
	writeJSON(w, map[string]any{
		"status":        "ok",
		"epoch":         snap.Epoch(),
		"agents":        comm.NumAgents(),
		"products":      comm.NumProducts(),
		"uptimeSeconds": s.eng.Uptime().Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireRead(w, r) {
		return
	}
	snap := s.eng.Snapshot()
	comm := snap.Community()
	type stats struct {
		Epoch     uint64          `json:"epoch"`
		Community model.Stats     `json:"community"`
		Taxonomy  *taxonomy.Stats `json:"taxonomy,omitempty"`
	}
	out := stats{Epoch: snap.Epoch(), Community: comm.ComputeStats()}
	if tax := comm.Taxonomy(); tax != nil {
		ts := tax.ComputeStats()
		out.Taxonomy = &ts
	}
	writeJSON(w, out)
}

// handleStrategies lists the configured strategy ladder in rung order:
// each entry carries the procedure name, its declarative precondition,
// and whether the rung is enabled. Clients use the names here to build
// `strategy=` selector overrides.
func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	if !requireRead(w, r) {
		return
	}
	rungs := s.eng.Ladder().Rungs()
	writeList(w, rungs, len(rungs), nil)
}

// agentSummary is the list view of one agent.
type agentSummary struct {
	ID       model.AgentID `json:"id"`
	Name     string        `json:"name,omitempty"`
	TrustOut int           `json:"trustOut"`
	Ratings  int           `json:"ratings"`
}

func summarize(comm *model.Community, id model.AgentID) agentSummary {
	a := comm.Agent(id)
	return agentSummary{ID: id, Name: a.Name,
		TrustOut: len(a.Trust), Ratings: len(a.Ratings)}
}

func (s *Server) handleAgents(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.serveUpsertAgent(w, r)
		return
	}
	if !requireRead(w, r) {
		return
	}
	offset, limit, err := pageParams(r, 25)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	snap := s.eng.Snapshot()
	ids := snap.AgentsByTrustOut()
	lo, hi := window(len(ids), offset, limit)
	items := make([]agentSummary, 0, hi-lo)
	for _, id := range ids[lo:hi] {
		items = append(items, summarize(snap.Community(), id))
	}
	writePage(w, items, len(ids), offset, limit)
}

// handleAgentSubtree routes
// /v1/agents/{uri}[/neighbors|/profile|/recommendations|/trust|/ratings].
func (s *Server) handleAgentSubtree(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.EscapedPath(), "/v1/agents/")
	var action string
	for _, suffix := range []string{"/neighbors", "/profile", "/recommendations", "/trust", "/ratings"} {
		if strings.HasSuffix(rest, suffix) {
			action = suffix[1:]
			rest = strings.TrimSuffix(rest, suffix)
			break
		}
	}
	uri, err := url.PathUnescape(rest)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "malformed agent URI")
		return
	}
	snap := s.eng.Snapshot()
	id := model.AgentID(uri)
	a := snap.Community().Agent(id)
	if a == nil {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("unknown agent %s", uri))
		return
	}
	switch action {
	case "trust", "ratings":
		s.serveWrite(w, r, snap, id, action)
		return
	}
	if !requireRead(w, r) {
		return
	}
	switch action {
	case "neighbors":
		s.serveNeighbors(w, r, snap, id)
	case "profile":
		s.serveProfile(w, r, snap, id)
	case "recommendations":
		s.serveRecommendations(w, r, snap, id)
	default:
		type agentDetail struct {
			agentSummary
			Trust   []model.TrustStatement  `json:"trust"`
			Ratings []model.RatingStatement `json:"ratingStatements"`
		}
		writeJSON(w, agentDetail{
			agentSummary: summarize(snap.Community(), id),
			Trust:        a.TrustedPeers(),
			Ratings:      a.RatedProducts(),
		})
	}
}

// parseSelector validates the strategy= per-request ladder override
// against the engine's configured ladder.
func (s *Server) parseSelector(r *http.Request) (strategy.Selector, error) {
	return strategy.ParseSelector(r.URL.Query().Get("strategy"), s.eng.Ladder())
}

func (s *Server) serveNeighbors(w http.ResponseWriter, r *http.Request, snap *engine.Snapshot, id model.AgentID) {
	ov, err := parseOverrides(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	sel, err := s.parseSelector(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	n, err := intParam(r, "n", 25)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	peers, res, err := s.eng.RankedPeersLadder(ctx, snap, id, ov, sel)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	total := len(peers)
	if n > 0 && len(peers) > n {
		peers = peers[:n]
	}
	if peers == nil {
		peers = []core.PeerRank{}
	}
	writeList(w, peers, total, res)
}

func (s *Server) serveProfile(w http.ResponseWriter, r *http.Request, snap *engine.Snapshot, id model.AgentID) {
	n, err := intParam(r, "n", 15)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	prof, err := snap.ProfileCtx(ctx, id)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	tax := snap.Community().Taxonomy()
	type topicScore struct {
		Topic string  `json:"topic"`
		Score float64 `json:"score"`
	}
	items := make([]topicScore, 0, n)
	for _, e := range prof.TopK(n) {
		items = append(items, topicScore{
			Topic: tax.QualifiedName(taxonomy.Topic(e.Key)),
			Score: e.Value,
		})
	}
	writeList(w, items, len(prof), nil)
}

func (s *Server) serveRecommendations(w http.ResponseWriter, r *http.Request, snap *engine.Snapshot, id model.AgentID) {
	ov, err := parseOverrides(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	n, err := intParam(r, "n", 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	theta := 0.0
	if v := r.URL.Query().Get("theta"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			writeError(w, http.StatusBadRequest, "invalid_argument", "theta must be in [0,1]")
			return
		}
		theta = f
	}
	// With diversification, rank a deeper candidate pool first.
	fetchN := n
	if theta > 0 && n > 0 {
		fetchN = n * 5
	}
	sel, err := s.parseSelector(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	recs, res, err := s.eng.RecommendLadder(ctx, snap, id, fetchN, ov, sel)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	if theta > 0 {
		rec, err := snap.RecommenderFor(ov)
		if err != nil {
			writeEngineError(w, err)
			return
		}
		recs = rec.Diversify(recs, n, theta)
	}
	type recOut struct {
		core.Recommendation
		Title string `json:"title,omitempty"`
	}
	items := make([]recOut, 0, len(recs))
	for _, rc := range recs {
		ro := recOut{Recommendation: rc}
		if p := snap.Community().Product(rc.Product); p != nil {
			ro.Title = p.Title
		}
		items = append(items, ro)
	}
	writeList(w, items, len(items), res)
}

func (s *Server) handleProduct(w http.ResponseWriter, r *http.Request) {
	if !requireRead(w, r) {
		return
	}
	rest := strings.TrimPrefix(r.URL.EscapedPath(), "/v1/products/")
	idRaw, err := url.PathUnescape(rest)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "malformed product ID")
		return
	}
	snap := s.eng.Snapshot()
	p := snap.Community().Product(model.ProductID(idRaw))
	if p == nil {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("unknown product %s", idRaw))
		return
	}
	type productOut struct {
		ID     model.ProductID `json:"id"`
		Title  string          `json:"title,omitempty"`
		ISBN   string          `json:"isbn,omitempty"`
		Topics []string        `json:"topics,omitempty"`
	}
	out := productOut{ID: p.ID, Title: p.Title, ISBN: p.ISBN}
	if tax := snap.Community().Taxonomy(); tax != nil {
		for _, d := range p.Topics {
			out.Topics = append(out.Topics, tax.QualifiedName(d))
		}
	}
	writeJSON(w, out)
}

// handleTopic browses a taxonomy branch: products whose descriptors fall
// into the topic (by qualified path, root name included) or below it,
// served from the snapshot's per-branch cache and paged with
// offset/limit.
func (s *Server) handleTopic(w http.ResponseWriter, r *http.Request) {
	if !requireRead(w, r) {
		return
	}
	snap := s.eng.Snapshot()
	tax := snap.Community().Taxonomy()
	if tax == nil {
		writeError(w, http.StatusConflict, "no_taxonomy", "community has no taxonomy")
		return
	}
	rest := strings.TrimPrefix(r.URL.EscapedPath(), "/v1/topics/")
	path, err := url.PathUnescape(rest)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "malformed topic path")
		return
	}
	offset, limit, err := pageParams(r, 50)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	d, ok := tax.Lookup(path)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("unknown topic %s", path))
		return
	}
	pids := snap.Subtree(d)
	total := len(pids)
	lo, hi := window(total, offset, limit)
	type entry struct {
		ID    model.ProductID `json:"id"`
		Title string          `json:"title,omitempty"`
	}
	type topicPage struct {
		Topic  string  `json:"topic"`
		Items  []entry `json:"items"`
		Total  int     `json:"total"`
		Offset int     `json:"offset"`
		Limit  int     `json:"limit"`
	}
	out := topicPage{Topic: tax.QualifiedName(d), Total: total, Offset: offset, Limit: limit,
		Items: make([]entry, 0, hi-lo)}
	for _, pid := range pids[lo:hi] {
		e := entry{ID: pid}
		if p := snap.Community().Product(pid); p != nil {
			e.Title = p.Title
		}
		out.Items = append(out.Items, e)
	}
	writeJSON(w, out)
}

// maxWriteBody bounds write request bodies; mutations are tiny.
const maxWriteBody = 1 << 16

// accepted is the 202 envelope for durable write acknowledgements.
type accepted struct {
	Status string `json:"status"`
	Seq    uint64 `json:"seq"`
}

// decodeBody strictly parses a small JSON request body into dst.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxWriteBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument",
			fmt.Sprintf("malformed request body: %v", err))
		return false
	}
	return true
}

// submit validates the mutation against the pinned snapshot, hands it to
// the ingest pipeline, and acknowledges durability with 202 and the
// assigned WAL sequence number.
func (s *Server) submit(w http.ResponseWriter, snap *engine.Snapshot, m wal.Mutation) {
	if err := ingest.ValidateIn(snap.Community(), m); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	seq, err := s.writer.Submit(m)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(accepted{Status: "accepted", Seq: seq})
}

// serveWrite handles POST/DELETE /v1/agents/{uri}/{trust|ratings}.
func (s *Server) serveWrite(w http.ResponseWriter, r *http.Request, snap *engine.Snapshot, id model.AgentID, action string) {
	switch {
	case r.Method == http.MethodPost && action == "trust":
		var body struct {
			Peer  model.AgentID `json:"peer"`
			Value float64       `json:"value"`
		}
		if !decodeBody(w, r, &body) {
			return
		}
		s.submit(w, snap, wal.Mutation{Op: wal.OpUpsertTrust, Agent: id, Peer: body.Peer, Value: body.Value})
	case r.Method == http.MethodDelete && action == "trust":
		peer := r.URL.Query().Get("peer")
		if peer == "" {
			writeError(w, http.StatusBadRequest, "invalid_argument", "peer query parameter required")
			return
		}
		s.submit(w, snap, wal.Mutation{Op: wal.OpDeleteTrust, Agent: id, Peer: model.AgentID(peer)})
	case r.Method == http.MethodPost && action == "ratings":
		var body struct {
			Product model.ProductID `json:"product"`
			Value   float64         `json:"value"`
		}
		if !decodeBody(w, r, &body) {
			return
		}
		s.submit(w, snap, wal.Mutation{Op: wal.OpUpsertRating, Agent: id, Product: body.Product, Value: body.Value})
	case r.Method == http.MethodDelete && action == "ratings":
		product := r.URL.Query().Get("product")
		if product == "" {
			writeError(w, http.StatusBadRequest, "invalid_argument", "product query parameter required")
			return
		}
		s.submit(w, snap, wal.Mutation{Op: wal.OpDeleteRating, Agent: id, Product: model.ProductID(product)})
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s does not accept %s", r.URL.Path, r.Method))
	}
}

// serveUpsertAgent handles POST /v1/agents.
func (s *Server) serveUpsertAgent(w http.ResponseWriter, r *http.Request) {
	var body struct {
		ID   model.AgentID `json:"id"`
		Name string        `json:"name"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	s.submit(w, s.eng.Snapshot(), wal.Mutation{Op: wal.OpUpsertAgent, Agent: body.ID, Name: body.Name})
}

// retryAfter derives the Retry-After hint from the writer's queue
// backlog: an almost-empty queue suggests a transient spike (retry in
// 1s), a saturated one a real backlog (up to 8s). Writers that don't
// report queue depth get the conservative 1s.
func (s *Server) retryAfter() string {
	qr, ok := s.writer.(QueueReporter)
	if !ok {
		return "1"
	}
	depth, capacity := qr.QueueStats()
	if capacity <= 0 {
		return "1"
	}
	secs := 1 + (7*depth+capacity/2)/capacity
	if secs > 8 {
		secs = 8
	}
	return strconv.Itoa(secs)
}

// writeSubmitError maps ingest pipeline errors onto the error envelope.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ingest.ErrInvalid):
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
	case errors.Is(err, ingest.ErrOverloaded):
		w.Header().Set("Retry-After", s.retryAfter())
		writeError(w, http.StatusServiceUnavailable, "overloaded", "ingest queue full, retry later")
	case errors.Is(err, ingest.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "unavailable", "write pipeline is shut down")
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// writeEngineError maps engine/core errors onto the error envelope.
func writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrUnknownAgent):
		writeError(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, engine.ErrNoTaxonomy):
		writeError(w, http.StatusConflict, "no_taxonomy", err.Error())
	case deadlineHit(err):
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded",
			"request deadline exceeded before the computation finished")
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}
