// Package server implements the lofserve HTTP JSON API: fit a model over
// posted data, score out-of-sample query points against the current model,
// and expose health and metrics endpoints. It is stdlib-only and built for
// serving traffic: a concurrency limiter sheds excess load with 429s, every
// request runs under a timeout, and the model is swapped atomically so
// scoring never blocks behind a refit. The request path, error bodies and
// metric registry are the front end it shares with lofcoord
// (internal/front).
//
// Endpoints:
//
//	POST /v1/fit              {"config": {...}, "data": [[...], ...]}
//	POST /v1/score            {"queries": [[...], ...]}; ?mode= full (default),
//	                          pruned (bound-certified fast path), coreset
//	                          (sensitivity-sampled model), degraded (the
//	                          coreset, admitted through the reserve pool
//	                          under load)
//	GET  /v1/model            current model summary
//	POST /v1/shard/snapshot   install a pushed shard partition (octet-stream)
//	POST /v1/shard/candidates per-partition kNN candidates (shard role,
//	                          binary frames)
//	POST /v1/stream/init      create (or replace) the streaming pipeline
//	POST /v1/stream           apply one ingestion batch (inserts/deletes/expiry)
//	POST /v1/stream/score     score queries against the published stream epoch
//	GET  /v1/stream/lofs      stream window IDs and maintained LOF values
//	GET  /v1/stream/stats     stream pipeline counters and epoch shape
//	POST /v1/stream/freeze    refit the stream window into the serving model
//	GET  /healthz             liveness only: 200 whenever the process serves
//	GET  /readyz              readiness: 503 until state is installed, or
//	                          while a snapshot swap is in flight
//	GET  /metrics             Prometheus text format: per-route latency
//	                          histograms, request counts by status code, gauges
//	GET  /v1/debug/traces     recorded trace spans (404 with tracing off)
//
// Every request gets an ID (honoring an inbound X-Request-ID), echoed in
// the X-Request-ID response header, included in error response bodies, and
// attached to the one structured log line emitted per request.
package server

import (
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lof"
	"lof/internal/front"
	"lof/internal/obs"
	"lof/internal/shard"
	"lof/internal/stream"
	"lof/internal/trace"
)

// Config parameterizes a Server. The zero value serves with the defaults
// documented per field.
type Config struct {
	// MaxInFlight bounds concurrently served requests; excess requests are
	// shed immediately with 429. Default 64.
	MaxInFlight int
	// RequestTimeout bounds each request; requests that exceed it receive
	// 503. Default 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies. Default 64 MiB.
	MaxBodyBytes int64
	// MaxBatch bounds the number of query points per score request.
	// Default 100000.
	MaxBatch int
	// CoresetSample sizes the sensitivity-sampled approximate model (see
	// Model.Coreset) maintained alongside each installed model, which
	// answers ?mode=coreset and ?mode=degraded. Zero means 2048; negative
	// disables it, and both modes then answer from the full model.
	CoresetSample int
	// DegradedMaxInFlight sizes the reserve concurrency pool that admits
	// ?mode=degraded and ?mode=coreset score requests after the main limiter
	// is full, so clients that opt into approximate answers are served
	// instead of shed. Default max(4, MaxInFlight/8).
	DegradedMaxInFlight int
	// MaxSnapshotBytes bounds pushed shard snapshots. Default 1 GiB.
	MaxSnapshotBytes int64
	// Logger receives one structured line per request (route, status,
	// duration, batch size, request ID). Nil discards logs.
	Logger *slog.Logger
	// Trace collects distributed-tracing spans for every wrapped request;
	// nil disables tracing (spans become no-ops, /v1/debug/traces answers
	// 404).
	Trace *trace.Collector
	// Now is the server clock, for wall-clock-dependent paths like stream
	// age expiry; nil means time.Now. Tests inject a fake clock here.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 100000
	}
	if c.CoresetSample == 0 {
		c.CoresetSample = 2048
	}
	if c.DegradedMaxInFlight <= 0 {
		c.DegradedMaxInFlight = c.MaxInFlight / 8
		if c.DegradedMaxInFlight < 4 {
			c.DegradedMaxInFlight = 4
		}
	}
	if c.MaxSnapshotBytes <= 0 {
		c.MaxSnapshotBytes = 1 << 30
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// metrics are the server's own families, declared once in the front
// end's registry next to the route and trace families.
type metrics struct {
	inFlight    atomic.Int64 // gauge: requests currently being served
	shed        *atomic.Int64
	scoreModes  map[string]*atomic.Int64 // score responses by the mode that actually served
	certified   *atomic.Int64
	snapshots   *atomic.Int64
	stale       *atomic.Int64
	fitPoints   *atomic.Int64
	scorePoints *atomic.Int64

	streamBatches *atomic.Int64
	streamInserts *atomic.Int64
	streamExpired *atomic.Int64
	streamFreezes *atomic.Int64
}

// Server is the HTTP serving state: the current model plus limits and
// counters. Create with New, expose with Handler.
type Server struct {
	cfg   Config
	model atomic.Pointer[lof.Model]
	// coreset is the sensitivity-sampled approximate model derived at
	// SetModel time; ?mode=coreset and ?mode=degraded serve from it.
	coreset atomic.Pointer[lof.Model]
	// part is the installed shard partition when this process serves as one
	// shard of a scatter-gather tier; version mirrors the snapshot version
	// of the current state (part pushes set it, fits advance it) and is what
	// /readyz reports and shard data requests pin against. swapping gates
	// /readyz to 503 while a snapshot install is in flight; swapMu
	// serializes installs.
	part     atomic.Pointer[shard.Part]
	version  atomic.Uint64
	swapping atomic.Bool
	swapMu   sync.Mutex
	// stream is the online ingestion pipeline (nil until initialized via
	// /v1/stream/init or SetStream); handlers in stream.go serve it.
	stream  atomic.Pointer[stream.Pipeline]
	limiter chan struct{}
	// degradedLimiter is a small reserve pool: when the main limiter is
	// full, score requests that opted into an approximate mode may still be
	// admitted through it, trading accuracy for availability instead of
	// being shed.
	degradedLimiter chan struct{}
	front           *front.Front
	m               metrics
}

// testHookScoreStart, when non-nil, runs at the start of every score
// request after limiter admission. Tests use it to hold requests in flight
// deterministically.
var testHookScoreStart func()

// testHookFitStart, when non-nil, runs at the start of every fit request
// after limiter admission, before the body is decoded. Tests use it to hold
// a fit in flight across a graceful shutdown.
var testHookFitStart func()

// New returns a Server with cfg's limits (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:             cfg,
		limiter:         make(chan struct{}, cfg.MaxInFlight),
		degradedLimiter: make(chan struct{}, cfg.DegradedMaxInFlight),
	}
	s.front = front.New(front.Config{Prefix: "lof_http_", Logger: cfg.Logger, Trace: cfg.Trace, Admit: s.admit})
	s.declareMetrics(s.front.Metrics)
	f := s.front
	f.Handle("POST /v1/fit", s.handleFit)
	f.Handle("POST /v1/score", s.handleScore)
	f.Handle("GET /v1/model", s.handleModel)
	f.Handle("POST /v1/shard/snapshot", s.handleShardSnapshot)
	f.Handle("POST /v1/shard/candidates", s.handleShardCandidates)
	f.Handle("POST /v1/stream/init", s.handleStreamInit)
	f.Handle("POST /v1/stream", s.handleStreamPush)
	f.Handle("POST /v1/stream/score", s.handleStreamScore)
	f.Handle("GET /v1/stream/lofs", s.handleStreamLOFs)
	f.Handle("GET /v1/stream/stats", s.handleStreamStats)
	f.Handle("POST /v1/stream/freeze", s.handleStreamFreeze)
	f.HandleFunc("GET /healthz", s.handleHealthz)
	f.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// SetModel installs m as the serving model, replacing any previous one.
// In-flight requests finish against the model they started with. When
// coreset serving is enabled, a sensitivity-sampled coreset model is
// derived from m — synchronously; the refit is small — and installed
// alongside it; if the derivation fails, approximate requests fall back
// to m rather than erroring.
func (s *Server) SetModel(m *lof.Model) {
	s.model.Store(m)
	// Installing a model is a state change the readiness report must
	// reflect; each install gets a fresh (monotonic, process-local) version.
	s.version.Add(1)
	s.coreset.Store(nil)
	if m == nil || s.cfg.CoresetSample < 0 {
		return
	}
	if c, err := m.Coreset(s.cfg.CoresetSample); err == nil {
		s.coreset.Store(c)
	}
}

// Model returns the current serving model, or nil when none is installed.
func (s *Server) Model() *lof.Model { return s.model.Load() }

// Handler returns the route table behind the shared front end.
func (s *Server) Handler() http.Handler { return s.front }

// now reads the configured server clock (time.Now unless a test injected
// a fake).
func (s *Server) now() time.Time { return s.cfg.Now() }

// admit is the front end's admission hook: concurrency shedding with the
// reserve pool for approximate score requests, in-flight accounting, and
// the request timeout.
func (s *Server) admit(route string, next http.Handler) http.Handler {
	timed := http.TimeoutHandler(next, s.cfg.RequestTimeout, `{"error":"request timed out"}`)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.limiter <- struct{}{}:
			defer func() { <-s.limiter }()
		default:
			// Main limiter full. Score requests that opted into an
			// approximate mode may still enter through the small reserve pool.
			if !s.admitReserve(route, r) {
				s.m.shed.Add(1)
				// A shed is transient by construction — in-flight work drains
				// on the order of the request timeout, so hint a short retry.
				w.Header().Set("Retry-After", "1")
				front.WriteError(w, r, http.StatusTooManyRequests, "server at capacity")
				return
			}
			defer func() { <-s.degradedLimiter }()
		}
		s.m.inFlight.Add(1)
		defer s.m.inFlight.Add(-1)
		timed.ServeHTTP(w, r)
	})
}

// admitReserve takes a reserve-pool slot for a score request that opted
// into an approximate mode, reporting whether it got one.
func (s *Server) admitReserve(route string, r *http.Request) bool {
	if mode := r.URL.Query().Get("mode"); route != "/v1/score" || (mode != front.ModeDegraded && mode != front.ModeCoreset) {
		return false
	}
	select {
	case s.degradedLimiter <- struct{}{}:
		return true
	default:
		return false
	}
}

// --- request/response shapes -------------------------------------------

// FitConfig is the JSON shape of a fit request's configuration; fields
// mirror lof.Config with textual enums.
type FitConfig struct {
	MinPts      int       `json:"minPts,omitempty"`
	MinPtsLB    int       `json:"minPtsLB,omitempty"`
	MinPtsUB    int       `json:"minPtsUB,omitempty"`
	Aggregation string    `json:"aggregation,omitempty"`
	Metric      string    `json:"metric,omitempty"`
	Weights     []float64 `json:"weights,omitempty"`
	Index       string    `json:"index,omitempty"`
	Distinct    bool      `json:"distinct,omitempty"`
	Workers     int       `json:"workers,omitempty"`
}

// Detector translates the JSON configuration into a validated detector.
func (c FitConfig) Detector() (*lof.Detector, error) {
	agg, err := lof.ParseAggregation(c.Aggregation)
	if err != nil {
		return nil, err
	}
	kind, err := lof.ParseIndexKind(c.Index)
	if err != nil {
		return nil, err
	}
	return lof.New(lof.Config{
		MinPts:      c.MinPts,
		MinPtsLB:    c.MinPtsLB,
		MinPtsUB:    c.MinPtsUB,
		Aggregation: agg,
		Metric:      c.Metric,
		Weights:     c.Weights,
		Index:       kind,
		Distinct:    c.Distinct,
		Workers:     c.Workers,
	})
}

// FitRequest is the body of a fit request on either tier.
type FitRequest struct {
	Config FitConfig   `json:"config"`
	Data   [][]float64 `json:"data"`
}

type modelInfo struct {
	Objects  int    `json:"objects"`
	Dims     int    `json:"dims"`
	MinPtsLB int    `json:"minPtsLB"`
	MinPtsUB int    `json:"minPtsUB"`
	Metric   string `json:"metric"`
	Distinct bool   `json:"distinct"`
}

type fitResponse struct {
	modelInfo
	FitMS float64 `json:"fitMillis"`
}

// maxScoreWorkers caps the per-request workers override; a request cannot
// conscript an unbounded number of goroutines.
const maxScoreWorkers = 256

func infoFor(m *lof.Model) modelInfo {
	cfg := m.Config()
	metric := cfg.Metric
	if metric == "" {
		metric = "euclidean"
	}
	if cfg.Weights != nil {
		metric = "weighted-euclidean"
	}
	return modelInfo{
		Objects:  m.Len(),
		Dims:     m.Dim(),
		MinPtsLB: cfg.MinPtsLB,
		MinPtsUB: cfg.MinPtsUB,
		Metric:   metric,
		Distinct: cfg.Distinct,
	}
}

// --- handlers -----------------------------------------------------------

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	if hook := testHookFitStart; hook != nil {
		hook()
	}
	var req FitRequest
	if !front.Decode(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.Data) == 0 {
		front.WriteError(w, r, http.StatusBadRequest, "fit requires a non-empty data array")
		return
	}
	front.SetBatch(r.Context(), len(req.Data))
	det, err := req.Config.Detector()
	if err != nil {
		front.WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	start := time.Now()
	res, err := det.FitContext(r.Context(), req.Data)
	if err != nil {
		if r.Context().Err() != nil {
			// The request deadline expired or the client went away mid-fit;
			// the timeout middleware already answered (or nobody is
			// listening), so just stop burning CPU.
			return
		}
		front.WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	m, err := res.Model()
	if err != nil {
		front.WriteError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	s.SetModel(m)
	s.m.fitPoints.Add(int64(len(req.Data)))
	front.WriteJSON(w, http.StatusOK, fitResponse{
		modelInfo: infoFor(m),
		FitMS:     float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if hook := testHookScoreStart; hook != nil {
		hook()
	}
	mode, ok := front.ScoreMode(w, r)
	if !ok {
		return
	}
	m := s.Model()
	if m == nil {
		front.WriteError(w, r, http.StatusConflict, "no fitted model; POST /v1/fit first or start with -model")
		return
	}
	// served is the mode that actually answers. Approximate modes fall back
	// rather than fail: without a coreset they answer from the full model.
	served := mode
	if mode == front.ModeCoreset || mode == front.ModeDegraded {
		if c := s.coreset.Load(); c != nil {
			m = c
		} else {
			served = front.ModeFull
		}
	}
	var req front.ScoreRequest
	if !front.Decode(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.Queries) == 0 {
		front.WriteError(w, r, http.StatusBadRequest, "score requires a non-empty queries array")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		front.WriteError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	front.SetBatch(r.Context(), len(req.Queries))
	if req.Workers < 0 || req.Workers > maxScoreWorkers {
		front.WriteError(w, r, http.StatusBadRequest,
			fmt.Sprintf("workers must be in [0, %d], got %d", maxScoreWorkers, req.Workers))
		return
	}
	if req.Workers > 0 {
		m = m.WithWorkers(req.Workers)
	}
	// With an active trace span, score against a per-request copy carrying
	// a fresh phase tracer, so core/matdb phase timings become attributes
	// of this request instead of vanishing into the shared model.
	sp := trace.SpanFrom(r.Context())
	if sp != nil {
		m = m.WithTrace()
	}
	var scores []float64
	var certified int
	var err error
	if served == front.ModePruned {
		scores, certified, err = scoreChunkedPruned(r, m, req.Queries)
	} else {
		scores, err = scoreChunked(r, m, req.Queries)
	}
	if err == nil && sp != nil {
		// Phase totals are busy time summed across workers, not intervals
		// inside the request, so they are attributes rather than child spans.
		for _, ph := range m.Stats().Phases {
			key := "phase/" + ph.Name
			sp.SetAttrInt(key+".busy_us", ph.Total.Microseconds())
			sp.SetAttrInt(key+".count", ph.Count)
			sp.SetAttrInt(key+".items", ph.Items)
		}
	}
	if err != nil {
		if r.Context().Err() != nil {
			// The timeout middleware already answered; nothing to write.
			return
		}
		front.WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	s.m.scorePoints.Add(int64(len(req.Queries)))
	s.m.scoreModes[served].Add(1)
	s.m.certified.Add(int64(certified))
	resp := front.ScoreResponse{Scores: front.Floats(scores), Certified: certified}
	if served != front.ModeFull {
		resp.Mode = served
	}
	if served == front.ModePruned {
		sp.SetAttrInt("certified", int64(certified))
	}
	front.WriteJSON(w, http.StatusOK, resp)
}

// scoreChunkSize bounds how much scoring work happens between context
// checks, so a timed-out request stops burning CPU soon after its deadline.
const scoreChunkSize = 256

func scoreChunked(r *http.Request, m *lof.Model, queries [][]float64) ([]float64, error) {
	ctx := r.Context()
	out := make([]float64, 0, len(queries))
	for off := 0; off < len(queries); off += scoreChunkSize {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := off + scoreChunkSize
		if end > len(queries) {
			end = len(queries)
		}
		chunk, err := m.ScoreBatchContext(ctx, queries[off:end])
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			if off == 0 {
				return nil, err
			}
			// Row numbers in the error are chunk-relative; anchor them.
			return nil, fmt.Errorf("batch offset %d: %w", off, err)
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// scoreChunkedPruned is scoreChunked over the bound-certified fast path:
// certified queries answer 1 from the pruning bounds alone, uncertain ones
// are evaluated exactly. Returns the total certified count alongside the
// scores.
func scoreChunkedPruned(r *http.Request, m *lof.Model, queries [][]float64) ([]float64, int, error) {
	ctx := r.Context()
	out := make([]float64, 0, len(queries))
	certified := 0
	for off := 0; off < len(queries); off += scoreChunkSize {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		end := off + scoreChunkSize
		if end > len(queries) {
			end = len(queries)
		}
		chunk, err := m.ScoreBatchPrunedContext(ctx, queries[off:end], 0)
		if err != nil {
			if ctx.Err() != nil || off == 0 {
				return nil, 0, err
			}
			return nil, 0, fmt.Errorf("batch offset %d: %w", off, err)
		}
		out = append(out, chunk.Scores...)
		certified += chunk.Certified
	}
	return out, certified, nil
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	m := s.Model()
	if m == nil {
		front.WriteError(w, r, http.StatusNotFound, "no fitted model")
		return
	}
	front.WriteJSON(w, http.StatusOK, infoFor(m))
}

// handleHealthz is pure liveness: 200 whenever the process is serving,
// regardless of model state. Routing decisions belong to /readyz; the model
// field is reported for operator convenience only.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	front.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"status": "ok",
		"model":  s.Model() != nil,
	})
}

// declareMetrics declares the server's own metric families in reg, after
// the front end's route and trace families.
func (s *Server) declareMetrics(reg *obs.Registry) {
	gauge := func(v func() int64) func() (float64, bool) {
		return func() (float64, bool) { return float64(v()), true }
	}
	reg.Gauge("lof_http_in_flight", "Requests currently being served.", gauge(s.m.inFlight.Load))
	s.m.shed = reg.Counter("lof_http_shed_total", "Requests rejected by the concurrency limiter.")
	s.m.scoreModes = reg.CounterVec("lof_http_score_mode_total", "Score responses by the mode that actually served them.", "mode", front.Modes...)
	s.m.certified = reg.Counter("lof_http_pruned_certified_total", "Pruned-mode queries answered from the bound certificate alone.")
	s.m.snapshots = reg.Counter("lof_shard_snapshots_total", "Shard partition snapshots installed.")
	s.m.stale = reg.Counter("lof_shard_stale_total", "Shard data requests refused for a stale snapshot version.")
	reg.Gauge("lof_snapshot_version", "Version of the installed serving state.", gauge(func() int64 { return int64(s.version.Load()) }))
	s.m.streamBatches = reg.Counter("lof_stream_batches_total", "Stream push batches applied.")
	s.m.streamInserts = reg.Counter("lof_stream_inserts_total", "Points inserted through the stream.")
	s.m.streamExpired = reg.Counter("lof_stream_expired_total", "Points expired by the stream's window bounds.")
	s.m.streamFreezes = reg.Counter("lof_stream_freezes_total", "Stream windows frozen into batch models.")
	// The stream gauges are present only while a pipeline exists.
	streamGauge := func(v func(st stream.Stats) float64) func() (float64, bool) {
		return func() (float64, bool) {
			pl := s.stream.Load()
			if pl == nil {
				return 0, false
			}
			return v(pl.Stats()), true
		}
	}
	reg.Gauge("lof_stream_epoch", "Published stream epoch sequence number.", streamGauge(func(st stream.Stats) float64 { return float64(st.Seq) }))
	reg.Gauge("lof_stream_live", "Live points in the stream window.", streamGauge(func(st stream.Stats) float64 { return float64(st.Live) }))
	reg.Gauge("lof_stream_epoch_lag_seconds", "Seconds since the current stream epoch was published.", streamGauge(func(st stream.Stats) float64 {
		if st.LastPublishUnixNanos <= 0 {
			return 0
		}
		return math.Max(0, s.now().Sub(time.Unix(0, st.LastPublishUnixNanos)).Seconds())
	}))
	reg.Gauge("lof_stream_replay_queue_depth", "In-flight readers pinning the published epoch (writers drain behind them before replay).", streamGauge(func(st stream.Stats) float64 { return float64(st.Readers) }))
	reg.Gauge("lof_stream_window_occupancy", "Fill fraction of the count-bounded stream window (0 when unbounded).", streamGauge(func(st stream.Stats) float64 {
		if st.MaxPoints <= 0 {
			return 0
		}
		return float64(st.Live) / float64(st.MaxPoints)
	}))
	s.m.fitPoints = reg.Counter("lof_fit_points_total", "Data points fitted across all fit requests.")
	s.m.scorePoints = reg.Counter("lof_score_points_total", "Query points scored across all score requests.")
}
