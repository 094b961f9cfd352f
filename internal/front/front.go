// Package front is the HTTP front end lofserve and lofcoord share. Every
// API route registered through Handle runs one request path: a request ID
// (an inbound X-Request-ID of at most 128 bytes is honoured, and the ID is
// echoed), a request span that continues an inbound traceparent, the
// server's admission hook, per-route latency histograms and status counts,
// the slowest traced request as an exemplar, and one structured log line.
// The helpers give both tiers one error body (always carrying the request
// ID), one JSON body decoder, one non-finite float encoding and one set of
// score modes. The route and trace metric families are declared once, in
// the front end's registry, which each server extends with its own
// families and serves from /metrics.
package front

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lof/internal/obs"
	"lof/internal/trace"
)

// Config parameterizes a Front.
type Config struct {
	// Prefix starts the names of the route metric families, for example
	// "lof_http_" for lof_http_requests_total.
	Prefix string
	// Logger receives one line per request; nil writes none.
	Logger *slog.Logger
	// Trace collects the request spans; nil disables tracing (spans become
	// no-ops and /v1/debug/traces answers 404).
	Trace *trace.Collector
	// Admit, when set, wraps every route's handler once at registration and
	// runs inside the request span: the place for a server's concurrency
	// limits and request timeout. It answers a shed request itself.
	Admit func(route string, next http.Handler) http.Handler
}

// Front is the shared request path and route table. It serves /metrics
// from Metrics and /v1/debug/traces from the collector, unwrapped, so both
// stay readable while admission sheds API traffic.
type Front struct {
	cfg    Config
	mux    *http.ServeMux
	routes []*route
	// Metrics holds the route and trace families; the server declares its
	// own families after them.
	Metrics *obs.Registry
}

// New returns a Front with an empty route table and the route and trace
// metric families declared.
func New(cfg Config) *Front {
	f := &Front{cfg: cfg, mux: http.NewServeMux(), Metrics: &obs.Registry{}}
	f.declareMetrics()
	f.mux.Handle("GET /metrics", f.Metrics)
	f.mux.Handle("GET /v1/debug/traces", trace.DebugHandler(cfg.Trace))
	return f
}

// ServeHTTP dispatches to the registered routes.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// HandleFunc registers h on pattern without the request path: for probes
// that must answer whatever admission decides.
func (f *Front) HandleFunc(pattern string, h http.HandlerFunc) { f.mux.HandleFunc(pattern, h) }

// Handle registers h on pattern ("METHOD /path") through the request path.
// Route metrics are written in registration order.
func (f *Front) Handle(pattern string, h http.HandlerFunc) {
	_, path, _ := strings.Cut(pattern, " ")
	rt := &route{name: path, latency: obs.NewHistogram(obs.DefaultLatencyBuckets), byCode: make(map[int]int64)}
	f.routes = append(f.routes, rt)
	var next http.Handler = h
	if f.cfg.Admit != nil {
		next = f.cfg.Admit(path, next)
	}
	f.mux.Handle(pattern, f.wrap(rt, next))
}

// requestInfo is the per-request record the context carries: the ID for
// error bodies and the log line, and the batch size a handler reports.
// Batch is atomic because the handler may run on a timeout goroutine while
// the request path reads it after the timeout.
type requestInfo struct {
	id    string
	batch atomic.Int64
}

type infoKey struct{}

// SetBatch records the request's batch size for its span and log line.
func SetBatch(ctx context.Context, n int) {
	if info, ok := ctx.Value(infoKey{}).(*requestInfo); ok {
		info.batch.Store(int64(n))
	}
}

// statusWriter records the response status code. It sits outside any
// timeout handler the admission hook adds, which serializes writes onto
// the serving goroutine, so no lock is needed.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (f *Front) wrap(rt *route, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := &requestInfo{id: trace.IncomingRequestID(r)}
		ctx := trace.ContextWithRequestID(context.WithValue(r.Context(), infoKey{}, info), info.id)
		sp, ctx := f.cfg.Trace.StartRequest(ctx, "http "+rt.name, r.Header.Get(trace.Header))
		sp.SetAttr("route", rt.name)
		sp.SetAttr("requestId", info.id)
		w.Header().Set(trace.RequestIDHeader, info.id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK // the handler wrote nothing; net/http sends 200
		}
		batch := info.batch.Load()
		sp.SetAttrInt("status", int64(status))
		if batch > 0 {
			sp.SetAttrInt("batch", batch)
		}
		level := slog.LevelInfo
		switch {
		case status >= 500:
			level = slog.LevelError
			sp.SetError(fmt.Sprintf("status %d", status))
		case status == http.StatusTooManyRequests:
			level = slog.LevelWarn
			sp.SetError("shed: server at capacity")
		}
		sp.End() // from span start, so it covers every child span
		rt.record(status, elapsed, sp.TraceIDString())
		if f.cfg.Logger != nil {
			f.cfg.Logger.LogAttrs(ctx, level, "request",
				slog.String("requestId", info.id),
				slog.String("route", rt.name),
				slog.Int("status", status),
				slog.Duration("duration", elapsed),
				slog.Int64("batch", batch))
		}
	})
}

// route is one route's observability: a latency histogram, request counts
// by status code, and the slowest traced latency with its trace ID — the
// exemplar that links the histogram's top bucket to /v1/debug/traces.
type route struct {
	name    string
	latency *obs.Histogram

	mu        sync.Mutex
	byCode    map[int]int64
	slowest   time.Duration
	slowTrace string
}

func (rt *route) record(code int, d time.Duration, traceID string) {
	rt.latency.Observe(d)
	rt.mu.Lock()
	rt.byCode[code]++
	if d > rt.slowest && traceID != "" {
		rt.slowest, rt.slowTrace = d, traceID
	}
	rt.mu.Unlock()
}

func (f *Front) declareMetrics() {
	p := f.cfg.Prefix
	f.Metrics.Family(p+"requests_total", "counter", "Completed HTTP requests by route and status code.", func(pw *obs.PromWriter) {
		for _, rt := range f.routes {
			rt.mu.Lock()
			codes := make([]int, 0, len(rt.byCode))
			for c := range rt.byCode {
				codes = append(codes, c)
			}
			sort.Ints(codes)
			counts := make([]int64, len(codes))
			for i, c := range codes {
				counts[i] = rt.byCode[c]
			}
			rt.mu.Unlock()
			for i, c := range codes {
				pw.IntSample(p+"requests_total", counts[i], "route", rt.name, "code", strconv.Itoa(c))
			}
		}
	})
	f.Metrics.Family(p+"request_duration_seconds", "histogram", "HTTP request latency by route.", func(pw *obs.PromWriter) {
		for _, rt := range f.routes {
			pw.Histo(p+"request_duration_seconds", rt.latency.Snapshot(), "route", rt.name)
		}
	})
	f.Metrics.Family(p+"slowest_request_seconds", "gauge", "Slowest traced request per route, with its trace ID — the exemplar linking the latency histogram's top bucket to /v1/debug/traces.", func(pw *obs.PromWriter) {
		for _, rt := range f.routes {
			rt.mu.Lock()
			d, tid := rt.slowest, rt.slowTrace
			rt.mu.Unlock()
			if tid != "" {
				pw.Sample(p+"slowest_request_seconds", d.Seconds(), "route", rt.name, "trace_id", tid)
			}
		}
	})
	f.Metrics.Family("lof_trace_spans_total", "counter", "Trace spans started in this process.", func(pw *obs.PromWriter) {
		pw.IntSample("lof_trace_spans_total", int64(f.cfg.Trace.Stats().Started))
	})
	f.Metrics.Family("lof_trace_recorded_total", "counter", "Trace spans recorded to the ring buffer.", func(pw *obs.PromWriter) {
		pw.IntSample("lof_trace_recorded_total", int64(f.cfg.Trace.Stats().Recorded))
	})
	f.Metrics.Family("lof_trace_dropped_total", "counter", "Recorded trace spans evicted by the ring bound.", func(pw *obs.PromWriter) {
		pw.IntSample("lof_trace_dropped_total", int64(f.cfg.Trace.Stats().Dropped))
	})
}
