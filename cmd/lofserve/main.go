// Command lofserve serves LOF out-of-sample scoring over an HTTP JSON API.
//
// Usage:
//
//	lofserve -addr :8080
//	lofserve -addr :8080 -model model.bin          # preload a snapshot
//	lofserve -max-inflight 128 -timeout 10s
//	lofserve -pprof-addr 127.0.0.1:6060 -log-level debug
//	lofserve -stream-dim 2 -stream-minpts 10 -stream-max-points 10000 \
//	    -stream-freeze-every 30s -stream-snapshot window.bin
//
// Endpoints:
//
//	POST /v1/fit              fit a model from JSON data, replacing the current one
//	POST /v1/score            score query points against the current model;
//	                          ?mode=pruned|coreset|degraded selects an
//	                          approximate path
//	GET  /v1/model            current model summary
//	POST /v1/shard/snapshot   install a shard partition pushed by lofcoord
//	POST /v1/shard/candidates per-partition kNN candidates (shard role,
//	                          binary frames)
//	POST /v1/stream/init      create (or replace) the streaming pipeline
//	POST /v1/stream           apply one ingestion batch (inserts/deletes/expiry)
//	POST /v1/stream/score     score queries against the published stream epoch
//	GET  /v1/stream/lofs      stream window IDs and maintained LOF values
//	GET  /v1/stream/stats     stream pipeline counters and epoch shape
//	POST /v1/stream/freeze    refit the stream window into the serving model
//	GET  /healthz             liveness only: 200 whenever the process serves
//	GET  /readyz              readiness: model/partition presence and version,
//	                          503 while empty or mid-swap
//	GET  /metrics             Prometheus text-format metrics (per-route histograms)
//	GET  /v1/debug/traces     recorded trace spans (with -trace-sample or -trace-slow)
//
// A lofserve can therefore serve in two roles: standalone (fit and score
// the whole model) or as one shard of a lofcoord fleet, holding a
// partition snapshot at a coordinator-assigned version. -max-snapshot
// bounds the accepted partition snapshot size.
//
// The server sheds load above -max-inflight with 429 responses, except
// for ?mode=degraded and ?mode=coreset requests, which a small reserve
// pool still admits and the coreset model answers; it bounds each request
// by -timeout, and drains in-flight requests before exiting on SIGTERM or
// SIGINT (up to -grace). Logs are structured JSON lines on stderr, one
// per request, filtered by -log-level; the request path, error bodies and
// metrics are the front end lofcoord shares. When -pprof-addr is set,
// net/http/pprof profiling endpoints are served on that address on a
// separate listener so profiling is never exposed on the API port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lof"
	"lof/internal/server"
	"lof/internal/stream"
	"lof/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		modelPath   = flag.String("model", "", "model snapshot to preload (see lofcli -save-model)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		maxInFlight = flag.Int("max-inflight", 64, "concurrent requests before shedding with 429")
		maxBatch    = flag.Int("max-batch", 100000, "maximum query points per score request")
		maxSnap     = flag.Int64("max-snapshot", 1<<30, "maximum shard snapshot size in bytes")
		grace       = flag.Duration("grace", 15*time.Second, "graceful shutdown drain budget")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (separate listener; empty disables)")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")

		traceSample = flag.Float64("trace-sample", 0, "probability of recording a trace for requests without an inbound sampled traceparent (0 disables tracing unless -trace-slow is set)")
		traceSlow   = flag.Duration("trace-slow", 0, "always record spans at least this slow, even unsampled (0 disables the slow override)")
		traceBuffer = flag.Int("trace-buffer", 4096, "recorded spans kept in the in-process ring buffer served by /v1/debug/traces")

		streamDim       = flag.Int("stream-dim", 0, "start a streaming pipeline for points of this dimensionality (0 disables; /v1/stream/init can still create one)")
		streamMinPts    = flag.Int("stream-minpts", 10, "MinPts for the streaming pipeline")
		streamMetric    = flag.String("stream-metric", "", "metric for the streaming pipeline (default euclidean)")
		streamMaxPoints = flag.Int("stream-max-points", 0, "sliding-window point bound for the streaming pipeline (0 = unbounded)")
		streamMaxAge    = flag.Duration("stream-max-age", 0, "sliding-window age bound for the streaming pipeline (0 = unbounded)")
		freezeEvery     = flag.Duration("stream-freeze-every", 0, "periodically freeze the stream window into the serving model (0 disables)")
		snapshotPath    = flag.String("stream-snapshot", "", "also save each frozen model to this snapshot file (requires -stream-freeze-every)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := options{
		addr: *addr, modelPath: *modelPath,
		timeout: *timeout, maxInFlight: *maxInFlight, maxBatch: *maxBatch,
		maxSnap:   *maxSnap,
		grace:     *grace,
		pprofAddr: *pprofAddr, logLevel: *logLevel,
		traceSample: *traceSample, traceSlow: *traceSlow, traceBuffer: *traceBuffer,
		streamDim: *streamDim, streamMinPts: *streamMinPts, streamMetric: *streamMetric,
		streamMaxPoints: *streamMaxPoints, streamMaxAge: *streamMaxAge,
		freezeEvery: *freezeEvery, snapshotPath: *snapshotPath,
	}
	if err := run(ctx, o, os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "lofserve: %v\n", err)
		os.Exit(1)
	}
}

// options carries the parsed flags; run is separated from main so tests
// can drive the full server lifecycle in-process.
type options struct {
	addr        string
	modelPath   string
	timeout     time.Duration
	maxInFlight int
	maxBatch    int
	maxSnap     int64
	grace       time.Duration
	pprofAddr   string
	logLevel    string

	traceSample float64
	traceSlow   time.Duration
	traceBuffer int

	streamDim       int
	streamMinPts    int
	streamMetric    string
	streamMaxPoints int
	streamMaxAge    time.Duration
	freezeEvery     time.Duration
	snapshotPath    string
}

// parseLevel maps the -log-level flag to a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// pprofHandler builds an explicit mux for the profiling listener rather
// than importing net/http/pprof for its DefaultServeMux side effect, so
// nothing ever registers profiling routes on the API handler.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// run starts the server and blocks until ctx is cancelled (SIGTERM/SIGINT
// in production), then shuts down gracefully, draining in-flight requests.
// If ready is non-nil, the bound API and pprof addresses are sent on it
// once the listeners are accepting connections (pprof address empty when
// disabled).
func run(ctx context.Context, o options, logw io.Writer, ready chan<- [2]string) error {
	level, err := parseLevel(o.logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewJSONHandler(logw, &slog.HandlerOptions{Level: level}))
	var collector *trace.Collector
	if o.traceSample > 0 || o.traceSlow > 0 {
		collector = trace.NewCollector(trace.Config{
			Service:       "lofserve",
			Capacity:      o.traceBuffer,
			Sample:        o.traceSample,
			SlowThreshold: o.traceSlow,
		})
		logger.LogAttrs(ctx, slog.LevelInfo, "tracing enabled",
			slog.Float64("sample", o.traceSample),
			slog.Duration("slow", o.traceSlow),
			slog.Int("buffer", o.traceBuffer))
	}
	srv := server.New(server.Config{
		MaxInFlight:      o.maxInFlight,
		RequestTimeout:   o.timeout,
		MaxBatch:         o.maxBatch,
		MaxSnapshotBytes: o.maxSnap,
		Logger:           logger,
		Trace:            collector,
	})
	if o.modelPath != "" {
		start := time.Now()
		m, info, err := lof.OpenModelFile(o.modelPath)
		if err != nil {
			return fmt.Errorf("loading %s: %w", o.modelPath, err)
		}
		srv.SetModel(m)
		mode := "copy"
		if info.Mapped {
			mode = "mmap"
		}
		logger.LogAttrs(ctx, slog.LevelInfo, "model loaded",
			slog.String("path", o.modelPath),
			slog.Int("objects", m.Len()),
			slog.Int("dims", m.Dim()),
			slog.Int("snapshot_version", info.Version),
			slog.String("load_mode", mode),
			slog.Int64("bytes", info.Bytes),
			slog.Duration("elapsed", time.Since(start)))
	}

	var freezeDone chan struct{}
	if o.streamDim > 0 {
		pl, err := stream.New(stream.Config{
			Dim:       o.streamDim,
			MinPts:    o.streamMinPts,
			Metric:    o.streamMetric,
			MaxPoints: o.streamMaxPoints,
			MaxAge:    o.streamMaxAge,
		})
		if err != nil {
			return fmt.Errorf("stream pipeline: %w", err)
		}
		srv.SetStream(pl)
		logger.LogAttrs(ctx, slog.LevelInfo, "stream pipeline started",
			slog.Int("dim", o.streamDim),
			slog.Int("minPts", o.streamMinPts),
			slog.Int("maxPoints", o.streamMaxPoints),
			slog.Duration("maxAge", o.streamMaxAge))
		if o.freezeEvery > 0 {
			freezeDone = make(chan struct{})
			go func() {
				defer close(freezeDone)
				freezeLoop(ctx, srv, o, logger)
			}()
		}
	} else if o.freezeEvery > 0 || o.snapshotPath != "" {
		return fmt.Errorf("-stream-freeze-every and -stream-snapshot require -stream-dim")
	}

	var pprofLn net.Listener
	var pprofSrv *http.Server
	pprofAddr := ""
	if o.pprofAddr != "" {
		pprofLn, err = net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pprofSrv = &http.Server{
			Handler:           pprofHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go pprofSrv.Serve(pprofLn)
		pprofAddr = pprofLn.Addr().String()
		logger.LogAttrs(ctx, slog.LevelInfo, "pprof listening",
			slog.String("addr", pprofAddr))
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		if pprofSrv != nil {
			pprofSrv.Close()
		}
		return err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logger.LogAttrs(ctx, slog.LevelInfo, "listening",
		slog.String("addr", ln.Addr().String()))
	if ready != nil {
		ready <- [2]string{ln.Addr().String(), pprofAddr}
	}

	select {
	case err := <-errc:
		if pprofSrv != nil {
			pprofSrv.Close()
		}
		return err
	case <-ctx.Done():
	}
	logger.LogAttrs(context.Background(), slog.LevelInfo, "shutting down",
		slog.Duration("grace", o.grace))
	shCtx, cancel := context.WithTimeout(context.Background(), o.grace)
	defer cancel()
	if pprofSrv != nil {
		pprofSrv.Close()
	}
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if freezeDone != nil {
		<-freezeDone
	}
	return nil
}

// freezeLoop periodically refits the stream window into the serving model
// and, when configured, saves it as a standard snapshot file. Model.WriteFile
// saves through a synced temp file and a rename, so a concurrent loader
// never sees a torn snapshot.
func freezeLoop(ctx context.Context, srv *server.Server, o options, logger *slog.Logger) {
	t := time.NewTicker(o.freezeEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		m, seq, err := srv.FreezeStreamInstall()
		if err != nil {
			// A window too small to refit is routine during warm-up.
			logger.LogAttrs(ctx, slog.LevelDebug, "stream freeze skipped",
				slog.String("reason", err.Error()))
			continue
		}
		attrs := []slog.Attr{slog.Uint64("epoch", seq), slog.Int("objects", m.Len())}
		if o.snapshotPath != "" {
			if err := m.WriteFile(o.snapshotPath); err != nil {
				logger.LogAttrs(ctx, slog.LevelError, "stream snapshot save failed",
					slog.String("error", err.Error()))
				continue
			}
			attrs = append(attrs, slog.String("snapshot", o.snapshotPath))
		}
		logger.LogAttrs(ctx, slog.LevelInfo, "stream window frozen", attrs...)
	}
}
