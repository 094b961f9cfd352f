// Command lofcoord runs the scatter-gather coordinator of the sharded
// serving tier. It fronts a fleet of lofserve shard processes: a fit is
// performed once, globally, then split into per-shard snapshots and
// replicated; scores are answered by fanning out to every shard and
// merging the candidates into exact global LOF — bit-identical to what a
// single lofserve holding the whole model would return.
//
// Usage:
//
//	lofcoord -addr :8090 -shards "http://s0:8080;http://s1:8080;http://s2:8080"
//	lofcoord -shards "http://s0a:8080,http://s0b:8080;http://s1:8080"   # 2 shards, first has 2 replicas
//	lofcoord -shards "..." -model model.bin                             # preload and distribute
//	lofcoord -shards "..." -hedge 20ms -partitioner range
//
// In -shards, ';' separates shards and ',' separates interchangeable
// replicas of one shard. Endpoints mirror lofserve's API (POST /v1/fit,
// POST /v1/score, GET /v1/model, /healthz, /readyz, /metrics), so clients
// need not know whether they talk to a single node or a coordinator.
//
// A background repair loop re-pushes the current snapshot to replicas that
// report unready or a stale version, so restarted shards converge without
// operator action.
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
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lof"
	"lof/internal/client"
	"lof/internal/coord"
	"lof/internal/shard"
	"lof/internal/trace"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8090", "listen address")
		shards        = flag.String("shards", "", "shard replica URLs: ';' separates shards, ',' separates replicas of one shard")
		modelPath     = flag.String("model", "", "model snapshot to preload, split and distribute (see lofcli -save-model)")
		hedge         = flag.Duration("hedge", 50*time.Millisecond, "delay before hedging a shard request to the next replica (<=0 disables)")
		partitioner   = flag.String("partitioner", "hash", "point-to-shard assignment: hash or range")
		coresetSample = flag.Int("coreset-sample", 2048, "points in the local coreset model behind ?mode=coreset and the ?mode=degraded outage fallback (<0 disables)")
		repairEvery   = flag.Duration("repair-interval", 2*time.Second, "how often to sweep replicas for repair")
		grace         = flag.Duration("grace", 15*time.Second, "graceful shutdown drain budget")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		traceSample   = flag.Float64("trace-sample", 0, "probability of recording a trace for requests without an inbound sampled traceparent (0 disables tracing unless -trace-slow is set)")
		traceSlow     = flag.Duration("trace-slow", 0, "always record spans at least this slow, even unsampled (0 disables the slow override)")
		traceBuffer   = flag.Int("trace-buffer", 4096, "recorded spans kept in the in-process ring buffer served by /v1/debug/traces")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := options{
		addr: *addr, shards: *shards, modelPath: *modelPath,
		hedge: *hedge, partitioner: *partitioner,
		coresetSample: *coresetSample, repairEvery: *repairEvery,
		grace: *grace, logLevel: *logLevel,
		traceSample: *traceSample, traceSlow: *traceSlow, traceBuffer: *traceBuffer,
	}
	if err := run(ctx, o, os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "lofcoord: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	addr          string
	shards        string
	modelPath     string
	hedge         time.Duration
	partitioner   string
	coresetSample int
	repairEvery   time.Duration
	grace         time.Duration
	logLevel      string
	traceSample   float64
	traceSlow     time.Duration
	traceBuffer   int
}

// parseTargets splits the -shards grammar: ';' between shards, ',' between
// replicas. Blanks are tolerated around separators; empty shards are not.
func parseTargets(s string) ([][]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("-shards is required (';' separates shards, ',' separates replicas)")
	}
	var targets [][]string
	for i, group := range strings.Split(s, ";") {
		var replicas []string
		for _, u := range strings.Split(group, ",") {
			if u = strings.TrimSpace(u); u != "" {
				replicas = append(replicas, u)
			}
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("shard %d has no replica URLs", i)
		}
		targets = append(targets, replicas)
	}
	return targets, nil
}

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

// run starts the coordinator and blocks until ctx is cancelled, then drains
// gracefully. If ready is non-nil the bound address is sent once the
// listener accepts connections — the test and script seam.
func run(ctx context.Context, o options, logw io.Writer, ready chan<- string) error {
	level, err := parseLevel(o.logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewJSONHandler(logw, &slog.HandlerOptions{Level: level}))
	targets, err := parseTargets(o.shards)
	if err != nil {
		return err
	}
	parter, err := shard.ParsePartitioner(o.partitioner)
	if err != nil {
		return err
	}
	var collector *trace.Collector
	if o.traceSample > 0 || o.traceSlow > 0 {
		collector = trace.NewCollector(trace.Config{
			Service:       "lofcoord",
			Capacity:      o.traceBuffer,
			Sample:        o.traceSample,
			SlowThreshold: o.traceSlow,
		})
		logger.LogAttrs(ctx, slog.LevelInfo, "tracing enabled",
			slog.Float64("sample", o.traceSample),
			slog.Duration("slow", o.traceSlow),
			slog.Int("buffer", o.traceBuffer))
	}
	c, err := coord.New(coord.Config{
		Targets:        targets,
		Client:         client.Config{},
		Hedge:          o.hedge,
		Partitioner:    parter,
		CoresetSample:  o.coresetSample,
		RepairInterval: o.repairEvery,
		Logger:         logger,
		Trace:          collector,
	})
	if err != nil {
		return err
	}
	if o.modelPath != "" {
		m, info, err := lof.OpenModelFile(o.modelPath)
		if err != nil {
			return fmt.Errorf("loading %s: %w", o.modelPath, err)
		}
		mode := "copy"
		if info.Mapped {
			mode = "mmap"
		}
		logger.LogAttrs(ctx, slog.LevelInfo, "model snapshot opened",
			slog.String("path", o.modelPath),
			slog.Int("snapshot_version", info.Version),
			slog.String("load_mode", mode),
			slog.Int64("bytes", info.Bytes))
		// Shards may still be starting; keep trying until the snapshot
		// lands or shutdown wins.
		go func() {
			for {
				info, err := c.Install(ctx, m)
				if err == nil {
					logger.LogAttrs(ctx, slog.LevelInfo, "preloaded model distributed",
						slog.Uint64("version", info.Version),
						slog.Int("objects", info.Objects))
					return
				}
				logger.LogAttrs(ctx, slog.LevelWarn, "preload distribution failed; retrying",
					slog.String("error", err.Error()))
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Second):
				}
			}
		}()
	}
	go c.Run(ctx) // repair loop

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logger.LogAttrs(ctx, slog.LevelInfo, "listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("shards", c.Shards()))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.LogAttrs(context.Background(), slog.LevelInfo, "shutting down",
		slog.Duration("grace", o.grace))
	shCtx, cancel := context.WithTimeout(context.Background(), o.grace)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
