package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"lof"
	"lof/internal/client"
	"lof/internal/dataset"
	"lof/internal/geom"
	"lof/internal/server"
	"lof/internal/stream"
)

// streamEnv is a lofserve stream pipeline set up for stream-churn, with
// the insert stream the writer cycles through and the coordinates of every
// live point by the ID the pipeline assigned, for the final check.
type streamEnv struct {
	src     [][]float64
	next    int
	live    map[uint64][]float64
	pool    [][]float64
	clients []*client.Client
	down    teardown
}

// streamSource draws the insert stream: clustered points in a seeded
// random order, so the window holds every cluster at once.
func streamSource(cfg config) (*dataset.Dataset, [][]float64) {
	sz := cfg.sz
	d := dataset.RandomClusters(cfg.seed, 10*sz.window, sz.streamDim, sz.clusters)
	rows := rowsOf(d)
	rand.New(rand.NewSource(cfg.seed+2)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return d, rows
}

// take returns the next n source points, cycling through the source.
func (e *streamEnv) take(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = e.src[e.next]
		e.next = (e.next + 1) % len(e.src)
	}
	return out
}

// push sends one insert batch and checks the window stayed full: every
// insert expires exactly one point once the window is primed.
func (e *streamEnv) push(ctx context.Context, cl *client.Client, rows [][]float64, window int) error {
	r, err := cl.StreamPush(ctx, rows, nil, 0)
	if err != nil {
		return err
	}
	if len(r.Inserted) != len(rows) {
		return fmt.Errorf("push inserted %d of %d points", len(r.Inserted), len(rows))
	}
	for i, id := range r.Inserted {
		e.live[id] = rows[i]
	}
	for _, id := range r.Expired {
		delete(e.live, id)
	}
	if r.Live != len(e.live) || r.Live > window {
		return fmt.Errorf("window holds %d points, want %d of at most %d", r.Live, len(e.live), window)
	}
	return nil
}

// setupStream starts lofserve, initializes its stream pipeline through
// the API and primes the window full.
func setupStream(ctx context.Context, cfg config, tr *recorder) (*streamEnv, *dataset.Dataset, error) {
	sz := cfg.sz
	d, src := streamSource(cfg)
	env := &streamEnv{src: src, live: map[uint64][]float64{}}
	hs, err := serveHTTP(tr.handler("server.handler", server.New(server.Config{}).Handler()))
	if err != nil {
		return nil, nil, err
	}
	env.down.add(hs.stop)
	if env.clients, err = newClients(hs.url, tr, &env.down); err != nil {
		env.down.run()
		return nil, nil, err
	}
	init := server.StreamConfig{Dim: sz.streamDim, MinPts: sz.streamMinPts, MaxPoints: sz.window}
	if _, err := env.clients[0].StreamInit(ctx, init); err != nil {
		env.down.run()
		return nil, nil, fmt.Errorf("initializing the stream: %w", err)
	}
	for len(env.live) < sz.window {
		if err := env.push(ctx, env.clients[0], env.take(min(sz.primeBatch, sz.window-len(env.live))), sz.window); err != nil {
			env.down.run()
			return nil, nil, fmt.Errorf("priming the stream: %w", err)
		}
	}
	return env, d, nil
}

// checkWindow compares the window's maintained LOFs with a batch fit of
// the same rows, bit for bit.
func (e *streamEnv) checkWindow(ctx context.Context, minPts int, perturb bool) error {
	got, err := e.clients[0].StreamWindowLOFs(ctx)
	if err != nil {
		return err
	}
	rows := make([][]float64, len(got.IDs))
	for i, id := range got.IDs {
		if rows[i] = e.live[id]; rows[i] == nil {
			return fmt.Errorf("window holds id %d, which is not live", id)
		}
	}
	if len(rows) != len(e.live) {
		return fmt.Errorf("window holds %d points, want %d", len(rows), len(e.live))
	}
	want, err := lof.Scores(rows, minPts)
	if err != nil {
		return err
	}
	if perturb {
		want[0] = flipLowBit(want[0])
	}
	if err := sameBits(got.LOFs, want); err != nil {
		return fmt.Errorf("window LOFs against a batch fit: %w", err)
	}
	return nil
}

// pushOp is the writer: insert batches back to back.
func (e *streamEnv) pushOp(sz sizes, tr *recorder) op {
	return func(ctx context.Context) (int, error) {
		rows := e.take(sz.pushBatch)
		ctx, end := tr.call(ctx, "client.push", -1)
		err := e.push(ctx, e.clients[0], rows, sz.window)
		end()
		return len(rows), err
	}
}

// readOp is the reader: score batches back to back. The scores come from
// an epoch that moves under the reader, so they are checked for shape and
// finiteness only; the final window check is the exact one.
func (e *streamEnv) readOp(sz sizes, tr *recorder) op {
	nb := len(e.pool) / sz.batch
	next := 0
	return func(ctx context.Context) (int, error) {
		b := next
		next = (next + 1) % nb
		qs := e.pool[b*sz.batch : (b+1)*sz.batch]
		ctx, end := tr.call(ctx, "client.call", b)
		r, err := e.clients[1].StreamScore(ctx, qs)
		end()
		if err != nil {
			return 0, err
		}
		if len(r.Scores) != len(qs) {
			return 0, fmt.Errorf("got %d scores for %d queries", len(r.Scores), len(qs))
		}
		for i, v := range r.Scores {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return 0, fmt.Errorf("query %d scored %v", i, v)
			}
		}
		return len(qs), nil
	}
}

// runStream runs stream-churn.
func runStream(ctx context.Context, cfg config) (*result, error) {
	sz := cfg.sz
	res := newResult()
	var tr *recorder
	reps := sz.streamSetupReps
	if cfg.trace {
		tr = newRecorder()
		reps = 1
	}
	var env *streamEnv
	var d *dataset.Dataset
	setup, err := timeSetups(reps, func() (err error) {
		env, d, err = setupStream(ctx, cfg, tr)
		return err
	}, func() error { return env.down.run() })
	if err != nil {
		return nil, err
	}
	defer env.down.run()
	env.pool = queryPool(d, sz.pool, cfg.seed+1)
	closedLoop(ctx, sz.warmup, env.pushOp(sz, tr), env.readOp(sz, tr))

	if !cfg.trace {
		res.set("setup_s", setup, "s")
		stats := closedLoop(ctx, cfg.run, env.pushOp(sz, tr), env.readOp(sz, tr))
		stats.byClient[1].report(res, "throughput_qps", "1/s", "latency")
		writer := stats.byClient[0]
		ins := latencies(writer.reqs)
		res.note("inserts_per_s", writer.rate(), "1/s")
		res.note("insert_p50_ms", quantile(ins, 0.5), "ms")
		res.note("insert_p99_ms", quantile(ins, 0.99), "ms")
		res.note("insert_samples", float64(len(ins)), "count")
		res.count(writer.attempted, writer.failed, writer.firstErr)
		res.set("heap_live_mb", liveHeapMB(), "MB")
	} else {
		zeroLayers(res)
		untraced := closedLoop(ctx, cfg.run/2, env.pushOp(sz, tr), env.readOp(sz, tr))
		before := clientStats(env.clients[1:])
		tr.on.Store(true)
		traced := closedLoop(ctx, cfg.run/2, env.pushOp(sz, tr), env.readOp(sz, tr))
		tr.on.Store(false)
		after := clientStats(env.clients[1:])
		res.count(untraced.attempted+traced.attempted, untraced.failed+traced.failed, firstOf(untraced.firstErr, traced.firstErr))
		overhead(res, untraced.byClient[1], traced.byClient[1])
		setLayer(res, "client.attempts_per_call", ratio(float64(after.Attempts-before.Attempts), float64(after.Requests-before.Requests)))
		writer := untraced.byClient[0]
		ins := latencies(writer.reqs)
		setLayer(res, "stream.inserts_per_s", writer.rate())
		setLayer(res, "stream.insert_p50_ms", quantile(ins, 0.5))
		setLayer(res, "stream.insert_p99_ms", quantile(ins, 0.99))
	}
	err = env.checkWindow(ctx, sz.streamMinPts, cfg.perturb)
	res.count(1, boolCount(err != nil), err)
	if !cfg.trace {
		return res, nil
	}

	tr.on.Store(true)
	scoreBatch, err := pipelineLayers(ctx, res, tr, cfg, env)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	x := tr.index()
	requestLayers(res, x, "client.call", "/v1/stream/score", func(span) time.Duration { return scoreBatch })
	setLayer(res, "server.push_handler_ms", median(ms(durs(x.named("server.handler", "/v1/stream")))))
	return res, tr.write(cfg.spans, cfg.workload, cfg.seed)
}

func boolCount(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// directLimit bounds pipelineLayers' schedule. A full window compacts once
// its tombstones outnumber its live points: every 63 pushes of 32 points
// for a 2,000-point window, so two compactions take about 130 pushes.
const directLimit = 90 * time.Second

// pipelineLayers drives the same push and score schedule directly on a
// fresh pipeline, primed the same way, and reports Apply's own stage
// timings, the direct ScoreBatch time and the compactions. It returns the
// median ScoreBatch time.
func pipelineLayers(ctx context.Context, res *result, tr *recorder, cfg config, env *streamEnv) (time.Duration, error) {
	sz := cfg.sz
	pl, err := server.StreamConfig{Dim: sz.streamDim, MinPts: sz.streamMinPts, MaxPoints: sz.window}.Pipeline()
	if err != nil {
		return 0, err
	}
	src := env.src
	next := 0
	take := func(n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = src[next]
			next = (next + 1) % len(src)
		}
		return out
	}
	for pl.Stats().Live < sz.window {
		if _, err := pl.Apply(stream.Update{Inserts: take(min(sz.primeBatch, sz.window-pl.Stats().Live))}); err != nil {
			return 0, fmt.Errorf("priming the direct pipeline: %w", err)
		}
	}
	// The schedule runs until the window has compacted twice, so the stage
	// timings include compactions, or for directLimit at most.
	loopCtx, stop := context.WithCancel(ctx)
	defer stop()
	compactions := 0
	var plan, apply, drain, replay, score []time.Duration
	pushes := 0
	stageSpans := func(start time.Time, t stream.Timing, req string, parent int64) {
		at := tr.since(start)
		for _, st := range []struct {
			name string
			d    time.Duration
		}{{"stream.plan", t.Plan}, {"stream.apply", t.Apply}, {"stream.drain", t.Drain}, {"stream.replay", t.Replay}} {
			tr.add(span{Parent: parent, Name: st.name, Req: req, Start: at, End: at + int64(st.d), Batch: -1})
			at += int64(st.d)
		}
	}
	push := func(ctx context.Context) (int, error) {
		pts := take(sz.pushBatch)
		req := "push" + strconv.Itoa(pushes)
		pushes++
		start := time.Now()
		r, err := pl.Apply(stream.Update{Inserts: pts})
		end := time.Now()
		if err != nil {
			return 0, err
		}
		id := tr.add(span{Name: "stream.push", Req: req, Start: tr.since(start), End: tr.since(end), Batch: -1})
		stageSpans(start, r.Timing, req, id)
		plan = append(plan, r.Timing.Plan)
		apply = append(apply, r.Timing.Apply)
		drain = append(drain, r.Timing.Drain)
		replay = append(replay, r.Timing.Replay)
		if r.Compacted {
			if compactions++; compactions == 2 {
				stop()
			}
		}
		return len(pts), nil
	}
	nb := len(env.pool) / sz.batch
	b := 0
	read := func(ctx context.Context) (int, error) {
		qs := make([]geom.Point, sz.batch)
		for i := range qs {
			qs[i] = env.pool[b*sz.batch+i]
		}
		b = (b + 1) % nb
		var err error
		score = append(score, tr.timed("stream.score_batch", "score", 0, func() { _, _, err = pl.ScoreBatch(qs) }))
		return len(qs), err
	}
	stats := closedLoop(loopCtx, directLimit, push, read)
	res.count(stats.attempted, stats.failed, stats.firstErr)
	setLayer(res, "stream.plan_ms", median(ms(plan)))
	setLayer(res, "stream.apply_ms", median(ms(apply)))
	setLayer(res, "stream.drain_ms", median(ms(drain)))
	setLayer(res, "stream.replay_ms", median(ms(replay)))
	setLayer(res, "stream.score_batch_ms", median(ms(score)))
	setLayer(res, "stream.compactions", float64(compactions))
	return time.Duration(median(ms(score)) * float64(time.Millisecond)), nil
}
