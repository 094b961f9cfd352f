package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"lof"
	"lof/internal/client"
	"lof/internal/coord"
	"lof/internal/dataset"
	"lof/internal/server"
	"lof/internal/shard"
)

// serveEnv is a serving tier set up for serve-exact or serve-sharded: the
// model loaded from its snapshot, the servers answering for it, and the
// query pool with its expected scores.
type serveEnv struct {
	data     *dataset.Dataset
	model    *lof.Model
	snapshot string
	url      string // where the clients send /v1/score
	down     teardown
	pool     [][]float64
	expected []float64
}

// setupServe fits the serve model, writes it as a snapshot, opens it the
// way lofserve -model does and starts the serving tier: one lofserve, or a
// lofcoord over cfg.sz.shards lofserve shards (hash partitioner, one
// replica each, no hedging). tr wraps every handler and transport; nil
// leaves them bare.
func setupServe(ctx context.Context, cfg config, sharded bool, rep int, tr *recorder) (*serveEnv, error) {
	sz := cfg.sz
	env := &serveEnv{data: dataset.RandomClusters(cfg.seed, sz.points, sz.dim, sz.clusters)}
	det, err := lof.New(lof.Config{MinPtsLB: sz.lb, MinPtsUB: sz.ub})
	if err != nil {
		return nil, err
	}
	res, err := det.Fit(rowsOf(env.data))
	if err != nil {
		return nil, fmt.Errorf("fitting the serve model: %w", err)
	}
	env.snapshot = filepath.Join(cfg.workdir, fmt.Sprintf("serve-%d-%d.lofs", os.Getpid(), rep))
	if err := writeSnapshot(res, env.snapshot); err != nil {
		return nil, err
	}
	env.down.add(func() error { return os.Remove(env.snapshot) })
	if env.model, _, err = lof.OpenModelFile(env.snapshot); err != nil {
		env.down.run()
		return nil, err
	}
	if err := startTier(ctx, env, sz.shards, sharded, tr); err != nil {
		env.down.run()
		return nil, err
	}
	return env, nil
}

func startTier(ctx context.Context, env *serveEnv, shards int, sharded bool, tr *recorder) error {
	start := func(name string, h http.Handler) (string, error) {
		hs, err := serveHTTP(tr.handler(name, h))
		if err != nil {
			return "", err
		}
		env.down.add(hs.stop)
		return hs.url, nil
	}
	if !sharded {
		srv := server.New(server.Config{})
		srv.SetModel(env.model)
		url, err := start("server.handler", srv.Handler())
		env.url = url
		return err
	}
	targets := make([][]string, shards)
	for s := range targets {
		url, err := start("shard.handler", server.New(server.Config{}).Handler())
		if err != nil {
			return err
		}
		targets[s] = []string{url}
	}
	rpc := newTransport()
	env.down.add(func() error { rpc.CloseIdleConnections(); return nil })
	c, err := coord.New(coord.Config{
		Targets:     targets,
		Client:      client.Config{HTTPClient: &http.Client{Transport: tr.transport("coord.rpc", rpc)}},
		Partitioner: shard.PartitionHash,
	})
	if err != nil {
		return err
	}
	if _, err := c.Install(ctx, env.model); err != nil {
		return fmt.Errorf("installing the model on the shards: %w", err)
	}
	env.url, err = start("coord.handler", c.Handler())
	return err
}

func writeSnapshot(res *lof.Result, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing snapshot: %w", err)
	}
	if _, err := res.WriteModel(f); err != nil {
		f.Close()
		return fmt.Errorf("writing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing snapshot: %w", err)
	}
	return nil
}

// rowsOf copies a dataset's points into rows.
func rowsOf(d *dataset.Dataset) [][]float64 {
	rows := make([][]float64, d.Len())
	for i := range rows {
		rows[i] = append([]float64(nil), d.Points.At(i)...)
	}
	return rows
}

// queryPool draws n queries: nine in ten from the data's own clusters (a
// cluster picked in proportion to its size, then a Gaussian with that
// cluster's mean and spread) and one in ten uniform over the data's
// bounding box. The draws use their own seed, so no query repeats a point.
func queryPool(d *dataset.Dataset, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	dim := d.Dim()
	type moments struct {
		sum   []float64
		sumSq float64
		n     int
	}
	byCluster := map[int]*moments{}
	lo, hi := d.Points.Bounds()
	for i := 0; i < d.Len(); i++ {
		c := byCluster[d.Cluster[i]]
		if c == nil {
			c = &moments{sum: make([]float64, dim)}
			byCluster[d.Cluster[i]] = c
		}
		for j, v := range d.Points.At(i) {
			c.sum[j] += v
			c.sumSq += v * v
		}
		c.n++
	}
	out := make([][]float64, n)
	for i := range out {
		q := make([]float64, dim)
		if i%10 == 9 {
			for j := range q {
				q[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
		} else {
			c := byCluster[d.Cluster[rng.Intn(d.Len())]]
			var meanSq float64
			for _, s := range c.sum {
				meanSq += (s / float64(c.n)) * (s / float64(c.n))
			}
			sd := math.Sqrt(math.Max(c.sumSq/float64(c.n)-meanSq, 0) / float64(dim))
			for j := range q {
				q[j] = c.sum[j]/float64(c.n) + rng.NormFloat64()*sd
			}
		}
		out[i] = q
	}
	return out
}

// sameBits reports an error unless got equals want bit for bit.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d scores, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("score %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// flipLowBit returns v with its lowest mantissa bit flipped.
func flipLowBit(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }

// newClients creates the two closed-loop clients, each on its own
// keep-alive transport.
func newClients(url string, tr *recorder, down *teardown) ([]*client.Client, error) {
	var out []*client.Client
	for i := 0; i < 2; i++ {
		t := newTransport()
		down.add(func() error { t.CloseIdleConnections(); return nil })
		c, err := client.New(client.Config{BaseURL: url, HTTPClient: &http.Client{Transport: tr.transport("client.rpc", t)}})
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// scoreOp sends the pool's batches in turn, starting at batch first, and
// checks each response against the expected scores.
func scoreOp(cl *client.Client, env *serveEnv, batch, first int, tr *recorder) op {
	nb := len(env.pool) / batch
	next := first % nb
	return func(ctx context.Context) (int, error) {
		b := next
		next = (next + 1) % nb
		qs := env.pool[b*batch : (b+1)*batch]
		ctx, end := tr.call(ctx, "client.call", b)
		scores, err := cl.Score(ctx, qs)
		end()
		if err != nil {
			return 0, err
		}
		if err := sameBits(scores, env.expected[b*batch:(b+1)*batch]); err != nil {
			return 0, fmt.Errorf("batch %d: %w", b, err)
		}
		return len(qs), nil
	}
}

// runServe runs serve-exact (sharded false) or serve-sharded.
func runServe(ctx context.Context, cfg config, sharded bool) (*result, error) {
	sz := cfg.sz
	res := newResult()
	var tr *recorder
	reps := sz.setupReps
	if cfg.trace {
		tr = newRecorder()
		reps = 1
	}
	var env *serveEnv
	rep := 0
	setup, err := timeSetups(reps, func() (err error) {
		env, err = setupServe(ctx, cfg, sharded, rep, tr)
		rep++
		return err
	}, func() error { return env.down.run() })
	if err != nil {
		return nil, err
	}
	defer env.down.run()

	env.pool = queryPool(env.data, sz.pool, cfg.seed+1)
	if env.expected, err = env.model.ScoreBatch(env.pool); err != nil {
		return nil, fmt.Errorf("computing expected scores: %w", err)
	}
	if cfg.perturb {
		env.expected[0] = flipLowBit(env.expected[0])
	}
	clients, err := newClients(env.url, tr, &env.down)
	if err != nil {
		return nil, err
	}
	nb := len(env.pool) / sz.batch
	ops := func() []op {
		return []op{scoreOp(clients[0], env, sz.batch, 0, tr), scoreOp(clients[1], env, sz.batch, nb/2, tr)}
	}
	closedLoop(ctx, sz.warmup, ops()...)

	if !cfg.trace {
		res.set("setup_s", setup, "s")
		closedLoop(ctx, cfg.run, ops()...).report(res, "throughput_qps", "1/s", "latency")
		res.set("heap_live_mb", liveHeapMB(), "MB")
		return res, nil
	}

	zeroLayers(res)
	untraced := closedLoop(ctx, cfg.run/2, ops()...)
	before := clientStats(clients)
	tr.on.Store(true)
	traced := closedLoop(ctx, cfg.run/2, ops()...)
	tr.on.Store(false)
	after := clientStats(clients)
	res.count(untraced.attempted+traced.attempted, untraced.failed+traced.failed, firstOf(untraced.firstErr, traced.firstErr))
	overhead(res, untraced, traced)
	setLayer(res, "client.attempts_per_call", ratio(float64(after.Attempts-before.Attempts), float64(after.Requests-before.Requests)))

	tr.on.Store(true)
	evalBatch := scoringLayers(res, tr, env.model, env.pool, env.expected, sz.batch)
	singleBatch := batchLayers(res, tr, env.model, env.pool, sz.batch)
	fitLayers(res, tr, pointsOf(env.model), sz.lb, sz.ub, 3)
	fitTimes(res, tr, env.data, sz.lb, sz.ub, 3)
	openTimes(res, tr, env.snapshot, 3)
	tr.on.Store(false)

	// A request's compute is the scoring it asked for: the batch on one
	// worker for lofserve; for lofcoord, the time its shard RPCs were in
	// flight plus the coordinator's evaluation of the batch.
	x := tr.index()
	compute := func(call span) time.Duration { return singleBatch[call.Batch] }
	handlerPath := "/v1/score"
	if sharded {
		coordLayers(res, x)
		rpcTime := map[string]time.Duration{}
		for _, h := range x.named("coord.handler", "/v1/score") {
			rpcTime[h.Req] += x.covered(h)
		}
		compute = func(call span) time.Duration { return rpcTime[call.Req] + evalBatch[call.Batch] }
		handlerPath = ""
	}
	requestLayers(res, x, "client.call", handlerPath, compute)
	return res, tr.write(cfg.spans, cfg.workload, cfg.seed)
}

func firstOf(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// clientStats sums the retry-loop counters of clients.
func clientStats(cs []*client.Client) client.Stats {
	var sum client.Stats
	for _, c := range cs {
		st := c.Stats()
		sum.Requests += st.Requests
		sum.Attempts += st.Attempts
		sum.Retries += st.Retries
		sum.BudgetDenials += st.BudgetDenials
	}
	return sum
}

// fitTimes times Detector.Fit on the serve data.
func fitTimes(res *result, tr *recorder, d *dataset.Dataset, lb, ub, reps int) {
	rows := rowsOf(d)
	det, err := lof.New(lof.Config{MinPtsLB: lb, MinPtsUB: ub})
	if err != nil {
		res.count(1, 1, err)
		return
	}
	var fits []time.Duration
	for rep := 0; rep < reps; rep++ {
		fits = append(fits, tr.timed("lof.fit", "fit-"+strconv.Itoa(rep), 0, func() { _, _ = det.Fit(rows) }))
	}
	setLayer(res, "lof.fit_ms", median(ms(fits)))
}

// openTimes times lof.OpenModelFile on the snapshot.
func openTimes(res *result, tr *recorder, path string, reps int) {
	var opens []time.Duration
	for rep := 0; rep < reps; rep++ {
		opens = append(opens, tr.timed("lof.snapshot_open", "open-"+strconv.Itoa(rep), 0, func() {
			if _, _, err := lof.OpenModelFile(path); err != nil {
				res.count(1, 1, err)
			}
		}))
	}
	setLayer(res, "lof.snapshot_open_ms", median(ms(opens)))
}
