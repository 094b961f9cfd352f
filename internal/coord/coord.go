// Package coord implements the lofcoord scatter-gather coordinator: the
// control and query plane of the sharded LOF serving tier. It fits a model
// globally (or installs one), splits its points into per-shard parts
// (shard.Split), replicates them to lofserve shard processes, keeps the
// model itself, and answers score requests with one shard round:
//
//	candidates  every shard returns its partition's kNN candidates for the
//	            query batch, one binary frame (shard.Frame) per shard; the
//	            coordinator checks that each shard answered only with ids
//	            it owns and merges them into each query's exact global row
//	            (matdb.MergeCandidates)
//	score       the coordinator scores the merged rows with the model it
//	            holds (lof.Model.ScoreQueryRows): the scorer lofserve runs,
//	            from the query's row on
//
// Both halves are the single-node code paths over the same stored rows,
// which is what makes a distributed score bit-identical to a single-node
// one. The shards are the distributed kNN probe (plus replicas) and hold
// only points; the coordinator holds the model and does every evaluation.
//
// Failure policy: per-shard calls hedge across replicas (first success
// wins); when a whole shard is unreachable, or answers with ids it does not
// own, a request that opted into ?mode=degraded is answered from the local
// coreset model with the response marked "degraded", and any other request
// fails with a gateway error — never a silently wrong exact score. A shard
// that rejects the batch as too large (413) is not an outage: the caller
// gets the 413. A background repair loop re-pushes snapshots to replicas
// that report unready or stale.
//
// Approximate modes ride the same scatter-gather machinery:
//
//	?mode=pruned   the model certifies each merged row as
//	               lof.Model.ScoreBatchPruned does (approx.QueryBounds over
//	               the model's summaries, built on the version's first
//	               pruned request); a query whose LOF interval lies inside
//	               1±eps answers exactly 1 and is not evaluated, so every
//	               answer equals ScoreBatchPruned's bit for bit
//	?mode=coreset  answered from a local sensitivity-sampled coreset
//	               model derived at fit time (lof.Model.Coreset), no
//	               shard RPCs at all; falls back to exact when disabled
package coord

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lof"
	"lof/internal/client"
	"lof/internal/front"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/matdb"
	"lof/internal/obs"
	"lof/internal/pool"
	"lof/internal/server"
	"lof/internal/shard"
	"lof/internal/trace"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Targets lists the replica URLs of each shard: Targets[s] are
	// interchangeable replicas all serving shard s. Required, one entry per
	// shard, each non-empty.
	Targets [][]string
	// Client is the template for per-replica clients; its BaseURL is
	// ignored. The zero value takes the client package defaults.
	Client client.Config
	// Hedge is the delay before a data request is hedged to the next
	// replica of a shard; 0 or negative leaves pure failover-on-error.
	Hedge time.Duration
	// Partitioner is the point→shard assignment rule.
	Partitioner shard.Partitioner
	// CoresetSample sizes the sensitivity-sampled coreset model kept for
	// ?mode=coreset serving and as the ?mode=degraded fallback for shard
	// outages. Zero means 2048; negative disables it, and both modes then
	// answer exactly or fail.
	CoresetSample int
	// Workers bounds the coordinator-side merge and scoring parallelism per
	// batch. Zero means GOMAXPROCS.
	Workers int
	// RepairInterval paces the background repair loop. Default 2s.
	RepairInterval time.Duration
	// Logger receives coordinator events and one line per request. Nil
	// discards.
	Logger *slog.Logger
	// Trace collects distributed-tracing spans for coordinator requests and
	// scatter-gather rounds; nil disables tracing.
	Trace *trace.Collector
}

// state is the installed serving state: everything a score request needs,
// swapped atomically on fit.
type state struct {
	version uint64
	meta    shard.Meta
	info    ModelInfo
	// model scores every merged query row. Its points resolve
	// distinct-rank coordinates in the merge, and its summaries, built on
	// the version's first pruned request, certify pruned mode; exact
	// traffic never builds them (DESIGN.md §12).
	model *lof.Model
	// parts holds each shard's encoded part (ids and coordinates), pushed
	// on install and on every repair re-push.
	parts   [][]byte
	coreset *lof.Model
	// pruned counts the version's summary build on its first pruned
	// request.
	pruned sync.Once
}

// ModelInfo mirrors the single-node server's model summary, so the same
// clients understand both.
type ModelInfo struct {
	Objects  int    `json:"objects"`
	Dims     int    `json:"dims"`
	MinPtsLB int    `json:"minPtsLB"`
	MinPtsUB int    `json:"minPtsUB"`
	Metric   string `json:"metric"`
	Distinct bool   `json:"distinct"`
	Shards   int    `json:"shards,omitempty"`
	Version  uint64 `json:"version,omitempty"`
}

// Coordinator owns the replica sets and the installed state. Safe for
// concurrent use; fits are serialized.
type Coordinator struct {
	cfg      Config
	replicas []*client.ReplicaSet
	pool     *pool.Pool
	state    atomic.Pointer[state]
	version  atomic.Uint64

	fitMu sync.Mutex

	// Per-shard observability: RPC latency and failures by shard index.
	shardLatency []*obs.Histogram
	shardFails   []atomic.Int64
	repairPushes *atomic.Int64
	fits         *atomic.Int64
	scorePoints  *atomic.Int64
	// scoreModes counts score requests by the mode that actually served
	// them; certified counts pruned-mode queries certified without exact
	// evaluation, and summaryBuilds the versions whose summaries were built.
	scoreModes    map[string]*atomic.Int64
	certified     *atomic.Int64
	summaryBuilds *atomic.Int64

	front *front.Front
}

// New validates cfg and returns a Coordinator with one client per replica.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Targets) == 0 {
		return nil, errors.New("coord: at least one shard target is required")
	}
	if cfg.CoresetSample == 0 {
		cfg.CoresetSample = 2048
	}
	if cfg.RepairInterval <= 0 {
		cfg.RepairInterval = 2 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	c := &Coordinator{
		cfg:          cfg,
		replicas:     make([]*client.ReplicaSet, len(cfg.Targets)),
		pool:         pool.New(cfg.Workers),
		shardLatency: make([]*obs.Histogram, len(cfg.Targets)),
		shardFails:   make([]atomic.Int64, len(cfg.Targets)),
		front:        front.New(front.Config{Prefix: "lof_coord_http_", Logger: cfg.Logger, Trace: cfg.Trace}),
	}
	c.front.Handle("POST /v1/fit", c.handleFit)
	c.front.Handle("POST /v1/score", c.handleScore)
	c.front.Handle("GET /v1/model", c.handleModel)
	c.front.HandleFunc("GET /healthz", c.handleHealthz)
	c.front.HandleFunc("GET /readyz", c.handleReadyz)
	c.declareMetrics(c.front.Metrics)
	for s, urls := range cfg.Targets {
		rs, err := client.NewReplicaSet(urls, cfg.Client)
		if err != nil {
			return nil, fmt.Errorf("coord: shard %d: %w", s, err)
		}
		c.replicas[s] = rs
		c.shardLatency[s] = obs.NewHistogram(obs.DefaultLatencyBuckets)
	}
	return c, nil
}

// Shards returns the configured shard count.
func (c *Coordinator) Shards() int { return len(c.replicas) }

// Info returns the installed model summary, or false when none is.
func (c *Coordinator) Info() (ModelInfo, bool) {
	st := c.state.Load()
	if st == nil {
		return ModelInfo{}, false
	}
	return st.info, true
}

// Version returns the installed snapshot version (0 before the first fit).
func (c *Coordinator) Version() uint64 {
	if st := c.state.Load(); st != nil {
		return st.version
	}
	return 0
}

// Fit fits the model globally, splits its points, and replicates one part
// per shard. The new version serves once every shard has acknowledged the
// push on at least one replica; remaining replicas are brought up to date
// by the repair loop. The coordinator keeps the model, the parts'
// encodings and the small coreset.
func (c *Coordinator) Fit(ctx context.Context, fitCfg server.FitConfig, data [][]float64) (ModelInfo, error) {
	c.fitMu.Lock()
	defer c.fitMu.Unlock()
	det, err := fitCfg.Detector()
	if err != nil {
		return ModelInfo{}, err
	}
	res, err := det.FitContext(ctx, data)
	if err != nil {
		return ModelInfo{}, err
	}
	m, err := res.Model()
	if err != nil {
		return ModelInfo{}, err
	}
	st, err := c.buildState(m)
	if err != nil {
		return ModelInfo{}, err
	}
	if err := c.distribute(ctx, st); err != nil {
		return ModelInfo{}, err
	}
	c.state.Store(st)
	c.fits.Add(1)
	c.log(ctx, slog.LevelInfo, "model distributed",
		slog.Uint64("version", st.version),
		slog.Int("shards", len(c.replicas)),
		slog.Int("objects", st.info.Objects))
	return st.info, nil
}

// Install splits and replicates an already-fitted model — the preload path
// (lofcoord -model) and the test seam. The coordinator scores with m,
// through its own pool of Config.Workers.
func (c *Coordinator) Install(ctx context.Context, m *lof.Model) (ModelInfo, error) {
	c.fitMu.Lock()
	defer c.fitMu.Unlock()
	st, err := c.buildState(m)
	if err != nil {
		return ModelInfo{}, err
	}
	if err := c.distribute(ctx, st); err != nil {
		return ModelInfo{}, err
	}
	c.state.Store(st)
	return st.info, nil
}

// buildState splits m's points into per-shard parts under a fresh version,
// encodes them, and derives the coreset.
func (c *Coordinator) buildState(m *lof.Model) (*state, error) {
	pts, db := m.Fitted()
	mcfg := m.Config()
	version := c.version.Add(1)
	meta := shard.Meta{Metric: mcfg.Metric, Weights: mcfg.Weights}
	parts, err := shard.Split(pts, db, meta, len(c.replicas), c.cfg.Partitioner, version)
	if err != nil {
		return nil, fmt.Errorf("coord: splitting model: %w", err)
	}
	st := &state{
		version: version,
		meta:    parts[0].Meta(),
		model:   m.WithWorkers(c.cfg.Workers),
		parts:   make([][]byte, len(parts)),
	}
	for s, p := range parts {
		if st.parts[s], err = shard.EncodePart(p); err != nil {
			return nil, fmt.Errorf("coord: encoding part %d: %w", s, err)
		}
	}
	metric := mcfg.Metric
	if metric == "" {
		metric = "euclidean"
	}
	if mcfg.Weights != nil {
		metric = "weighted-euclidean"
	}
	st.info = ModelInfo{
		Objects: pts.Len(), Dims: pts.Dim(),
		MinPtsLB: mcfg.MinPtsLB, MinPtsUB: mcfg.MinPtsUB,
		Metric: metric, Distinct: mcfg.Distinct,
		Shards: len(parts), Version: version,
	}
	if c.cfg.CoresetSample > 0 {
		if cs, err := m.Coreset(c.cfg.CoresetSample); err == nil {
			st.coreset = cs
		}
	}
	return st, nil
}

// distribute pushes every shard's snapshot to all of its replicas in
// parallel. A shard is distributed once any replica acknowledges; a shard
// with zero successful replicas fails the distribution.
func (c *Coordinator) distribute(ctx context.Context, st *state) error {
	type push struct{ s, r int }
	var work []push
	for s := range c.replicas {
		for r := range c.replicas[s].Clients() {
			work = append(work, push{s, r})
		}
	}
	okByShard := make([]atomic.Int64, len(c.replicas))
	errsByShard := make([]atomic.Pointer[error], len(c.replicas))
	var wg sync.WaitGroup
	for _, w := range work {
		wg.Add(1)
		go func(w push) {
			defer wg.Done()
			cl := c.replicas[w.s].Clients()[w.r]
			if _, err := cl.PushSnapshot(ctx, st.parts[w.s]); err != nil {
				errsByShard[w.s].Store(&err)
				return
			}
			okByShard[w.s].Add(1)
		}(w)
	}
	wg.Wait()
	for s := range c.replicas {
		if okByShard[s].Load() == 0 {
			err := fmt.Errorf("no replica reachable")
			if p := errsByShard[s].Load(); p != nil {
				err = *p
			}
			return fmt.Errorf("coord: distributing snapshot to shard %d: %w", s, err)
		}
	}
	return nil
}

// errNoModel distinguishes "nothing fitted yet" for the HTTP layer.
var errNoModel = errors.New("coord: no fitted model")

// shardError marks a scatter-gather round that lost a shard, or got an
// answer from it that the layout refutes — the class of failure degraded
// mode may absorb.
type shardError struct {
	shard int
	err   error
}

func (e *shardError) Error() string {
	return fmt.Sprintf("coord: shard %d unavailable: %v", e.shard, e.err)
}

func (e *shardError) Unwrap() error { return e.err }

// Score answers a batch of queries under the requested mode:
//
//	""/"full"  exact scatter-gather; a shard outage fails the request
//	"degraded" exact, but a shard outage is absorbed by the local
//	           coreset model, the return marked "degraded"
//	"pruned"   band-certified: queries whose LOF interval lies inside
//	           1±eps answer 1 without evaluation; the rest answer
//	           exactly
//	"coreset"  served from the local coreset model; exact when disabled
//
// The returned mode is what actually served ("" for exact), and certified
// is the number of pruned-mode queries answered from the bound alone.
func (c *Coordinator) Score(ctx context.Context, queries [][]float64, mode string) ([]float64, string, int, error) {
	st := c.state.Load()
	if st == nil {
		return nil, "", 0, errNoModel
	}
	for i, q := range queries {
		if len(q) != st.model.Dim() {
			return nil, "", 0, fmt.Errorf("coord: batch row %d has %d dimensions, model expects %d", i, len(q), st.model.Dim())
		}
		if !geom.Point(q).Valid() {
			return nil, "", 0, fmt.Errorf("coord: batch row %d has non-finite coordinates", i)
		}
	}
	if mode == "coreset" && st.coreset != nil {
		scores, err := st.coreset.ScoreBatchContext(ctx, queries)
		if err != nil {
			return nil, "", 0, err
		}
		c.scorePoints.Add(int64(len(queries)))
		c.scoreModes[front.ModeCoreset].Add(1)
		return scores, "coreset", 0, nil
	}
	pruned := mode == "pruned"
	scores, certified, err := c.score(ctx, st, queries, pruned)
	if err == nil {
		c.scorePoints.Add(int64(len(queries)))
		if pruned {
			c.scoreModes[front.ModePruned].Add(1)
			c.certified.Add(int64(certified))
			return scores, "pruned", certified, nil
		}
		c.scoreModes[front.ModeFull].Add(1)
		return scores, "", 0, nil
	}
	var se *shardError
	if errors.As(err, &se) && mode == "degraded" && st.coreset != nil {
		if ctx.Err() != nil {
			return nil, "", 0, err
		}
		c.log(ctx, slog.LevelWarn, "serving degraded",
			slog.Int("shard", se.shard), slog.String("cause", se.err.Error()))
		dsp, dctx := trace.StartSpan(ctx, "coord/degraded")
		dsp.SetAttrInt("shard", int64(se.shard))
		dsp.SetAttr("cause", se.err.Error())
		scores, derr := st.coreset.ScoreBatchContext(dctx, queries)
		dsp.End()
		if derr != nil {
			return nil, "", 0, fmt.Errorf("coord: degraded fallback after %v: %w", err, derr)
		}
		c.scorePoints.Add(int64(len(queries)))
		c.scoreModes[front.ModeDegraded].Add(1)
		return scores, "degraded", 0, nil
	}
	return nil, "", 0, err
}

// shardCall runs op against a shard's replica set with hedging, records
// per-shard latency and failures, and traces the whole hedged call as one
// named span (replica attempts appear as its children) carrying, for frame
// answers, their size in bytes — per-shard transport, readable in
// /debug/traces.
func shardCall[T any](ctx context.Context, c *Coordinator, s int, name string, op func(context.Context, *client.Client) (T, error)) (T, error) {
	sp, sctx := trace.StartSpan(ctx, name)
	sp.SetAttrInt("shard", int64(s))
	start := time.Now()
	v, err := client.Hedged(sctx, c.replicas[s], c.cfg.Hedge, op)
	c.shardLatency[s].Observe(time.Since(start))
	if err != nil {
		c.shardFails[s].Add(1)
		sp.SetError(err.Error())
	} else if f, ok := any(v).(*shard.Frame); ok && sp != nil {
		sp.SetAttrInt("bytes", int64(f.Size()))
	}
	sp.End()
	return v, err
}

// score answers a batch: the candidates round merges every query's global
// row, and the model scores the rows — with pruned set, certifying first
// as lof.Model.ScoreBatchPruned does, with lof.DefaultPruneEps. It returns
// the scores and the number of certified queries.
func (c *Coordinator) score(ctx context.Context, st *state, queries [][]float64, pruned bool) ([]float64, int, error) {
	rows, err := c.mergeQueryRows(ctx, st, queries)
	if err != nil {
		return nil, 0, err
	}
	eps := 0.0
	if pruned {
		eps = lof.DefaultPruneEps
		st.pruned.Do(func() { c.summaryBuilds.Add(1) })
	}
	ssp, sctx := trace.StartSpan(ctx, "coord/score")
	defer ssp.End()
	pb, err := st.model.ScoreQueryRows(sctx, queries, rows, eps)
	if err != nil {
		ssp.SetError(err.Error())
		return nil, 0, fmt.Errorf("coord: %w", err)
	}
	ssp.SetAttrInt("certified", int64(pb.Certified))
	return pb.Scores, pb.Certified, nil
}

// mergeQueryRows runs the candidates round: it merges every query's global
// row from per-shard candidates. A replica whose answer the layout refutes
// (checkOwned) has failed like one that did not answer: its siblings are
// tried, and a shard none of whose replicas answers acceptably fails the
// round.
func (c *Coordinator) mergeQueryRows(ctx context.Context, st *state, queries [][]float64) ([]matdb.Row, error) {
	nq := len(queries)
	pts, _ := st.model.Fitted()
	dim := pts.Dim()

	// Per-partition candidates from every shard, in parallel.
	req := &shard.Frame{Kind: shard.KindCandidatesRequest, Distinct: st.meta.Distinct, Version: st.version, Dim: dim}
	req.Queries = make([]float64, 0, nq*dim)
	for _, q := range queries {
		req.Queries = append(req.Queries, q...)
	}
	answers := make([]*shard.Frame, len(c.replicas))
	csp, cctx := trace.StartSpan(ctx, "coord/candidates")
	csp.SetAttrInt("queries", int64(nq))
	err := c.eachShard(cctx, func(s int) error {
		f, err := shardCall(cctx, c, s, "rpc/candidates", func(ctx context.Context, cl *client.Client) (*shard.Frame, error) {
			f, err := cl.Candidates(ctx, req)
			if err == nil {
				err = c.checkOwned(st, s, f)
			}
			return f, err
		})
		answers[s] = f
		return err
	})
	if err != nil {
		csp.SetError(err.Error())
	}
	csp.End()
	if err != nil {
		return nil, err
	}

	// Merge each query's global row locally; coordinate lookups for
	// distinct-rank recomputation come from the model's points.
	msp, _ := trace.StartSpan(ctx, "coord/merge")
	starts := make([][]int, len(answers)) // starts[s][qi]: query qi's first entry in shard s's answer
	for s, f := range answers {
		starts[s] = make([]int, nq+1)
		for qi, n := range f.Counts {
			starts[s][qi+1] = starts[s][qi] + int(n)
		}
	}
	rows := make([]matdb.Row, nq)
	mergeErrs := make([]error, nq)
	c.pool.Each(nq, func(qi int) {
		var cands []index.Neighbor
		for s, f := range answers {
			cands = append(cands, f.Entries[starts[s][qi]:starts[s][qi+1]]...)
		}
		rows[qi], mergeErrs[qi] = matdb.MergeCandidates(cands, pts.At, st.meta.K, st.meta.Distinct)
	})
	for qi, err := range mergeErrs {
		if err != nil {
			msp.SetError(err.Error())
			msp.End()
			return nil, fmt.Errorf("coord: merging query %d: %w", qi, err)
		}
	}
	msp.End()
	return rows, nil
}

// checkOwned refuses shard s's answer when it holds a candidate id outside
// the fitted points, one the partitioner assigns to another shard, or one
// id twice for one query: the shard disagrees with the layout it was
// pushed, so nothing it answered can be trusted, and an id outside the
// model would index past its rows.
func (c *Coordinator) checkOwned(st *state, s int, f *shard.Frame) error {
	n, total := len(c.replicas), st.meta.Total
	// seen is an open-addressed set of one query's ids (stored as id+1, 0
	// marking an empty cell), at most half full.
	var seen []int
	at := 0
	for qi, count := range f.Counts {
		size := 1
		for size < 2*int(count) {
			size <<= 1
		}
		if len(seen) < size {
			seen = make([]int, size)
		}
		set := seen[:size]
		clear(set)
		for _, e := range f.Entries[at : at+int(count)] {
			if e.Index >= total {
				return fmt.Errorf("answer holds candidate id %d outside the %d fitted points", e.Index, total)
			}
			if owner := c.cfg.Partitioner.Shard(uint32(e.Index), n, total); owner != s {
				return fmt.Errorf("answer holds candidate id %d, which shard %d owns", e.Index, owner)
			}
			h := (e.Index * 0x9E3779B1) & (size - 1)
			for set[h] != 0 && set[h] != e.Index+1 {
				h = (h + 1) & (size - 1)
			}
			if set[h] != 0 {
				return fmt.Errorf("answer repeats candidate id %d for query %d", e.Index, qi)
			}
			set[h] = e.Index + 1
		}
		at += int(count)
	}
	return nil
}

// eachShard runs fn for every shard concurrently and returns the first
// error, wrapped as a shardError unless the shard rejected the batch as
// too large — the caller's error, which degraded mode must not absorb.
func (c *Coordinator) eachShard(ctx context.Context, fn func(s int) error) error {
	errs := make([]error, len(c.replicas))
	var wg sync.WaitGroup
	for s := range c.replicas {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		switch {
		case err == nil:
		case client.StatusCode(err) == http.StatusRequestEntityTooLarge:
			return fmt.Errorf("coord: shard %d: %w", s, err)
		default:
			return &shardError{shard: s, err: err}
		}
	}
	return nil
}

// Repair runs one repair sweep: every replica reporting unreachable,
// unready, or a version other than the installed one gets the current
// snapshot re-pushed. Returns the number of pushes performed.
func (c *Coordinator) Repair(ctx context.Context) int {
	st := c.state.Load()
	if st == nil {
		return 0
	}
	var pushes atomic.Int64
	var wg sync.WaitGroup
	for s := range c.replicas {
		for _, cl := range c.replicas[s].Clients() {
			wg.Add(1)
			go func(s int, cl *client.Client) {
				defer wg.Done()
				info, err := cl.Readyz(ctx)
				if err == nil && info.Ready && info.Version == st.version {
					return
				}
				if ctx.Err() != nil {
					return
				}
				if _, err := cl.PushSnapshot(ctx, st.parts[s]); err == nil {
					pushes.Add(1)
					c.log(ctx, slog.LevelInfo, "repaired replica",
						slog.Int("shard", s), slog.Uint64("version", st.version))
				}
			}(s, cl)
		}
	}
	wg.Wait()
	n := int(pushes.Load())
	c.repairPushes.Add(int64(n))
	return n
}

// Run drives the repair loop until ctx is cancelled.
func (c *Coordinator) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Repair(ctx)
		}
	}
}

// log writes one coordinator event when a logger is configured.
func (c *Coordinator) log(ctx context.Context, level slog.Level, msg string, attrs ...slog.Attr) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.LogAttrs(ctx, level, msg, attrs...)
	}
}

// declareMetrics declares the coordinator's own metric families in reg,
// after the front end's route and trace families.
func (c *Coordinator) declareMetrics(reg *obs.Registry) {
	c.fits = reg.Counter("lof_coord_fits_total", "Models fitted and distributed by this coordinator.")
	c.scorePoints = reg.Counter("lof_coord_score_points_total", "Query points answered, in every score mode.")
	c.scoreModes = reg.CounterVec("lof_coord_score_mode_total", "Score requests by the mode that served them.", "mode", front.Modes...)
	c.certified = reg.Counter("lof_coord_pruned_certified_total", "Pruned-mode queries certified without exact evaluation.")
	c.summaryBuilds = reg.Counter("lof_coord_pruned_summary_builds_total", "Pruned-mode summary builds: one per installed version, on its first pruned request.")
	c.repairPushes = reg.Counter("lof_coord_repair_pushes_total", "Snapshot re-pushes performed by the repair loop.")
	reg.Gauge("lof_coord_snapshot_version", "Installed snapshot version.", func() (float64, bool) { return float64(c.Version()), true })
	reg.Family("lof_coord_shard_failures_total", "counter", "Failed shard RPC rounds by shard.", func(p *obs.PromWriter) {
		for s := range c.shardFails {
			p.IntSample("lof_coord_shard_failures_total", c.shardFails[s].Load(), "shard", strconv.Itoa(s))
		}
	})
	reg.Family("lof_coord_shard_rpc_duration_seconds", "histogram", "Shard RPC round latency by shard (hedging included).", func(p *obs.PromWriter) {
		for s, h := range c.shardLatency {
			p.Histo("lof_coord_shard_rpc_duration_seconds", h.Snapshot(), "shard", strconv.Itoa(s))
		}
	})
}
