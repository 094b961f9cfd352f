// Package coord implements the lofcoord scatter-gather coordinator: the
// control and query plane of the sharded LOF serving tier. It fits a model
// globally, splits the fitted state into per-shard sub-snapshots
// (shard.Split), replicates them to lofserve shard processes, and answers
// score requests by a three-round scatter-gather that reassembles exact
// global LOF:
//
//	round 1  every shard returns its partition's kNN candidates for the
//	         query batch; the coordinator merges them into each query's
//	         exact global row (matdb.MergeCandidates)
//	round 2  the merged rows of each query's neighborhood are fetched from
//	         their owning shards (matdb.SpliceRow applied shard-side)
//	round 3  the rows of those rows' neighbors — the two-hop closure the
//	         LOF arithmetic touches — are fetched the same way
//
// Evaluation then runs core.EvalAt over the fetched rows: literally the
// code path the in-process scorer uses, which is what makes a distributed
// score bit-identical to a single-node one.
//
// Failure policy: per-shard calls hedge across replicas (first success
// wins); when a whole shard is unreachable, a request that opted into
// ?mode=degraded is answered from the local coreset model with the
// response marked "degraded", and any other request fails with a gateway
// error — never a silently wrong exact score. A shard that rejects the
// batch as too large (413) is not an outage: the caller gets the 413. A
// background repair loop re-pushes snapshots to replicas that report
// unready or stale.
//
// Approximate modes ride the same scatter-gather machinery:
//
//	?mode=pruned   rounds 1 and 2 run as usual, but instead of fetching
//	               the full second-hop row closure, the coordinator
//	               fetches lightweight stored k-distance envelopes
//	               (POST /v1/shard/kdists) and certifies queries whose
//	               LOF interval (approx.MergedQueryBounds) lies inside
//	               the 1±eps band as exactly 1; only uncertain queries
//	               pay for round 3 and exact evaluation
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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lof"
	"lof/internal/approx"
	"lof/internal/client"
	"lof/internal/core"
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
	// PruneEps is the ?mode=pruned certification band half-width: queries
	// whose LOF interval lies inside [1/(1+eps), 1+eps] are answered 1
	// without exact evaluation. Zero means lof.DefaultPruneEps.
	PruneEps float64
	// Workers bounds the coordinator-side merge/eval parallelism per batch.
	// Zero means GOMAXPROCS.
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
	dim     int
	lb, ub  int
	agg     core.Aggregate
	info    ModelInfo
	encoded [][]byte // per-shard snapshots, kept for repair re-pushes
	coreset *lof.Model
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
	// evaluation.
	scoreModes map[string]*atomic.Int64
	certified  *atomic.Int64

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
	if cfg.PruneEps == 0 {
		cfg.PruneEps = lof.DefaultPruneEps
	}
	if cfg.RepairInterval <= 0 {
		cfg.RepairInterval = 2 * time.Second
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

// Fit fits the model globally, splits it, and replicates one sub-snapshot
// per shard. The new version serves once every shard has acknowledged the
// push on at least one replica; remaining replicas are brought up to date
// by the repair loop. The full fitted model is released after the split —
// the coordinator keeps only the encoded parts and the small coreset.
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
// (lofcoord -model) and the test seam.
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

// buildState splits m into encoded per-shard snapshots under a fresh
// version and derives the coreset.
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
		dim:     pts.Dim(),
		lb:      mcfg.MinPtsLB,
		ub:      mcfg.MinPtsUB,
		agg:     coreAggregate(mcfg.Aggregation),
		encoded: make([][]byte, len(parts)),
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
	for s, p := range parts {
		if st.encoded[s], err = shard.EncodePart(p); err != nil {
			return nil, fmt.Errorf("coord: encoding shard %d: %w", s, err)
		}
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
			if _, err := cl.PushSnapshot(ctx, st.encoded[w.s]); err != nil {
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

// shardError marks a scatter-gather round that lost a shard — the class of
// failure degraded mode may absorb.
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
//	           1±eps answer 1 without round 3; the rest answer exactly
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
		if len(q) != st.dim {
			return nil, "", 0, fmt.Errorf("coord: batch row %d has %d dimensions, model expects %d", i, len(q), st.dim)
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
	if mode == "pruned" {
		scores, certified, err := c.scorePruned(ctx, st, queries)
		if err != nil {
			return nil, "", 0, err
		}
		c.scorePoints.Add(int64(len(queries)))
		c.scoreModes[front.ModePruned].Add(1)
		c.certified.Add(int64(certified))
		return scores, "pruned", certified, nil
	}
	scores, err := c.scoreExact(ctx, st, queries)
	if err == nil {
		c.scorePoints.Add(int64(len(queries)))
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
// named span (replica attempts appear as its children).
func shardCall[T any](ctx context.Context, c *Coordinator, s int, name string, op func(context.Context, *client.Client) (T, error)) (T, error) {
	sp, sctx := trace.StartSpan(ctx, name)
	sp.SetAttrInt("shard", int64(s))
	start := time.Now()
	v, err := client.Hedged(sctx, c.replicas[s], c.cfg.Hedge, op)
	c.shardLatency[s].Observe(time.Since(start))
	if err != nil {
		c.shardFails[s].Add(1)
		sp.SetError(err.Error())
	}
	sp.End()
	return v, err
}

// gathered is the product of scatter-gather rounds 1 and 2, shared by the
// exact and pruned scoring paths: each query's merged global row, its
// first-hop neighbor ids, and the merged rows fetched so far.
type gathered struct {
	qRows []matdb.Row
	first [][]int
	rows  []map[int]matdb.Row
}

// secondHopIDs returns the ids of query qi's second-hop closure — the
// neighbors of its first-hop rows not yet fetched — deduplicated.
func (g *gathered) secondHopIDs(st *state, qi int) []int {
	var second []int
	seen := make(map[int]bool)
	for _, id := range g.first[qi] {
		for _, nid := range neighborIDs(g.rows[qi][id], st.ub, st.meta.Total, g.rows[qi]) {
			if !seen[nid] {
				seen[nid] = true
				second = append(second, nid)
			}
		}
	}
	return second
}

// scoreExact runs the three-round scatter-gather and evaluation.
func (c *Coordinator) scoreExact(ctx context.Context, st *state, queries [][]float64) ([]float64, error) {
	g, err := c.gatherFirstHop(ctx, st, queries)
	if err != nil {
		return nil, err
	}
	need := make([][]int, len(queries))
	for qi := range need {
		need[qi] = g.secondHopIDs(st, qi)
	}
	if err := c.fetchRowsSpan(ctx, st, queries, need, g.rows, 3); err != nil {
		return nil, err
	}
	out := make([]float64, len(queries))
	if err := c.evalInto(ctx, st, g, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// scorePruned is the band-certified scoring path: rounds 1 and 2 run as in
// the exact path, then — instead of the round-3 row closure — the
// coordinator fetches stored k-distance envelopes for the second-hop ids
// and brackets every query's whole LOF series (approx.MergedQueryBounds).
// A query whose interval lies inside 1±eps is certified ≈1 and answered 1
// on the spot; the uncertain remainder pays for round 3 and evaluates
// exactly, bit-identical to scoreExact.
func (c *Coordinator) scorePruned(ctx context.Context, st *state, queries [][]float64) ([]float64, int, error) {
	g, err := c.gatherFirstHop(ctx, st, queries)
	if err != nil {
		return nil, 0, err
	}
	nq := len(queries)
	qIdx := st.meta.Total
	second := make([][]int, nq)
	var union []int
	inUnion := make(map[int]bool)
	for qi := range second {
		second[qi] = g.secondHopIDs(st, qi)
		for _, id := range second[qi] {
			if !inUnion[id] {
				inUnion[id] = true
				union = append(union, id)
			}
		}
	}
	env, err := c.fetchKDists(ctx, st, union)
	if err != nil {
		return nil, 0, err
	}
	eps := c.cfg.PruneEps
	out := make([]float64, nq)
	skip := make([]bool, nq)
	uncertain := make([][]int, nq)
	c.pool.Each(nq, func(qi int) {
		rowOf := func(i int) (matdb.Row, bool) {
			r, ok := g.rows[qi][i]
			return r, ok
		}
		kdEnv := func(i int) (lo, hi float64, ok bool) {
			// First-hop rows are merged (the query already spliced in), so
			// their k-distances are exact at both range ends; everything
			// else uses the stored envelope from the kdists round.
			if r, found := g.rows[qi][i]; found {
				return r.KDistance(st.lb), r.KDistance(st.ub), true
			}
			e, found := env[i]
			return e[0], e[1], found
		}
		lower, upper := approx.MergedQueryBounds(g.qRows[qi], qIdx, rowOf, kdEnv, st.lb, st.ub)
		if approx.Certified(lower, upper, eps) {
			out[qi] = 1
			skip[qi] = true
		} else {
			uncertain[qi] = second[qi]
		}
	})
	certified := 0
	for _, s := range skip {
		if s {
			certified++
		}
	}
	if certified < nq {
		if err := c.fetchRowsSpan(ctx, st, queries, uncertain, g.rows, 3); err != nil {
			return nil, 0, err
		}
		if err := c.evalInto(ctx, st, g, out, skip); err != nil {
			return nil, 0, err
		}
	}
	return out, certified, nil
}

// fetchKDists fetches the stored k-distance envelopes [kd_{lb-1}, kd_ub]
// of ids from their owning shards — the lightweight substitute for the
// round-3 row closure on the pruned path. The lower rank is lb-1 because
// splicing the query into a stored neighborhood can shift every rank down
// by at most one.
func (c *Coordinator) fetchKDists(ctx context.Context, st *state, ids []int) (map[int][2]float64, error) {
	sp, sctx := trace.StartSpan(ctx, "coord/kdists")
	sp.SetAttrInt("ids", int64(len(ids)))
	defer sp.End()
	byShard := make([][]uint32, len(c.replicas))
	for _, id := range ids {
		s := c.cfg.Partitioner.Shard(uint32(id), len(c.replicas), st.meta.Total)
		byShard[s] = append(byShard[s], uint32(id))
	}
	env := make(map[int][2]float64, len(ids))
	var mu sync.Mutex
	err := c.eachShard(sctx, func(s int) error {
		if len(byShard[s]) == 0 {
			return nil
		}
		resp, err := shardCall(sctx, c, s, "rpc/kdists", func(ctx context.Context, cl *client.Client) (*shard.KDistsResponse, error) {
			return cl.KDists(ctx, st.version, byShard[s], st.lb-1, st.ub)
		})
		if err != nil {
			return err
		}
		if len(resp.Lo) != len(byShard[s]) || len(resp.Hi) != len(byShard[s]) {
			return fmt.Errorf("shard %d returned %d/%d envelopes for %d ids",
				s, len(resp.Lo), len(resp.Hi), len(byShard[s]))
		}
		mu.Lock()
		defer mu.Unlock()
		for i, id := range byShard[s] {
			env[int(id)] = [2]float64{resp.Lo[i], resp.Hi[i]}
		}
		return nil
	})
	if err != nil {
		sp.SetError(err.Error())
		return nil, err
	}
	return env, nil
}

// gatherFirstHop runs scatter-gather rounds 1 and 2: merge every query's
// global row from per-shard candidates, then fetch the merged rows of its
// first-hop neighborhood.
func (c *Coordinator) gatherFirstHop(ctx context.Context, st *state, queries [][]float64) (*gathered, error) {
	nq := len(queries)
	qIdx := st.meta.Total

	// Round 1: per-partition candidates from every shard, in parallel.
	candsByShard := make([][][]shard.WireCandidate, len(c.replicas))
	csp, cctx := trace.StartSpan(ctx, "coord/candidates")
	csp.SetAttrInt("queries", int64(nq))
	err := c.eachShard(cctx, func(s int) error {
		resp, err := shardCall(cctx, c, s, "rpc/candidates", func(ctx context.Context, cl *client.Client) (*shard.CandidatesResponse, error) {
			return cl.Candidates(ctx, st.version, queries)
		})
		if err != nil {
			return err
		}
		if len(resp.Candidates) != nq {
			return fmt.Errorf("shard %d returned %d candidate lists for %d queries", s, len(resp.Candidates), nq)
		}
		candsByShard[s] = resp.Candidates
		return nil
	})
	if err != nil {
		csp.SetError(err.Error())
	}
	csp.End()
	if err != nil {
		return nil, err
	}

	// Merge each query's global row locally; coordinate lookups for
	// distinct-rank recomputation come from the candidate payloads.
	msp, _ := trace.StartSpan(ctx, "coord/merge")
	qRows := make([]matdb.Row, nq)
	coords := make([]map[int]geom.Point, nq)
	mergeErrs := make([]error, nq)
	c.pool.Each(nq, func(qi int) {
		var cands []index.Neighbor
		var at func(int) geom.Point
		if st.meta.Distinct {
			cm := make(map[int]geom.Point)
			for s := range candsByShard {
				for _, cand := range candsByShard[s][qi] {
					cands = append(cands, cand.Neighbor())
					cm[int(cand.ID)] = cand.Point
				}
			}
			coords[qi] = cm
			at = func(i int) geom.Point {
				if i == qIdx {
					return queries[qi]
				}
				return cm[i]
			}
		} else {
			for s := range candsByShard {
				for _, cand := range candsByShard[s][qi] {
					cands = append(cands, cand.Neighbor())
				}
			}
		}
		qRows[qi], mergeErrs[qi] = matdb.MergeCandidates(cands, at, st.meta.K, st.meta.Distinct)
	})
	for qi, err := range mergeErrs {
		if err != nil {
			msp.SetError(err.Error())
			msp.End()
			return nil, fmt.Errorf("coord: merging query %d: %w", qi, err)
		}
	}
	msp.End()

	// Round 2: fetch the merged rows of each query's first-hop
	// neighborhood.
	rows := make([]map[int]matdb.Row, nq)
	for qi := range rows {
		rows[qi] = make(map[int]matdb.Row)
	}
	first := make([][]int, nq)
	for qi := range first {
		first[qi] = neighborIDs(qRows[qi], st.ub, qIdx, rows[qi])
	}
	if err := c.fetchRowsSpan(ctx, st, queries, first, rows, 2); err != nil {
		return nil, err
	}
	return &gathered{qRows: qRows, first: first, rows: rows}, nil
}

// evalInto evaluates every query not marked in skip — the same core.EvalAt
// the in-process scorer runs — writing scores into out. A nil skip
// evaluates everything.
func (c *Coordinator) evalInto(ctx context.Context, st *state, g *gathered, out []float64, skip []bool) error {
	esp, _ := trace.StartSpan(ctx, "coord/eval")
	defer esp.End()
	nq := len(out)
	qIdx := st.meta.Total
	evalErrs := make([]error, nq)
	c.pool.Each(nq, func(qi int) {
		if skip != nil && skip[qi] {
			return
		}
		missing := -1
		rowOf := func(i int) matdb.Row {
			r, ok := g.rows[qi][i]
			if !ok && missing < 0 {
				missing = i
			}
			return r
		}
		series := make([]float64, st.ub-st.lb+1)
		for j := range series {
			series[j] = core.EvalAt(qIdx, g.qRows[qi], rowOf, st.lb+j)
		}
		if missing >= 0 {
			evalErrs[qi] = fmt.Errorf("coord: query %d: merged row %d missing from the fetched closure", qi, missing)
			return
		}
		out[qi] = core.ScoreAggregate(series, st.agg)
	})
	for _, err := range evalErrs {
		if err != nil {
			return err
		}
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

// neighborIDs returns the ids in row's ub-neighborhood that are real points
// (not the query) and not already fetched.
func neighborIDs(row matdb.Row, ub, qIdx int, have map[int]matdb.Row) []int {
	var out []int
	for _, nb := range row.Neighborhood(ub) {
		if nb.Index == qIdx {
			continue
		}
		if _, ok := have[nb.Index]; ok {
			continue
		}
		out = append(out, nb.Index)
	}
	return out
}

// fetchRowsSpan wraps one fetchRows round in a "coord/rows" span labeled
// with its scatter-gather round number.
func (c *Coordinator) fetchRowsSpan(ctx context.Context, st *state, queries [][]float64, need [][]int, rows []map[int]matdb.Row, round int) error {
	sp, sctx := trace.StartSpan(ctx, "coord/rows")
	sp.SetAttrInt("round", int64(round))
	err := c.fetchRows(sctx, st, queries, need, rows)
	if err != nil {
		sp.SetError(err.Error())
	}
	sp.End()
	return err
}

// fetchRows fetches the merged rows of need[qi] for every query, grouped by
// owning shard, and records them in rows[qi]. One Rows RPC per shard covers
// the whole batch.
func (c *Coordinator) fetchRows(ctx context.Context, st *state, queries [][]float64, need [][]int, rows []map[int]matdb.Row) error {
	reqs := make([][]shard.RowsQuery, len(c.replicas))
	backRefs := make([][]int, len(c.replicas)) // request entry → query index
	for qi, ids := range need {
		if len(ids) == 0 {
			continue
		}
		byShard := make(map[int][]uint32)
		for _, id := range ids {
			s := c.cfg.Partitioner.Shard(uint32(id), len(c.replicas), st.meta.Total)
			byShard[s] = append(byShard[s], uint32(id))
		}
		for s, sids := range byShard {
			reqs[s] = append(reqs[s], shard.RowsQuery{Query: queries[qi], IDs: sids})
			backRefs[s] = append(backRefs[s], qi)
		}
	}
	var mu sync.Mutex
	return c.eachShard(ctx, func(s int) error {
		if len(reqs[s]) == 0 {
			return nil
		}
		resp, err := shardCall(ctx, c, s, "rpc/rows", func(ctx context.Context, cl *client.Client) (*shard.RowsResponse, error) {
			return cl.Rows(ctx, st.version, reqs[s])
		})
		if err != nil {
			return err
		}
		if len(resp.Rows) != len(reqs[s]) {
			return fmt.Errorf("shard %d returned %d row lists for %d requests", s, len(resp.Rows), len(reqs[s]))
		}
		mu.Lock()
		defer mu.Unlock()
		for e, wireRows := range resp.Rows {
			qi := backRefs[s][e]
			for _, wr := range wireRows {
				rows[qi][int(wr.ID)] = wr.Row(st.meta.Distinct)
			}
		}
		return nil
	})
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
				if _, err := cl.PushSnapshot(ctx, st.encoded[s]); err == nil {
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

// coreAggregate maps the public aggregation enum onto the core one.
func coreAggregate(a lof.Aggregation) core.Aggregate {
	switch a {
	case lof.AggregateMean:
		return core.AggMean
	case lof.AggregateMin:
		return core.AggMin
	default:
		return core.AggMax
	}
}

// declareMetrics declares the coordinator's own metric families in reg,
// after the front end's route and trace families.
func (c *Coordinator) declareMetrics(reg *obs.Registry) {
	c.fits = reg.Counter("lof_coord_fits_total", "Models fitted and distributed by this coordinator.")
	c.scorePoints = reg.Counter("lof_coord_score_points_total", "Query points answered, in every score mode.")
	c.scoreModes = reg.CounterVec("lof_coord_score_mode_total", "Score requests by the mode that served them.", "mode", front.Modes...)
	c.certified = reg.Counter("lof_coord_pruned_certified_total", "Pruned-mode queries certified without exact evaluation.")
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
