// Package coord implements the lofcoord scatter-gather coordinator: the
// control and query plane of the sharded LOF serving tier. It fits a model
// globally, splits the fitted state into per-shard sub-snapshots
// (shard.Split), replicates them to lofserve shard processes, and answers
// score requests by a three-round scatter-gather that reassembles exact
// global LOF, one binary frame (shard.Frame) per shard and round:
//
//	round 1  every shard returns its partition's kNN candidates for the
//	         query batch; the coordinator merges them into each query's
//	         exact global row (matdb.MergeCandidates)
//	round 2  the merged rows of each query's neighborhood (the first hop)
//	         are fetched from their owning shards
//	round 3  for every point those rows reach (the second hop), only its
//	         merged k-distances at MinPts lb..ub are fetched — the one
//	         thing LOF reads of it, inside reach-dist
//
// Each query's closure is kept densely (closure): its row, its first-hop
// rows and its second-hop k-distance vectors, addressed by position.
// Evaluation then runs core.EvalRange over them: literally the code path
// the in-process scorer uses, fed by shards that build rows and
// k-distances with the scorer's own matdb helper, which is what makes a
// distributed score bit-identical to a single-node one.
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
//	?mode=pruned   right after round 1, each query's merged row is
//	               bounded with lofserve's certificate (approx.QueryBounds
//	               over per-point approx.Summaries, built from the kept
//	               parts on the version's first pruned request); a query
//	               whose LOF interval lies inside 1±eps answers exactly 1
//	               and skips rounds 2 and 3, so every answer equals
//	               lof.Model.ScoreBatchPruned's bit for bit
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
	// summaries returns the pruned-mode certificate's per-point summaries,
	// built from encoded on the first call (the version's first pruned
	// request) and shared by every later one. Exact traffic never calls
	// it, so it never pays their memory (DESIGN.md §12).
	summaries func() (*approx.Summaries, error)
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
		agg:     core.Aggregate(mcfg.Aggregation),
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
	st.summaries = sync.OnceValues(func() (*approx.Summaries, error) {
		c.summaryBuilds.Add(1)
		return joinSummaries(st.encoded, st.lb, st.ub, c.pool)
	})
	return st, nil
}

// joinSummaries derives the pruned-mode summaries from the encoded parts:
// it decodes them, reassembles the fitted database (shard.Join) and
// summarizes it as lof.Model.ScoreBatchPruned summarizes its own. Only the
// summaries outlive the call.
func joinSummaries(encoded [][]byte, lb, ub int, p *pool.Pool) (*approx.Summaries, error) {
	parts := make([]*shard.Part, len(encoded))
	for s, b := range encoded {
		var err error
		if parts[s], err = shard.DecodePart(b); err != nil {
			return nil, fmt.Errorf("decoding shard %d: %w", s, err)
		}
	}
	db, err := shard.Join(parts)
	if err != nil {
		return nil, err
	}
	return approx.NewSummaries(db, lb, ub, p)
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
//	           1±eps answer 1 without rounds 2 and 3; the rest answer
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
// named span (replica attempts appear as its children) carrying the
// scatter-gather round (when positive) and, for frame answers, their size
// in bytes — per-round transport, readable in /debug/traces.
func shardCall[T any](ctx context.Context, c *Coordinator, s int, name string, round int, op func(context.Context, *client.Client) (T, error)) (T, error) {
	sp, sctx := trace.StartSpan(ctx, name)
	sp.SetAttrInt("shard", int64(s))
	if round > 0 {
		sp.SetAttrInt("round", int64(round))
	}
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

// closure is one query's scatter-gather state in dense form: its merged
// row (round 1), the merged rows of its first hop (round 2) and the merged
// k-distances of its second hop (round 3). slot maps a global id to its
// position: i < len(first) for first-hop points, len(first)+j for
// second-hop point j.
type closure struct {
	row    matdb.Row
	first  []int
	rows   []matdb.Row // parallel to first
	second []int
	kd     []float64 // w per second-hop id, parallel to second
	slot   map[int]int32
}

// rowOf returns the merged row of first-hop point i.
func (cl *closure) rowOf(i int) (matdb.Row, bool) {
	p, ok := cl.slot[i]
	if !ok || int(p) >= len(cl.first) {
		return matdb.Row{}, false
	}
	return cl.rows[p], true
}

// addSecondHop lists the ids the first-hop rows' ub-neighborhoods reach
// that are neither the query nor first-hop points, in first-seen order —
// the points the evaluation reads only through their k-distances.
func (cl *closure) addSecondHop(ub, qIdx int) {
	for _, row := range cl.rows {
		for _, nb := range row.Neighborhood(ub) {
			if _, seen := cl.slot[nb.Index]; seen || nb.Index == qIdx {
				continue
			}
			cl.slot[nb.Index] = int32(len(cl.first) + len(cl.second))
			cl.second = append(cl.second, nb.Index)
		}
	}
}

// score runs the scatter-gather for a batch. Round 1 merges every query's
// global row. With pruned set, a query whose LOF interval over that row
// lies inside 1±lof.DefaultPruneEps answers 1 and leaves the batch: the
// interval is approx.QueryBounds over the version's summaries, the
// certificate lof.Model.ScoreBatchPruned computes from the same row and
// the same summaries. Rounds 2 and 3 and the exact evaluation run for the
// rest. It returns the scores and the number of certified queries.
func (c *Coordinator) score(ctx context.Context, st *state, queries [][]float64, pruned bool) ([]float64, int, error) {
	cls, err := c.mergeQueryRows(ctx, st, queries)
	if err != nil {
		return nil, 0, err
	}
	nq := len(queries)
	out := make([]float64, nq)
	var skip []bool
	certified := 0
	if pruned {
		csp, _ := trace.StartSpan(ctx, "coord/certify")
		sum, err := st.summaries()
		if err != nil {
			csp.SetError(err.Error())
			csp.End()
			return nil, 0, fmt.Errorf("coord: pruning summaries: %w", err)
		}
		skip = make([]bool, nq)
		c.pool.Each(nq, func(qi int) {
			lower, upper := approx.QueryBounds(sum, cls[qi].row)
			skip[qi] = approx.Certified(lower, upper, lof.DefaultPruneEps)
		})
		csp.End()
		for qi, ok := range skip {
			if ok {
				out[qi] = 1
				certified++
			}
		}
		if certified == nq {
			return out, certified, nil
		}
	}
	if err := c.fetchRound(ctx, st, queries, cls, shard.KindRowsRequest, skip); err != nil {
		return nil, 0, err
	}
	// A certified query fetched no rows, so it lists no second hop.
	for qi := range cls {
		cls[qi].addSecondHop(st.ub, st.meta.Total)
	}
	if err := c.fetchRound(ctx, st, queries, cls, shard.KindKDistsRequest, skip); err != nil {
		return nil, 0, err
	}
	if err := c.evalInto(ctx, st, cls, out, skip); err != nil {
		return nil, 0, err
	}
	return out, certified, nil
}

// mergeQueryRows runs scatter-gather round 1: it merges every query's
// global row from per-shard candidates and lists its first hop.
func (c *Coordinator) mergeQueryRows(ctx context.Context, st *state, queries [][]float64) ([]closure, error) {
	nq := len(queries)
	qIdx := st.meta.Total
	dim := st.dim

	// Round 1: per-partition candidates from every shard, in parallel.
	req := &shard.Frame{Kind: shard.KindCandidatesRequest, Distinct: st.meta.Distinct, Version: st.version, Dim: dim}
	req.Queries = make([]float64, 0, nq*dim)
	for _, q := range queries {
		req.Queries = append(req.Queries, q...)
	}
	answers := make([]*shard.Frame, len(c.replicas))
	csp, cctx := trace.StartSpan(ctx, "coord/candidates")
	csp.SetAttrInt("queries", int64(nq))
	err := c.eachShard(cctx, func(s int) error {
		f, err := shardCall(cctx, c, s, "rpc/candidates", 1, func(ctx context.Context, cl *client.Client) (*shard.Frame, error) {
			return cl.Candidates(ctx, req)
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
	// distinct-rank recomputation come from the candidate payloads.
	msp, _ := trace.StartSpan(ctx, "coord/merge")
	starts := make([][]int, len(answers)) // starts[s][qi]: query qi's first entry in shard s's answer
	for s, f := range answers {
		starts[s] = make([]int, nq+1)
		for qi, n := range f.Counts {
			starts[s][qi+1] = starts[s][qi] + int(n)
		}
	}
	cls := make([]closure, nq)
	mergeErrs := make([]error, nq)
	c.pool.Each(nq, func(qi int) {
		var cands []index.Neighbor
		var at func(int) geom.Point
		var cm map[int]geom.Point
		if st.meta.Distinct {
			cm = make(map[int]geom.Point)
			at = func(i int) geom.Point {
				if i == qIdx {
					return queries[qi]
				}
				return cm[i]
			}
		}
		for s, f := range answers {
			lo, hi := starts[s][qi], starts[s][qi+1]
			cands = append(cands, f.Entries[lo:hi]...)
			if cm != nil {
				for k := lo; k < hi; k++ {
					cm[f.Entries[k].Index] = f.Coords[k*dim : (k+1)*dim]
				}
			}
		}
		cl := &cls[qi]
		cl.row, mergeErrs[qi] = matdb.MergeCandidates(cands, at, st.meta.K, st.meta.Distinct)
		nn := cl.row.Neighborhood(st.ub)
		// The second hop is typically about five times the first.
		cl.slot = make(map[int]int32, 6*len(nn))
		for _, nb := range nn {
			if _, seen := cl.slot[nb.Index]; !seen && nb.Index != qIdx {
				cl.slot[nb.Index] = int32(len(cl.first))
				cl.first = append(cl.first, nb.Index)
			}
		}
		cl.rows = make([]matdb.Row, len(cl.first))
	})
	for qi, err := range mergeErrs {
		if err != nil {
			msp.SetError(err.Error())
			msp.End()
			return nil, fmt.Errorf("coord: merging query %d: %w", qi, err)
		}
	}
	msp.End()
	return cls, nil
}

// evalInto evaluates every query not marked in skip — one core.EvalRange
// per query over its closure, the evaluation the in-process scorer runs —
// writing scores into out. A nil skip evaluates everything.
func (c *Coordinator) evalInto(ctx context.Context, st *state, cls []closure, out []float64, skip []bool) error {
	esp, _ := trace.StartSpan(ctx, "coord/eval")
	defer esp.End()
	nq := len(out)
	qIdx := st.meta.Total
	w := st.ub - st.lb + 1
	evalErrs := make([]error, nq)
	c.pool.Each(nq, func(qi int) {
		if skip != nil && skip[qi] {
			return
		}
		cl := &cls[qi]
		missing := -1
		rowOf := func(i int) matdb.Row {
			r, ok := cl.rowOf(i)
			if !ok && missing < 0 {
				missing = i
			}
			return r
		}
		kdOf := func(i int, dst []float64) []float64 {
			p, ok := cl.slot[i]
			j := int(p) - len(cl.first)
			if !ok || j < 0 {
				if missing < 0 {
					missing = i
				}
				return append(dst, make([]float64, w)...)
			}
			return append(dst, cl.kd[j*w:(j+1)*w]...)
		}
		series := make([]float64, w)
		core.EvalRange(qIdx, cl.row, rowOf, kdOf, st.lb, st.ub, series)
		if missing >= 0 {
			evalErrs[qi] = fmt.Errorf("coord: query %d: point %d missing from the fetched closure", qi, missing)
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

// fetchRound runs scatter-gather round 2 (kind KindRowsRequest: the merged
// rows of every query's first hop) or round 3 (KindKDistsRequest: the
// merged k-distances at MinPts lb..ub of its second hop) for every query
// not marked in skip, one request frame per shard covering the whole
// batch, and stores the answers in the closures.
func (c *Coordinator) fetchRound(ctx context.Context, st *state, queries [][]float64, cls []closure, kind shard.Kind, skip []bool) error {
	round := 2
	if kind == shard.KindKDistsRequest {
		round = 3
	}
	sp, sctx := trace.StartSpan(ctx, "coord/rows")
	sp.SetAttrInt("round", int64(round))
	defer sp.End()
	n := len(c.replicas)
	w := st.ub - st.lb + 1
	reqs := make([]*shard.Frame, n)
	for s := range reqs {
		reqs[s] = &shard.Frame{Kind: kind, Distinct: st.meta.Distinct, Version: st.version, Dim: st.dim, LB: st.lb, UB: st.ub}
	}
	// dests[s][k] is where the answer to shard s's k-th id goes: the query
	// and the id's position in that query's hop list.
	type dest struct{ qi, pos int }
	dests := make([][]dest, n)
	for qi := range cls {
		if skip != nil && skip[qi] {
			continue
		}
		ids := cls[qi].first
		if round == 3 {
			ids = cls[qi].second
			cls[qi].kd = make([]float64, len(ids)*w)
		}
		for pos, id := range ids {
			s := c.cfg.Partitioner.Shard(uint32(id), n, st.meta.Total)
			f := reqs[s]
			if d := dests[s]; len(d) == 0 || d[len(d)-1].qi != qi {
				f.Queries = append(f.Queries, queries[qi]...)
				f.Counts = append(f.Counts, 0)
			}
			f.Counts[len(f.Counts)-1]++
			f.IDs = append(f.IDs, uint32(id))
			dests[s] = append(dests[s], dest{qi, pos})
		}
	}
	// Shards answer disjoint (query, position) slots, so they store
	// without a lock.
	err := c.eachShard(sctx, func(s int) error {
		if len(reqs[s].IDs) == 0 {
			return nil
		}
		f, err := shardCall(sctx, c, s, "rpc/rows", round, func(ctx context.Context, cl *client.Client) (*shard.Frame, error) {
			return cl.Rows(ctx, reqs[s])
		})
		if err != nil {
			return err
		}
		if round == 3 {
			for k, d := range dests[s] {
				copy(cls[d.qi].kd[d.pos*w:(d.pos+1)*w], f.KDists[k*w:(k+1)*w])
			}
			return nil
		}
		entries, ranks := f.Entries, f.Ranks
		for k, d := range dests[s] {
			nn := entries[:f.Lens[k]:f.Lens[k]]
			entries = entries[f.Lens[k]:]
			var rk []int32
			if st.meta.Distinct {
				rk = ranks[:f.RankLens[k]:f.RankLens[k]]
				ranks = ranks[f.RankLens[k]:]
			}
			cls[d.qi].rows[d.pos] = matdb.NewRow(nn, rk, st.meta.Distinct)
		}
		return nil
	})
	if err != nil {
		sp.SetError(err.Error())
	}
	return err
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
