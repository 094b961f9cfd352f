package lof

import (
	"context"
	"fmt"

	"lof/internal/approx"
	"lof/internal/core"
	"lof/internal/matdb"
)

// DefaultPruneEps is the certification half-width of the approximate fast
// paths when callers pass a non-positive eps: pruned scores are reported as
// 1 with the exact value provably inside [1/(1+eps), 1+eps].
const DefaultPruneEps = approx.DefaultEps

// coresetSeed fixes the systematic-resampling offset so every replica
// deriving a coreset from the same model selects the same points.
const coresetSeed int64 = 0x10F5EED

// PrunedResult is the outcome of a pruned fit: exact sweep scores for the
// uncertain frontier, certified ≈1 for everything pruned.
type PrunedResult struct {
	// Scores holds one aggregated LOF per fitted object: exactly the full
	// sweep's value (bit for bit) for frontier objects, 1 for pruned ones.
	Scores []float64
	// Pruned marks the objects certified as LOF ≈ 1 without evaluation.
	Pruned []bool
	// Lower and Upper are the certified per-object LOF intervals: the exact
	// LOF at every swept MinPts provably lies within.
	Lower, Upper []float64
	// Frontier is the number of objects evaluated exactly.
	Frontier int
	// Eps is the certification half-width actually used.
	Eps float64

	model *Model
}

// PrunedCount returns the number of objects certified without evaluation.
func (r *PrunedResult) PrunedCount() int { return len(r.Pruned) - r.Frontier }

// Model returns the fitted model behind this pruned fit. The model is the
// same as a full fit's — pruning skips score evaluation, not fitting — so
// out-of-sample scoring through it is exact.
func (r *PrunedResult) Model() *Model { return r.model }

// FitPruned is the approximate counterpart of Fit: it materializes exactly
// like a full fit, then certifies dense-core objects as LOF ≈ 1 from
// k-distance/reachability bounds and runs the MinPts sweep only over the
// uncertain frontier. Frontier scores are bit-identical to Fit's; pruned
// objects report 1 with the exact value provably in [1/(1+eps), 1+eps].
// A non-positive eps means DefaultPruneEps. On clustered data the frontier
// is a small fraction of the input, which is where the speedup over the
// full sweep comes from.
func (d *Detector) FitPruned(data [][]float64, eps float64) (*PrunedResult, error) {
	return d.FitPrunedContext(context.Background(), data, eps)
}

// FitPrunedContext is FitPruned under cooperative cancellation, with the
// same polling points as FitContext.
func (d *Detector) FitPrunedContext(ctx context.Context, data [][]float64, eps float64) (*PrunedResult, error) {
	pts, err := toPoints(data)
	if err != nil {
		return nil, err
	}
	if d.cfg.Weights != nil && len(d.cfg.Weights) != pts.Dim() {
		return nil, fmt.Errorf("lof: %d weights for %d-dimensional data", len(d.cfg.Weights), pts.Dim())
	}
	if pts.Len() <= d.cfg.MinPtsUB {
		return nil, fmt.Errorf("lof: %d objects cannot support MinPtsUB=%d; need at least %d",
			pts.Len(), d.cfg.MinPtsUB, d.cfg.MinPtsUB+1)
	}
	ix, err := d.buildIndex(pts, nil)
	if err != nil {
		return nil, err
	}
	opts := []matdb.Option{matdb.WithPool(d.pool), matdb.WithContext(ctx)}
	if d.cfg.Distinct {
		opts = append(opts, matdb.Distinct())
	}
	db, err := matdb.Materialize(pts, ix, d.cfg.MinPtsUB, opts...)
	if err != nil {
		return nil, err
	}
	pr, err := approx.PruneSweep(ctx, db, d.cfg.MinPtsLB, d.cfg.MinPtsUB, eps, d.cfg.coreAggregate(), d.pool)
	if err != nil {
		return nil, err
	}
	sc, err := core.NewScorer(pts, ix, db, d.metric, d.cfg.MinPtsLB, d.cfg.MinPtsUB)
	if err != nil {
		return nil, err
	}
	m := &Model{
		cfg: d.cfg, metric: d.metric, pts: pts, ix: ix, db: db,
		scorer: sc, pool: d.pool, bounds: new(lazySummaries),
	}
	d.model.Store(m)
	return &PrunedResult{
		Scores: pr.Scores, Pruned: pr.Pruned, Lower: pr.Lower, Upper: pr.Upper,
		Frontier: pr.Frontier, Eps: pr.Eps, model: m,
	}, nil
}

// PrunedBatch is the outcome of an approximate batch score: exact scores
// for uncertain queries, certified ≈1 for the rest.
type PrunedBatch struct {
	// Scores holds one aggregated LOF per query, in input order: the
	// bit-exact out-of-sample score for uncertain queries, 1 for certified
	// ones.
	Scores []float64
	// Pruned marks the queries whose score was certified without a full
	// evaluation.
	Pruned []bool
	// Certified is the number of pruned queries.
	Certified int
	// Eps is the certification half-width actually used.
	Eps float64
}

// ScoreBatchPruned is the approximate counterpart of ScoreBatch: each query
// is probed once for its merged neighborhood, certified against the pruning
// bounds, and fully evaluated only when the bounds cannot place its LOF
// inside [1/(1+eps), 1+eps]. Certified queries report 1 and skip merged-row
// assembly and evaluation entirely — the fast path costs one kNN probe plus
// a bound computation over the per-point summaries of the query's own
// neighbors. The model builds those summaries once, on its first pruned
// request (about 0.8 KB per fitted point at MinPts 10..40). Uncertain
// queries produce scores bit-identical to ScoreBatch. A non-positive eps
// means DefaultPruneEps.
func (m *Model) ScoreBatchPruned(queries [][]float64, eps float64) (*PrunedBatch, error) {
	return m.ScoreBatchPrunedContext(context.Background(), queries, eps)
}

// ScoreBatchPrunedContext is ScoreBatchPruned under cooperative
// cancellation, with ScoreBatchContext's polling behavior.
func (m *Model) ScoreBatchPrunedContext(ctx context.Context, queries [][]float64, eps float64) (*PrunedBatch, error) {
	if eps <= 0 {
		eps = DefaultPruneEps
	}
	if err := m.validateBatch(queries); err != nil {
		return nil, err
	}
	return m.scoreRows(ctx, queries, func(i int) matdb.Row { return m.scorer.QueryRow(queries[i]) }, eps)
}

// ScoreQueryRows scores queries whose rows the caller has already merged:
// rows[i] must be the row queries[i] occupies in data ∪ {queries[i]}, as
// the model's own kNN probe would find it — the sharded coordinator merges
// it from its shards' candidates (matdb.MergeCandidates). Every index in
// rows must be a fitted point's. From there it runs ScoreBatchPruned's
// body: with eps > 0, a query whose LOF interval over its row
// (approx.QueryBounds over the model's summaries) lies inside
// [1/(1+eps), 1+eps] answers 1, and the rest are scored exactly; with
// eps <= 0 every query is scored exactly and the summaries are never
// built. Exact scores are bit-identical to ScoreBatch's.
func (m *Model) ScoreQueryRows(ctx context.Context, queries [][]float64, rows []matdb.Row, eps float64) (*PrunedBatch, error) {
	if len(rows) != len(queries) {
		return nil, fmt.Errorf("lof: %d query rows for %d queries", len(rows), len(queries))
	}
	if err := m.validateBatch(queries); err != nil {
		return nil, err
	}
	return m.scoreRows(ctx, queries, func(i int) matdb.Row { return rows[i] }, eps)
}

// scoreRows certifies and evaluates every query from the row rowOf(i)
// returns for it: certified against the model's summaries when eps > 0,
// exactly (Scorer.ScoreSeriesFromRow) otherwise or when the bound cannot
// place it.
func (m *Model) scoreRows(ctx context.Context, queries [][]float64, rowOf func(int) matdb.Row, eps float64) (*PrunedBatch, error) {
	var sum *approx.Summaries
	if eps > 0 {
		var err error
		if sum, err = m.summaries(); err != nil {
			return nil, fmt.Errorf("lof: pruning summaries: %w", err)
		}
	}
	out := &PrunedBatch{
		Scores: make([]float64, len(queries)),
		Pruned: make([]bool, len(queries)),
		Eps:    eps,
	}
	errs := make([]error, len(queries))
	if err := m.pool.EachCtx(ctx, len(queries), func(i int) {
		qRow := rowOf(i)
		if sum != nil {
			if lower, upper := approx.QueryBounds(sum, qRow); approx.Certified(lower, upper, eps) {
				out.Scores[i] = 1
				out.Pruned[i] = true
				return
			}
		}
		series, err := m.scorer.ScoreSeriesFromRow(ctx, queries[i], qRow)
		if err != nil {
			errs[i] = err
			return
		}
		out.Scores[i] = core.ScoreAggregate(series, m.cfg.coreAggregate())
	}); err != nil {
		return nil, fmt.Errorf("lof: batch cancelled: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lof: batch row %d: %w", i, err)
		}
	}
	for _, pruned := range out.Pruned {
		if pruned {
			out.Certified++
		}
	}
	return out, nil
}

// Coreset returns a model refitted on a sample of at most n fitted
// points, under the same configuration: the approximate model servers
// answer ?mode=coreset and ?mode=degraded from. The refit is unweighted,
// so it sees the sample as ordinary data. Points are
// drawn by sensitivity (Lucic/Bachem/Krause): selection probability mixes
// a uniform floor with a term proportional to the point's k-distance, so
// sparse regions — cluster fringes, small clusters, the places a stride
// sample decimates first and whose absence distorts downstream LOF scores
// the most — are preferentially retained.
// The draw is deterministic (fixed seed, systematic resampling), so every
// replica deriving a coreset from the same model selects the same points.
// n must exceed the configured MinPtsUB; when the model already has at most
// n points the receiver itself is returned.
func (m *Model) Coreset(n int) (*Model, error) {
	total := m.pts.Len()
	if n >= total {
		return m, nil
	}
	if n <= m.cfg.MinPtsUB {
		return nil, fmt.Errorf("lof: coreset of %d cannot support MinPtsUB=%d; need at least %d",
			n, m.cfg.MinPtsUB, m.cfg.MinPtsUB+1)
	}
	indices, err := approx.Coreset(m.db, m.cfg.MinPtsUB, n, coresetSeed)
	if err != nil {
		return nil, fmt.Errorf("lof: coreset draw: %w", err)
	}
	data := make([][]float64, len(indices))
	for i, src := range indices {
		row := make([]float64, m.pts.Dim())
		copy(row, m.pts.At(src))
		data[i] = row
	}
	cfg := m.cfg.clone()
	cfg.MinPts = 0 // normalized configs carry the range in MinPtsLB/UB
	det, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("lof: coreset config: %w", err)
	}
	res, err := det.Fit(data)
	if err != nil {
		return nil, fmt.Errorf("lof: coreset refit: %w", err)
	}
	return res.Model()
}
