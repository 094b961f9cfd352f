// Package lof implements density-based local outlier detection as
// introduced by Breunig, Kriegel, Ng and Sander, "LOF: Identifying
// Density-Based Local Outliers" (SIGMOD 2000).
//
// The local outlier factor of an object is the average ratio between the
// local reachability densities of its MinPts nearest neighbors and its own:
// objects deep inside a cluster score approximately 1, while objects that
// are isolated relative to their surrounding neighborhood — even if they
// sit close to a dense cluster — score higher, in proportion to how much
// sparser their neighborhood is than their neighbors'.
//
// Basic usage:
//
//	det, err := lof.New(lof.Config{MinPtsLB: 10, MinPtsUB: 20})
//	if err != nil { ... }
//	res, err := det.Fit(data) // data is [][]float64, one row per object
//	if err != nil { ... }
//	for _, o := range res.TopN(5) {
//		fmt.Println(o.Index, o.Score)
//	}
//
// Scores aggregate the LOF over the configured MinPts range; following the
// paper's Sec. 6.2 heuristic the default is the maximum over the range.
// The computation runs the paper's two-step algorithm: a k-nearest-neighbor
// materialization pass over a spatial index, then two scans per MinPts
// value over the materialized neighborhoods.
package lof

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"lof/internal/core"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/grid"
	"lof/internal/index/kdtree"
	"lof/internal/index/linear"
	"lof/internal/index/vafile"
	"lof/internal/index/xtree"
	"lof/internal/matdb"
	"lof/internal/obs"
	"lof/internal/pool"
)

// IndexKind selects the spatial index used for the k-NN materialization
// step. The paper prescribes a grid for low dimensionality, a tree index
// for medium dimensionality, and a sequential scan or VA-file beyond that.
type IndexKind int

// Available index kinds.
const (
	// IndexAuto picks by dimensionality: grid for d ≤ 3, k-d tree for
	// d ≤ 16, VA-file beyond.
	IndexAuto IndexKind = iota
	// IndexLinear scans all points per query (exact for any metric).
	IndexLinear
	// IndexGrid is the constant-time-per-query lattice for low dimensions.
	IndexGrid
	// IndexKDTree is an exact k-d tree.
	IndexKDTree
	// IndexXTree is an R*-tree with X-tree supernodes, the index family of
	// the paper's performance experiments.
	IndexXTree
	// IndexVAFile is the vector-approximation file for high dimensions.
	IndexVAFile
)

// String names the index kind.
func (k IndexKind) String() string {
	switch k {
	case IndexAuto:
		return "auto"
	case IndexLinear:
		return "linear"
	case IndexGrid:
		return "grid"
	case IndexKDTree:
		return "kdtree"
	case IndexXTree:
		return "xtree"
	case IndexVAFile:
		return "vafile"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// ParseIndexKind maps the textual index names used by the CLI tools and
// the HTTP API ("auto", "linear", "grid", "kdtree", "xtree", "vafile") to
// an IndexKind. The empty string means IndexAuto.
func ParseIndexKind(name string) (IndexKind, error) {
	switch name {
	case "", "auto":
		return IndexAuto, nil
	case "linear":
		return IndexLinear, nil
	case "grid":
		return IndexGrid, nil
	case "kdtree":
		return IndexKDTree, nil
	case "xtree":
		return IndexXTree, nil
	case "vafile":
		return IndexVAFile, nil
	default:
		return 0, fmt.Errorf("lof: unknown index %q", name)
	}
}

// Aggregation selects how per-MinPts LOF values fold into one score.
type Aggregation int

// Aggregation choices.
const (
	// AggregateMax scores each object by its maximum LOF over the MinPts
	// range — the paper's recommendation, highlighting the instance at
	// which the object is most outlying.
	AggregateMax Aggregation = iota
	// AggregateMean scores by the mean LOF over the range.
	AggregateMean
	// AggregateMin scores by the minimum LOF over the range.
	AggregateMin
)

// ParseAggregation maps the textual aggregate names used by the CLI tools
// and the HTTP API ("max", "mean", "min") to an Aggregation. The empty
// string means AggregateMax, the paper's recommendation.
func ParseAggregation(name string) (Aggregation, error) {
	switch name {
	case "", "max":
		return AggregateMax, nil
	case "mean":
		return AggregateMean, nil
	case "min":
		return AggregateMin, nil
	default:
		return 0, fmt.Errorf("lof: unknown aggregate %q", name)
	}
}

// coreAggregate is the configured aggregation as core's enum, whose
// constants come in the same order.
func (c Config) coreAggregate() core.Aggregate { return core.Aggregate(c.Aggregation) }

// Config parameterizes a Detector. The zero value is usable: it sweeps
// MinPts over [DefaultMinPtsLB, DefaultMinPtsUB] with max aggregation,
// Euclidean distance, and automatic index selection.
type Config struct {
	// MinPtsLB and MinPtsUB bound the swept MinPts range (Sec. 6.2). The
	// paper's guidelines: the lower bound removes statistical fluctuation
	// (at least 10) and is the smallest cluster size relative to which
	// objects can be local outliers; the upper bound is the largest count
	// of near-by objects that can jointly be outliers. Zero values take
	// the defaults.
	MinPtsLB, MinPtsUB int
	// MinPts, when nonzero, computes a single MinPts value instead of a
	// range (equivalent to MinPtsLB = MinPtsUB = MinPts).
	MinPts int
	// Aggregation folds the per-MinPts values into the final score.
	Aggregation Aggregation
	// Metric names the distance: "euclidean" (default), "manhattan"/"l1",
	// "chebyshev"/"linf".
	Metric string
	// Weights, when non-nil, switches to a weighted Euclidean distance
	// with one non-negative weight per feature column — an alternative to
	// rescaling incommensurate columns before detection. Metric must be
	// empty or "euclidean" when Weights is set.
	Weights []float64
	// Index selects the k-NN index for materialization.
	Index IndexKind
	// Distinct enables k-distinct-distance neighborhoods (the paper's
	// duplicate handling): local densities stay finite even when objects
	// have MinPts or more exact duplicates.
	Distinct bool
	// Workers sizes the bounded worker pool shared by the whole pipeline:
	// k-NN materialization, the MinPts sweep's per-value and per-point
	// loops, and out-of-sample scoring (Score and ScoreBatch). Zero means
	// GOMAXPROCS; 1 forces fully sequential execution. Results are
	// bit-identical to the sequential computation at every setting.
	Workers int
	// Trace enables phase tracing: each Fit records per-phase timings,
	// latency histograms and pipeline counters, exposed as RunStats through
	// Result.Stats and Model.Stats. Tracing observes the pipeline without
	// altering it — scores are bit-identical either way — at the cost of a
	// few timestamp reads per phase and per-query index counters. Off by
	// default.
	Trace bool
}

// Default MinPts range, following the paper's guideline that values from
// 10 to 20 "appear to work well in general".
const (
	DefaultMinPtsLB = 10
	DefaultMinPtsUB = 20
)

// Detector computes LOF scores for datasets under a fixed configuration.
// After a successful Fit it additionally serves out-of-sample queries
// through Score and ScoreBatch against the most recent fitted model.
// Detectors must not be copied after first use.
type Detector struct {
	cfg    Config
	metric geom.Metric
	// pool is the bounded worker pool shared by every parallel stage of
	// this detector's fits and scores; nil means sequential (Workers=1).
	pool *pool.Pool
	// model holds the fitted model of the latest Fit; atomic so scoring
	// can race with a concurrent refit.
	model atomic.Pointer[Model]
}

// New validates cfg and returns a Detector.
func New(cfg Config) (*Detector, error) {
	if cfg.MinPts != 0 {
		if cfg.MinPtsLB != 0 || cfg.MinPtsUB != 0 {
			return nil, fmt.Errorf("lof: set either MinPts or the MinPtsLB/MinPtsUB range, not both")
		}
		if cfg.MinPts < 1 {
			return nil, fmt.Errorf("lof: MinPts must be positive, got %d", cfg.MinPts)
		}
		cfg.MinPtsLB, cfg.MinPtsUB = cfg.MinPts, cfg.MinPts
	}
	if cfg.MinPtsLB == 0 {
		cfg.MinPtsLB = DefaultMinPtsLB
	}
	if cfg.MinPtsUB == 0 {
		cfg.MinPtsUB = DefaultMinPtsUB
	}
	if cfg.MinPtsLB < 1 {
		return nil, fmt.Errorf("lof: MinPtsLB must be positive, got %d", cfg.MinPtsLB)
	}
	if cfg.MinPtsLB > cfg.MinPtsUB {
		return nil, fmt.Errorf("lof: MinPtsLB=%d exceeds MinPtsUB=%d", cfg.MinPtsLB, cfg.MinPtsUB)
	}
	switch cfg.Aggregation {
	case AggregateMax, AggregateMean, AggregateMin:
	default:
		return nil, fmt.Errorf("lof: unknown aggregation %d", cfg.Aggregation)
	}
	switch cfg.Index {
	case IndexAuto, IndexLinear, IndexGrid, IndexKDTree, IndexXTree, IndexVAFile:
	default:
		return nil, fmt.Errorf("lof: unknown index kind %d", cfg.Index)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("lof: Workers must be non-negative, got %d", cfg.Workers)
	}
	m, err := geom.MetricByName(cfg.Metric)
	if err != nil {
		return nil, err
	}
	if cfg.Weights != nil {
		if cfg.Metric != "" && cfg.Metric != "euclidean" && cfg.Metric != "l2" {
			return nil, fmt.Errorf("lof: Weights requires the euclidean metric, not %q", cfg.Metric)
		}
		wm, err := geom.NewWeightedEuclidean(cfg.Weights)
		if err != nil {
			return nil, err
		}
		m = wm
		// Detach from the caller's slice so later mutations of it cannot
		// desynchronize the stored config from the metric built above.
		cfg.Weights = append([]float64(nil), cfg.Weights...)
	}
	return &Detector{cfg: cfg, metric: m, pool: pool.New(effectiveWorkers(cfg.Workers))}, nil
}

// effectiveWorkers resolves the Workers config to a pool size: zero takes
// every available CPU.
func effectiveWorkers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Config returns the detector's effective configuration (defaults applied).
// The returned value is a snapshot: mutating it — including its Weights
// slice — does not affect the detector.
func (d *Detector) Config() Config { return d.cfg.clone() }

// clone returns a copy of the config that shares no mutable state with the
// original.
func (c Config) clone() Config {
	c.Weights = append([]float64(nil), c.Weights...)
	return c
}

// Fit computes LOF scores for data, one row per object. All rows must have
// the same dimensionality, contain only finite values, and there must be
// strictly more rows than MinPtsUB.
func (d *Detector) Fit(data [][]float64) (*Result, error) {
	return d.FitContext(context.Background(), data)
}

// FitContext is Fit under cooperative deadline/cancellation propagation:
// ctx is polled at chunk boundaries throughout the pipeline — the kNN
// materialization's per-point loop and the sweep's per-point scans — so a
// cancelled or timed-out fit stops burning CPU within a chunk stride and
// returns an error wrapping ctx.Err(). No partial result is ever returned,
// and an uncancelled FitContext is bit-identical to Fit.
func (d *Detector) FitContext(ctx context.Context, data [][]float64) (*Result, error) {
	var tr *obs.Tracer
	if d.cfg.Trace {
		tr = obs.NewTracer()
	}
	sp := tr.Phase(obs.PhaseIngest)
	pts, err := toPoints(data)
	if err != nil {
		return nil, err
	}
	sp.AddItems(pts.Len())
	sp.End()
	return d.fitPoints(ctx, pts, tr)
}

func (d *Detector) fitPoints(ctx context.Context, pts *geom.Points, tr *obs.Tracer) (*Result, error) {
	if d.cfg.Weights != nil && len(d.cfg.Weights) != pts.Dim() {
		return nil, fmt.Errorf("lof: %d weights for %d-dimensional data", len(d.cfg.Weights), pts.Dim())
	}
	if pts.Len() <= d.cfg.MinPtsUB {
		return nil, fmt.Errorf("lof: %d objects cannot support MinPtsUB=%d; need at least %d",
			pts.Len(), d.cfg.MinPtsUB, d.cfg.MinPtsUB+1)
	}
	poolBefore := d.pool.Stats()
	sp := tr.Phase(obs.PhaseIndexBuild)
	sp.AddItems(pts.Len())
	ix, err := d.buildIndex(pts, tr)
	if err != nil {
		return nil, err
	}
	sp.End()
	// When tracing, count the index probes the materialization issues — the
	// quantity the paper's index comparison (Sec. 7) is about. The wrapper
	// adds two atomic increments per query and is skipped entirely when
	// tracing is off.
	var counting *index.Counting
	if tr != nil {
		counting = index.NewCounting(ix)
		ix = counting
	}
	opts := []matdb.Option{matdb.WithPool(d.pool), matdb.WithTracer(tr), matdb.WithContext(ctx)}
	if d.cfg.Distinct {
		opts = append(opts, matdb.Distinct())
	}
	db, err := matdb.Materialize(pts, ix, d.cfg.MinPtsUB, opts...)
	if err != nil {
		return nil, err
	}
	sweep, err := core.SweepCtx(ctx, db, d.cfg.MinPtsLB, d.cfg.MinPtsUB, d.pool, tr)
	if err != nil {
		return nil, err
	}
	if counting != nil {
		tr.Count(obs.CounterKNNQueries, counting.KNNQueries())
		tr.Count(obs.CounterRangeQueries, counting.RangeQueries())
		tr.Count(obs.CounterCursors, counting.Cursors())
		tr.Count(obs.CounterCursorReuse, counting.CursorReuse())
		// Keep the raw index on the result: scoring issues its own queries
		// and should not inherit the fit's counters.
		ix = counting.Unwrap()
	}
	if tr != nil {
		delta := d.pool.Stats().Sub(poolBefore)
		tr.Count(obs.CounterPoolTasks, delta.Tasks)
		tr.Count(obs.CounterPoolChunks, delta.Chunks)
		tr.Count(obs.CounterPoolBorrows, delta.Borrows)
	}
	res := &Result{cfg: d.cfg, metric: d.metric, pts: pts, ix: ix, db: db, sweep: sweep, pool: d.pool, tracer: tr}
	m, err := res.Model()
	if err != nil {
		return nil, err
	}
	d.model.Store(m)
	return res, nil
}

// Model returns the fitted model of the most recent Fit, or nil when the
// detector has not been fitted yet.
func (d *Detector) Model() *Model { return d.model.Load() }

// Score computes the out-of-sample LOF of a query point against the most
// recent fitted model: the LOF the query would receive from a refit on
// data ∪ {query}, aggregated over the MinPts range. It validates the
// query's dimensionality and finiteness, and errors if Fit has not been
// called.
func (d *Detector) Score(query []float64) (float64, error) {
	m := d.model.Load()
	if m == nil {
		return 0, fmt.Errorf("lof: Score before Fit: no fitted model")
	}
	return m.Score(query)
}

// ScoreBatch scores many query points against the most recent fitted model
// over a bounded worker pool; see Model.ScoreBatch.
func (d *Detector) ScoreBatch(queries [][]float64) ([]float64, error) {
	m := d.model.Load()
	if m == nil {
		return nil, fmt.Errorf("lof: ScoreBatch before Fit: no fitted model")
	}
	return m.ScoreBatch(queries)
}

// buildIndex constructs the configured (or automatically selected) index.
// tr, when non-nil, counts silent auto-selection fallbacks.
func (d *Detector) buildIndex(pts *geom.Points, tr *obs.Tracer) (index.Index, error) {
	kind := d.cfg.Index
	if kind == IndexAuto {
		switch dim := pts.Dim(); {
		case dim <= 3:
			kind = IndexGrid
		case dim <= 16:
			kind = IndexKDTree
		default:
			kind = IndexVAFile
		}
	}
	switch kind {
	case IndexLinear:
		return linear.New(pts, d.metric), nil
	case IndexGrid:
		return grid.New(pts, d.metric), nil
	case IndexKDTree:
		return kdtree.New(pts, d.metric), nil
	case IndexXTree:
		// Fit works on a static dataset, so the STR bulk load is strictly
		// better than repeated insertion here.
		return xtree.BulkLoad(pts, d.metric), nil
	case IndexVAFile:
		ix, err := vafile.New(pts, d.metric, 0)
		if err != nil {
			// The VA-file supports only the rectangle-boundable metrics.
			// Auto-selection may degrade to the always-correct scan, but an
			// explicitly requested index must surface the failure instead
			// of silently changing the performance class.
			if d.cfg.Index == IndexVAFile {
				return nil, fmt.Errorf("lof: building requested vafile index: %w", err)
			}
			tr.Count(obs.CounterIndexFallback, 1)
			return linear.New(pts, d.metric), nil
		}
		return ix, nil
	default:
		return nil, fmt.Errorf("lof: unhandled index kind %v", kind)
	}
}

// toPoints validates and converts row data.
func toPoints(data [][]float64) (*geom.Points, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("lof: empty dataset")
	}
	dim := len(data[0])
	if dim == 0 {
		return nil, fmt.Errorf("lof: zero-dimensional data")
	}
	pts := geom.NewPoints(dim, len(data))
	for i, row := range data {
		if err := pts.Append(geom.Point(row)); err != nil {
			return nil, fmt.Errorf("lof: row %d: %w", i, err)
		}
	}
	return pts, nil
}

// Scores is the one-call convenience API: it computes LOF for every row of
// data at the single MinPts value given, with default settings otherwise.
func Scores(data [][]float64, minPts int) ([]float64, error) {
	det, err := New(Config{MinPts: minPts})
	if err != nil {
		return nil, err
	}
	res, err := det.Fit(data)
	if err != nil {
		return nil, err
	}
	return res.Scores(), nil
}
