package lof

import (
	"fmt"
	"sync"

	"lof/internal/core"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/matdb"
	"lof/internal/obs"
	"lof/internal/optics"
	"lof/internal/pool"
)

// Result holds the outcome of a Fit: the LOF of every object at every
// MinPts value in the configured range, plus diagnostic access to the
// paper's formal bounds.
type Result struct {
	cfg    Config
	metric geom.Metric
	pts    *geom.Points
	ix     index.Index
	db     *matdb.DB
	sweep  *core.SweepResult
	// pool is inherited by models derived from this result.
	pool *pool.Pool
	// tracer records this fit's phases when Config.Trace is set; nil (the
	// default) disables all recording.
	tracer *obs.Tracer

	// opticsOnce caches the OPTICS ordering behind ClusterContext.
	opticsOnce     sync.Once
	opticsClusters []optics.Cluster
	opticsErr      error
}

// Outlier pairs an object index with its aggregated outlier score.
type Outlier struct {
	// Index is the row number within the fitted data.
	Index int
	// Score is the aggregated LOF over the MinPts range; values near 1
	// mean "inside a cluster", larger values mean increasingly outlying.
	Score float64
}

// Len returns the number of fitted objects.
func (r *Result) Len() int { return r.sweep.NumPoints() }

// MinPtsRange returns the swept [lb, ub].
func (r *Result) MinPtsRange() (lb, ub int) {
	return r.sweep.MinPts[0], r.sweep.MinPts[len(r.sweep.MinPts)-1]
}

// Scores returns every object's aggregated LOF, indexed by row.
func (r *Result) Scores() []float64 {
	sp := r.tracer.Phase(obs.PhaseAggregate)
	sp.AddItems(r.Len())
	out := r.sweep.Aggregate(r.cfg.coreAggregate())
	sp.End()
	return out
}

// Stats returns the run statistics recorded during this fit, or nil when
// the detector was configured without Trace. The snapshot reflects all
// phases recorded so far — including aggregations triggered by Scores —
// and can be taken repeatedly.
func (r *Result) Stats() *RunStats { return r.tracer.Snapshot() }

// Score returns object i's aggregated LOF.
func (r *Result) Score(i int) float64 { return r.Scores()[i] }

// TopN returns the n highest-scoring objects in descending score order.
func (r *Result) TopN(n int) []Outlier {
	ranked := core.TopN(r.Scores(), n)
	out := make([]Outlier, len(ranked))
	for i, rk := range ranked {
		out[i] = Outlier{Index: rk.Index, Score: rk.Score}
	}
	return out
}

// OutliersAbove returns all objects with aggregated LOF strictly greater
// than the threshold, in descending score order — the form in which the
// paper reports the soccer results ("all the local outliers with LOF >
// 1.5").
func (r *Result) OutliersAbove(threshold float64) []Outlier {
	var out []Outlier
	for _, rk := range core.Rank(r.Scores()) {
		if rk.Score <= threshold {
			break
		}
		out = append(out, Outlier{Index: rk.Index, Score: rk.Score})
	}
	return out
}

// LOFAt returns every object's LOF at one MinPts value within the swept
// range.
func (r *Result) LOFAt(minPts int) ([]float64, error) {
	for m, v := range r.sweep.MinPts {
		if v == minPts {
			out := make([]float64, len(r.sweep.Values[m]))
			copy(out, r.sweep.Values[m])
			return out, nil
		}
	}
	lb, ub := r.MinPtsRange()
	return nil, fmt.Errorf("lof: MinPts=%d outside swept range [%d, %d]", minPts, lb, ub)
}

// Series returns object i's LOF as a function of MinPts: the x values
// (MinPts) and matching y values (LOF) — the curves of the paper's
// figure 8.
func (r *Result) Series(i int) (minPts []int, lofs []float64) {
	minPts = make([]int, len(r.sweep.MinPts))
	copy(minPts, r.sweep.MinPts)
	return minPts, r.sweep.Series(i)
}

// Bounds returns the Theorem 1 lower and upper bound on object i's LOF at
// the given MinPts value. The true LOF at that MinPts always lies within.
func (r *Result) Bounds(i, minPts int) (lower, upper float64, err error) {
	return core.Theorem1Bounds(r.db, i, minPts)
}

// PartitionedBounds returns the sharper Theorem 2 bounds for object i,
// partitioning its neighborhood with the supplied grouping function (e.g.
// a cluster assignment).
func (r *Result) PartitionedBounds(i, minPts int, group func(int) int) (lower, upper float64, err error) {
	return core.Theorem2Bounds(r.db, i, minPts, group)
}

// KDistance returns object i's MinPts-distance (Definition 3) for any
// MinPts up to the materialized upper bound.
func (r *Result) KDistance(i, minPts int) (float64, error) {
	if err := r.db.CheckMinPts(minPts); err != nil {
		return 0, err
	}
	return r.db.KDistance(i, minPts), nil
}

// NeighborhoodSize returns |N_MinPts(i)|, which can exceed MinPts when
// several neighbors tie at the MinPts-distance (Definition 4).
func (r *Result) NeighborhoodSize(i, minPts int) (int, error) {
	if err := r.db.CheckMinPts(minPts); err != nil {
		return 0, err
	}
	return len(r.db.Neighborhood(i, minPts)), nil
}
