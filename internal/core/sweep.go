package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"lof/internal/matdb"
	"lof/internal/obs"
	"lof/internal/pool"
)

// Aggregate selects how per-MinPts LOF values are folded into one score per
// object when sweeping a MinPts range (Sec. 6.2). The paper proposes Max —
// "to highlight the instance at which the object is the most outlying" —
// and discusses why Min and Mean can erase or dilute outlier-ness.
type Aggregate int

// Aggregation choices for Sweep results, in the order of lof.Aggregation's
// constants, so core.Aggregate(a) converts the public enum to this one.
const (
	// AggMax ranks by the maximum LOF over the range (the paper's
	// recommendation).
	AggMax Aggregate = iota
	// AggMean ranks by the mean LOF over the range.
	AggMean
	// AggMin ranks by the minimum LOF over the range.
	AggMin
)

// String names the aggregate.
func (a Aggregate) String() string {
	switch a {
	case AggMax:
		return "max"
	case AggMin:
		return "min"
	case AggMean:
		return "mean"
	default:
		return fmt.Sprintf("Aggregate(%d)", int(a))
	}
}

// SweepResult holds LOF values for every point at every MinPts value in
// [MinPtsLB, MinPtsUB].
type SweepResult struct {
	// MinPts lists the swept values in ascending order.
	MinPts []int
	// Values[m][i] is the LOF of point i at MinPts[m].
	Values [][]float64
}

// Sweep computes LOF for every MinPts in [lb, ub] using the two-scan
// algorithm per value, exactly as the paper's step 2 ("the database M is
// scanned twice for every value of MinPts between MinPtsLB and MinPtsUB").
func Sweep(db *matdb.DB, lb, ub int) (*SweepResult, error) {
	return SweepPool(db, lb, ub, nil)
}

// SweepPool is Sweep over a shared worker pool (nil for sequential). The
// 2·(ub−lb+1) scans are embarrassingly independent across MinPts values,
// so the sweep parallelizes along MinPts first; each scan additionally
// chunks its per-point loops over the same pool, which picks up the slack
// when the range is narrower than the pool (a single MinPts value still
// uses every worker). Every goroutine writes only write-indexed slots and
// no floating-point reduction is reordered, so the result is bit-identical
// to the sequential computation.
func SweepPool(db *matdb.DB, lb, ub int, p *pool.Pool) (*SweepResult, error) {
	return SweepPoolTraced(db, lb, ub, p, nil)
}

// SweepPoolTraced is SweepPool with phase tracing: the whole sweep is one
// top-level span on tr, and each per-MinPts scan records nested sweep/lrd
// and sweep/lof busy-time spans. A nil tr falls back to the process-default
// tracer and degrades to exactly SweepPool when that is nil too.
func SweepPoolTraced(db *matdb.DB, lb, ub int, p *pool.Pool, tr *obs.Tracer) (*SweepResult, error) {
	return SweepCtx(nil, db, lb, ub, p, tr)
}

// SweepCtx is SweepPoolTraced under cooperative cancellation: ctx is polled
// between per-MinPts scans and inside each scan's chunked per-point loops,
// and a cancelled sweep returns ctx's error with no result. A nil ctx
// disables cancellation; an uncancelled sweep is bit-identical to
// SweepPoolTraced.
func SweepCtx(ctx context.Context, db *matdb.DB, lb, ub int, p *pool.Pool, tr *obs.Tracer) (*SweepResult, error) {
	if lb > ub {
		return nil, fmt.Errorf("core: MinPtsLB=%d exceeds MinPtsUB=%d", lb, ub)
	}
	if err := db.CheckMinPts(lb); err != nil {
		return nil, err
	}
	if err := db.CheckMinPts(ub); err != nil {
		return nil, err
	}
	tr = obs.Resolve(tr)
	// lb and ub valid imply every MinPts in between is valid, so the scan
	// bodies below cannot fail.
	k := ub - lb + 1
	res := &SweepResult{MinPts: make([]int, k), Values: make([][]float64, k)}
	sp := tr.Phase(obs.PhaseSweep)
	sp.AddItems(k)
	scan := func(j int) {
		res.MinPts[j] = lb + j
		res.Values[j] = lofsTraced(ctx, db, lb+j, p, tr)
	}
	var err error
	if ctx != nil {
		err = p.EachCtx(ctx, k, scan)
	} else {
		p.Each(k, scan)
	}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: sweep cancelled: %w", err)
	}
	return res, nil
}

// NumPoints returns the number of points covered by the sweep.
func (r *SweepResult) NumPoints() int {
	if len(r.Values) == 0 {
		return 0
	}
	return len(r.Values[0])
}

// Aggregate folds the per-MinPts LOF values into one score per point.
func (r *SweepResult) Aggregate(agg Aggregate) []float64 {
	n := r.NumPoints()
	out := make([]float64, n)
	switch agg {
	case AggMin:
		for i := range out {
			out[i] = math.Inf(1)
		}
		for _, vals := range r.Values {
			for i, v := range vals {
				if v < out[i] {
					out[i] = v
				}
			}
		}
	case AggMean:
		for _, vals := range r.Values {
			for i, v := range vals {
				out[i] += v
			}
		}
		for i := range out {
			out[i] /= float64(len(r.Values))
		}
	default: // AggMax
		for i := range out {
			out[i] = math.Inf(-1)
		}
		for _, vals := range r.Values {
			for i, v := range vals {
				if v > out[i] {
					out[i] = v
				}
			}
		}
	}
	return out
}

// Series returns point i's LOF as a function of MinPts — the curves plotted
// in figure 8.
func (r *SweepResult) Series(i int) []float64 {
	out := make([]float64, len(r.Values))
	for m, vals := range r.Values {
		out[m] = vals[i]
	}
	return out
}

// Ranked pairs a point index with its aggregated outlier score.
type Ranked struct {
	Index int
	Score float64
}

// Rank orders points by descending score (ties by ascending index), the
// ranking the paper's experiments report.
func Rank(scores []float64) []Ranked {
	out := make([]Ranked, len(scores))
	for i, s := range scores {
		out[i] = Ranked{Index: i, Score: s}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Index < out[b].Index
	})
	return out
}

// TopN returns the n highest-scoring points (all of them if n exceeds the
// dataset size).
func TopN(scores []float64, n int) []Ranked {
	ranked := Rank(scores)
	if n > len(ranked) {
		n = len(ranked)
	}
	if n < 0 {
		n = 0
	}
	return ranked[:n]
}
