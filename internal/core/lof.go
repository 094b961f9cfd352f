// Package core implements the paper's primary contribution: the local
// outlier factor. It provides reachability distances (Definition 5), local
// reachability densities (Definition 6) and LOF values (Definition 7)
// computed from a materialization database with the two-scan algorithm of
// Sec. 7.4, the MinPts-range sweep with max/min/mean aggregation proposed
// in Sec. 6.2, and the formal bound calculators of Sec. 5 (Lemma 1,
// Theorems 1 and 2).
package core

import (
	"context"
	"fmt"
	"math"

	"lof/internal/index"
	"lof/internal/matdb"
	"lof/internal/obs"
	"lof/internal/pool"
)

// cancelStride is how many points a scan loop processes between context
// polls; a power of two so the check is a mask. At ~100ns per point this
// bounds post-cancellation work to a few tens of microseconds per worker.
const cancelStride = 256

// strideCancelled polls ctx every cancelStride iterations; i is the loop
// counter. A nil ctx never cancels.
func strideCancelled(ctx context.Context, i int) bool {
	return ctx != nil && i&(cancelStride-1) == 0 && ctx.Err() != nil
}

// ReachDist computes reach-dist_k(p, o) = max(k-distance(o), d(p, o))
// (Definition 5) from the k-distance of o and the actual distance d(p, o).
// The builtin max compiles inline, unlike math.Max, and agrees with it bit
// for bit on every input without a NaN; with a NaN input it returns NaN,
// where math.Max(+Inf, NaN) is +Inf. Neither distances nor k-distances are
// ever NaN.
func ReachDist(kDistO, dPO float64) float64 {
	return max(kDistO, dPO)
}

// LRDs computes the local reachability density (Definition 6) of every
// point for the given MinPts value — the first of the two scans over the
// materialization database. A density is +Inf when every reachability
// distance in its neighborhood is zero (at least MinPts duplicates).
func LRDs(db *matdb.DB, minPts int) ([]float64, error) {
	if err := db.CheckMinPts(minPts); err != nil {
		return nil, err
	}
	return lrdsChunked(nil, db, minPts, nil), nil
}

// lrdsChunked is the scan body of LRDs, chunked over a worker pool (nil
// for sequential). Every chunk writes only its own indices, so the output
// is bit-identical to a sequential run. A non-nil ctx is polled every
// cancelStride points; a cancelled scan returns early with partial output,
// which callers must discard.
func lrdsChunked(ctx context.Context, db *matdb.DB, minPts int, p *pool.Pool) []float64 {
	n := db.Len()
	// Gather every point's MinPts-distance first: the reachability loop
	// below reads neighbors' k-distances in random order, and a dense
	// float64 array keeps those reads cache-resident.
	kd := make([]float64, n)
	p.Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if strideCancelled(ctx, i) {
				return
			}
			kd[i] = db.KDistance(i, minPts)
		}
	})
	lrds := make([]float64, n)
	p.Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if strideCancelled(ctx, i) {
				return
			}
			lrds[i] = LRD(db.Neighborhood(i, minPts), kd)
		}
	})
	return lrds
}

// LRD is the local reachability density (Definition 6) of a point with
// MinPts-neighborhood nn, where kd[o] is the MinPts-distance of neighbor o:
// |nn| divided by the sum of the reachability distances (Definition 5)
// over nn. The density is +Inf when that sum is zero — an empty
// neighborhood, or at least MinPts duplicates — so the point never looks
// outlying. It is the per-point body of the sweep's first scan, and
// LRDsRaw, the pruned frontier and the incremental detector call it too.
func LRD(nn []index.Neighbor, kd []float64) float64 {
	var sum float64
	for _, nb := range nn {
		sum += ReachDist(kd[nb.Index], nb.Dist)
	}
	if sum == 0 {
		return math.Inf(1)
	}
	return float64(len(nn)) / sum
}

// LOF is the local outlier factor (Definition 7) of a point with density
// lrdP and MinPts-neighborhood nn, where lrd[o] is the density of neighbor
// o: the mean of the ratios lrd[o]/lrdP over nn, with the natural limits
// for infinite densities — Inf/Inf = 1 (a duplicate among duplicates is
// not outlying), finite/Inf = 0, Inf/finite = +Inf. A point with no
// neighbors is isolated by construction and scores 1. It is the per-point
// body of the sweep's second scan.
func LOF(nn []index.Neighbor, lrd []float64, lrdP float64) float64 {
	if len(nn) == 0 {
		return 1
	}
	var sum float64
	for _, nb := range nn {
		sum += densityRatio(lrd[nb.Index], lrdP)
	}
	return sum / float64(len(nn))
}

// LRDsRaw computes local densities like LRDs but from raw distances
// d(p, o) instead of reachability distances — i.e. without the smoothing
// of Definition 5, which is reach-dist against a zero k-distance. It
// exists for the ablation study of that design choice: within homogeneous
// clusters, raw-distance LOF fluctuates more than reach-dist LOF, which is
// exactly the statistical noise reach-dist is introduced to suppress.
func LRDsRaw(db *matdb.DB, minPts int) ([]float64, error) {
	if err := db.CheckMinPts(minPts); err != nil {
		return nil, err
	}
	zero := make([]float64, db.Len())
	lrds := make([]float64, db.Len())
	for i := range lrds {
		lrds[i] = LRD(db.Neighborhood(i, minPts), zero)
	}
	return lrds, nil
}

// LOFsFromLRDs computes the local outlier factor (Definition 7) of every
// point from precomputed densities — the second scan. Density ratios with
// infinities follow the natural limits: Inf/Inf = 1 (a duplicate among
// duplicates is not outlying), finite/Inf = 0, Inf/finite = +Inf.
func LOFsFromLRDs(db *matdb.DB, minPts int, lrds []float64) ([]float64, error) {
	if err := db.CheckMinPts(minPts); err != nil {
		return nil, err
	}
	if len(lrds) != db.Len() {
		return nil, fmt.Errorf("core: %d densities for %d points", len(lrds), db.Len())
	}
	return lofsFromLRDsChunked(nil, db, minPts, lrds, nil), nil
}

// lofsFromLRDsChunked is the scan body of LOFsFromLRDs, chunked over a
// worker pool (nil for sequential). Cancellation follows lrdsChunked: a
// non-nil cancelled ctx stops the scan early with discardable output.
func lofsFromLRDsChunked(ctx context.Context, db *matdb.DB, minPts int, lrds []float64, p *pool.Pool) []float64 {
	n := db.Len()
	lofs := make([]float64, n)
	p.Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if strideCancelled(ctx, i) {
				return
			}
			lofs[i] = LOF(db.Neighborhood(i, minPts), lrds, lrds[i])
		}
	})
	return lofs
}

// densityRatio returns lrdO / lrdP with infinity semantics (see LOF).
func densityRatio(lrdO, lrdP float64) float64 {
	oInf, pInf := math.IsInf(lrdO, 1), math.IsInf(lrdP, 1)
	switch {
	case oInf && pInf:
		return 1
	case pInf:
		return 0
	case oInf:
		return math.Inf(1)
	default:
		return lrdO / lrdP
	}
}

// LOFs runs both scans for one MinPts value and returns the LOF of every
// point.
func LOFs(db *matdb.DB, minPts int) ([]float64, error) {
	if err := db.CheckMinPts(minPts); err != nil {
		return nil, err
	}
	return lofsChunked(nil, db, minPts, nil), nil
}

// lofsChunked runs both scans for one pre-validated MinPts value over a
// worker pool (nil for sequential).
func lofsChunked(ctx context.Context, db *matdb.DB, minPts int, p *pool.Pool) []float64 {
	return lofsFromLRDsChunked(ctx, db, minPts, lrdsChunked(ctx, db, minPts, p), p)
}

// lofsTraced is lofsChunked with each scan recorded as a nested phase span
// on tr. The per-MinPts scans run concurrently inside the sweep, so these
// spans measure busy time, not wall time; tr is nil-safe.
func lofsTraced(ctx context.Context, db *matdb.DB, minPts int, p *pool.Pool, tr *obs.Tracer) []float64 {
	sp := tr.Phase(obs.PhaseSweepLRD)
	sp.AddItems(db.Len())
	lrds := lrdsChunked(ctx, db, minPts, p)
	sp.End()
	sp = tr.Phase(obs.PhaseSweepLOF)
	sp.AddItems(db.Len())
	lofs := lofsFromLRDsChunked(ctx, db, minPts, lrds, p)
	sp.End()
	return lofs
}

// NaiveLOFs computes LOFs for one MinPts value directly against a kNN
// index, re-running neighbor queries instead of consulting a materialized
// database. It exists as the baseline for the materialization ablation; the
// results are identical to LOFs over a database built from the same index.
func NaiveLOFs(ix index.Index, queryPoint func(i int) []index.Neighbor, minPts int) []float64 {
	n := ix.Len()
	kdist := func(i int) float64 {
		nn := queryPoint(i)
		if len(nn) == 0 {
			return math.Inf(1)
		}
		if minPts <= len(nn) {
			return nn[minPts-1].Dist
		}
		return nn[len(nn)-1].Dist
	}
	neighborhood := func(i int) []index.Neighbor {
		nn := queryPoint(i)
		if minPts >= len(nn) {
			return nn
		}
		kd := nn[minPts-1].Dist
		hi := minPts
		for hi < len(nn) && nn[hi].Dist <= kd {
			hi++
		}
		return nn[:hi]
	}
	lrd := func(i int) float64 {
		nn := neighborhood(i)
		if len(nn) == 0 {
			return math.Inf(1)
		}
		var sum float64
		for _, nb := range nn {
			sum += ReachDist(kdist(nb.Index), nb.Dist)
		}
		if sum == 0 {
			return math.Inf(1)
		}
		return float64(len(nn)) / sum
	}
	lofs := make([]float64, n)
	for i := 0; i < n; i++ {
		nn := neighborhood(i)
		if len(nn) == 0 {
			lofs[i] = 1
			continue
		}
		lrdI := lrd(i)
		var sum float64
		for _, nb := range nn {
			sum += densityRatio(lrd(nb.Index), lrdI)
		}
		lofs[i] = sum / float64(len(nn))
	}
	return lofs
}
