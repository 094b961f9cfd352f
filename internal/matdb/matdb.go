// Package matdb implements the materialization database M of the paper's
// two-step algorithm (Sec. 7.4): for every object, the MinPtsUB-nearest
// neighbors and their distances are computed once (step 1) and stored; the
// LOF computation (step 2) then runs entirely against this database in two
// scans per MinPts value without touching the original points. The size of
// M is independent of the dimensionality of the original data.
package matdb

import (
	"context"
	"errors"
	"fmt"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/obs"
	"lof/internal/pool"
)

// DB is the materialization database: per point, the K-nearest neighbors
// with ties included (Definition 4 neighborhoods for every MinPts ≤ K).
type DB struct {
	// K is the MinPtsUB the database was materialized for.
	K int
	// Neighbors[i] lists point i's neighbors sorted by (distance, index),
	// self excluded, including all ties at the K-distance.
	Neighbors [][]index.Neighbor
	// distinctAt[i][m] is the position within Neighbors[i] of the (m+1)-th
	// neighbor at a new distinct coordinate. It is non-nil only for
	// databases materialized with Distinct, where k-distances must count
	// distinct positions rather than raw neighbors.
	distinctAt [][]int32
}

// IsDistinct reports whether the database uses k-distinct-distance
// semantics.
func (db *DB) IsDistinct() bool { return db.distinctAt != nil }

// Option configures materialization.
type Option func(*config)

type config struct {
	distinct bool
	workers  int
	pool     *pool.Pool
	tracer   *obs.Tracer
	ctx      context.Context
}

// Distinct switches neighborhoods to the k-distinct-distance semantics the
// paper sketches for duplicate handling (remark after Definition 6): the
// neighborhood of p extends until it contains K neighbors with pairwise
// distinct spatial coordinates, so lrd stays finite even when the dataset
// contains more than K duplicates of p.
func Distinct() Option { return func(c *config) { c.distinct = true } }

// Workers enables parallel materialization with the given goroutine count.
// The result is identical to the sequential computation. This is an
// extension over the paper's single-threaded implementation.
func Workers(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithPool runs materialization on a worker pool shared with the rest of
// the pipeline, bounding the combined fan-out of nested parallel stages.
// It supersedes Workers when both are given; a nil pool is sequential.
func WithPool(p *pool.Pool) Option { return func(c *config) { c.pool = p } }

// WithTracer records the materialization phase on t. A nil t falls back to
// the process-default tracer (obs.Default), which is itself nil — and thus
// a no-op — unless a -stats style caller installed one.
func WithTracer(t *obs.Tracer) Option { return func(c *config) { c.tracer = t } }

// WithContext makes materialization cancellable: ctx is polled at chunk
// boundaries and between per-point kNN queries, and a cancelled run returns
// ctx's error with no database — partial rows are never observable. An
// uncancelled run is bit-identical to one without a context. A nil ctx is
// ignored.
func WithContext(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

// Materialize runs step 1 of the two-step algorithm: it computes the
// K-nearest neighborhoods (with ties) of every indexed point using ix.
// K must be positive and smaller than the dataset size for neighborhoods
// to be meaningful; K ≥ n-1 degenerates to full neighborhoods and is
// rejected to surface configuration errors early.
func Materialize(pts *geom.Points, ix index.Index, k int, opts ...Option) (*DB, error) {
	if pts == nil || ix == nil {
		return nil, errors.New("matdb: nil points or index")
	}
	n := pts.Len()
	if k <= 0 {
		return nil, fmt.Errorf("matdb: K must be positive, got %d", k)
	}
	if n < 2 {
		return nil, fmt.Errorf("matdb: need at least 2 points, have %d", n)
	}
	if k > n-1 {
		return nil, fmt.Errorf("matdb: K=%d exceeds n-1=%d; every neighborhood would be the whole dataset", k, n-1)
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}

	db := &DB{K: k, Neighbors: make([][]index.Neighbor, n)}
	if cfg.distinct {
		db.distinctAt = make([][]int32, n)
	}
	// Each chunk runs on one goroutine with one cursor and one arena: rows
	// accumulate in the arena (sliced with a capped three-index expression
	// so later growth cannot clobber them) and queries reuse the cursor's
	// scratch, so the hot path performs no per-query allocations. compact()
	// re-backs every row afterwards, which also releases the arenas. With a
	// context, the per-point loop bails as soon as cancellation is observed;
	// the partially filled database is discarded below, never returned.
	fillRange := func(lo, hi int) {
		cur := index.NewCursor(ix)
		arena := make([]index.Neighbor, 0, (hi-lo)*(k+1))
		for i := lo; i < hi; i++ {
			if cfg.ctx != nil && cfg.ctx.Err() != nil {
				return
			}
			start := len(arena)
			if cfg.distinct {
				arena, db.distinctAt[i] = distinctNeighborhoodInto(cur, pts, arena, nil, pts.At(i), i, k)
			} else {
				arena = index.KNNWithTiesInto(cur, arena, pts.At(i), k, i)
			}
			db.Neighbors[i] = arena[start:len(arena):len(arena)]
		}
	}
	p := cfg.pool
	if p == nil {
		p = pool.New(cfg.workers)
	}
	sp := obs.Resolve(cfg.tracer).Phase(obs.PhaseMaterialize)
	sp.AddItems(n)
	if cfg.ctx != nil {
		if err := p.ChunksCtx(cfg.ctx, n, fillRange); err != nil {
			sp.End()
			return nil, fmt.Errorf("matdb: materialize cancelled: %w", err)
		}
	} else {
		p.Chunks(n, fillRange)
	}
	db.compact()
	sp.End()
	if cfg.distinct {
		obs.Resolve(cfg.tracer).Count(obs.CounterDistinct, 1)
	}
	return db, nil
}

// compact re-backs every neighbor list by one contiguous allocation. The
// LOF step scans the database sequentially dozens of times (twice per
// MinPts value), so locality dominates its running time at larger n.
func (db *DB) compact() {
	total := 0
	for _, nn := range db.Neighbors {
		total += len(nn)
	}
	flat := make([]index.Neighbor, 0, total)
	for i, nn := range db.Neighbors {
		start := len(flat)
		flat = append(flat, nn...)
		db.Neighbors[i] = flat[start:len(flat):len(flat)]
	}
}

// distinctNeighborhoodInto grows the query k until the neighborhood of q
// contains want neighbors at pairwise-distinct coordinates, then appends
// all neighbors within the k-distinct-distance to dst and returns the
// extended slice together with the positions of the first `want` distinct
// coordinates within the appended suffix, appended to ranks. exclude is the
// index of q itself for in-sample rows, or index.ExcludeNone for
// out-of-sample query points. Every retry round restages over the same dst
// suffix and ranks, so the search allocates only when they must grow.
func distinctNeighborhoodInto(cur index.Cursor, pts *geom.Points, dst []index.Neighbor, ranks []int32, q geom.Point, exclude, want int) ([]index.Neighbor, []int32) {
	maxCand := pts.Len()
	if exclude != index.ExcludeNone {
		maxCand--
	}
	start := len(dst)
	k := want
	for {
		dst = cur.KNNInto(dst[:start], q, k, exclude)
		nn := dst[start:]
		cut := appendDistinctRanks(ranks, pts.At, nn, want)
		if len(cut) == want {
			kdist := nn[cut[want-1]].Dist
			dst = cur.RangeInto(dst[:start], q, kdist, exclude)
			return dst, appendDistinctRanks(cut[:0], pts.At, dst[start:], want)
		}
		if len(nn) >= maxCand {
			// The whole dataset holds fewer than want distinct positions;
			// the full neighborhood is the best possible answer.
			return dst, cut
		}
		ranks = cut[:0]
		k *= 2
		if k > maxCand {
			k = maxCand
		}
	}
}

// appendDistinctRanks appends to dst the positions of the first `want`
// neighbors that introduce a new distinct coordinate, fewer if nn does not
// contain that many distinct positions. at resolves indices to points,
// which lets merged rows resolve the virtual index of a query point.
func appendDistinctRanks(dst []int32, at func(int) geom.Point, nn []index.Neighbor, want int) []int32 {
	if dst == nil {
		dst = make([]int32, 0, want)
	}
	for j := range nn {
		if !duplicateOfEarlier(at, nn, j) {
			dst = append(dst, int32(j))
			if len(dst) == want {
				break
			}
		}
	}
	return dst
}

// duplicateOfEarlier reports whether nn[j] shares coordinates with an
// earlier entry. Identical points are equidistant from the query, so only
// the preceding run of equal distances needs coordinate comparisons.
func duplicateOfEarlier(at func(int) geom.Point, nn []index.Neighbor, j int) bool {
	pj := at(nn[j].Index)
	for l := j - 1; l >= 0 && nn[l].Dist == nn[j].Dist; l-- {
		if pj.Equal(at(nn[l].Index)) {
			return true
		}
	}
	return false
}

// Len returns the number of materialized points.
func (db *DB) Len() int { return len(db.Neighbors) }

// Neighborhood returns the MinPts-distance neighborhood of point i
// (Definition 4): all stored neighbors within the MinPts-distance,
// including ties. For distinct-mode databases, the MinPts-distance counts
// distinct coordinates (the k-distinct-distance of the paper's Def. 6
// remark). minPts must be in [1, K].
func (db *DB) Neighborhood(i, minPts int) []index.Neighbor {
	return db.Row(i).Neighborhood(minPts)
}

// KDistance returns the MinPts-distance of point i (Definition 3), or the
// MinPts-distinct-distance for distinct-mode databases.
func (db *DB) KDistance(i, minPts int) float64 {
	return db.Row(i).KDistance(minPts)
}

// CheckMinPts validates that a MinPts value can be served by this database.
func (db *DB) CheckMinPts(minPts int) error {
	if minPts < 1 {
		return fmt.Errorf("matdb: MinPts must be at least 1, got %d", minPts)
	}
	if minPts > db.K {
		return fmt.Errorf("matdb: MinPts=%d exceeds materialized K=%d", minPts, db.K)
	}
	return nil
}

// Entries returns the total number of stored neighbor entries. The paper
// notes the materialization database holds n·MinPtsUB distances "independent
// of the dimension of the original data"; Entries exceeds n·K only by
// distance ties.
func (db *DB) Entries() int {
	total := 0
	for _, nn := range db.Neighbors {
		total += len(nn)
	}
	return total
}
