package matdb

import (
	"fmt"

	"lof/internal/geom"
	"lof/internal/index"
)

// This file is the merge surface of the materialization database: the
// primitives that turn stored rows and kNN candidates into the rows of
// data ∪ {q}.
//
//   - MergeCandidates turns the union of per-shard kNN candidate lists into
//     the exact row a query point would occupy in the full database: a
//     shard holds only its partition of the fitted points, and the sharded
//     coordinator merges their answers into the query's global row, and
//   - RowBuf.Merge turns a stored row into the merged row of data ∪ {q},
//     the same computation MergedRow performs.
//
// The coordinator scores the merged query row with the model it fitted, so
// a scatter-gather score runs the in-process scorer over the same stored
// rows and is bit-identical to a single-node one by construction, not by
// parallel maintenance.

// Ranks returns the distinct-coordinate positions of a distinct-mode row,
// nil otherwise. The returned slice aliases the row's storage.
func (r Row) Ranks() []int32 { return r.ranks }

// IsDistinct reports whether the row carries k-distinct-distance semantics.
func (r Row) IsDistinct() bool { return r.distinct }

// AppendKDistances appends the row's k-distances at MinPts lb..ub to dst —
// everything a point two hops from a query contributes to the query's LOF
// (Definition 5 reads a neighbor only through its k-distance).
func (r Row) AppendKDistances(dst []float64, lb, ub int) []float64 {
	if !r.distinct && len(r.Neighbors) >= ub {
		// Plain rows at least ub long: KDistance(m) is entry m−1.
		for _, nb := range r.Neighbors[lb-1 : ub] {
			dst = append(dst, nb.Dist)
		}
		return dst
	}
	for m := lb; m <= ub; m++ {
		dst = append(dst, r.KDistance(m))
	}
	return dst
}

// RowBuf is reusable storage for one row at a time: the neighbor list and
// distinct ranks of the last row built in it, so a caller building many
// rows — a scorer's closure, a shard's candidate batch — allocates only
// when a row outgrows the buffers. The zero value is ready to use. A row returned
// by a RowBuf method aliases the buffers and is valid until the next call
// on the same RowBuf.
type RowBuf struct {
	nn    []index.Neighbor
	ranks []int32
}

// keep records r's backing arrays, which may have grown, for the next row.
func (b *RowBuf) keep(r Row) Row {
	b.nn = r.Neighbors[:0]
	if r.distinct {
		b.ranks = r.ranks[:0]
	}
	return r
}

// Merge returns the row of a stored point in data ∪ {q} as every
// MinPts ≤ ub sees it: q at distance d under the virtual index qIdx
// (callers pass the total dataset size, so q sorts after every stored tie).
// When q lies strictly beyond the stored ub-distance of a full row,
// inserting it changes none of the row's neighborhoods or k-distances at
// MinPts ≤ ub, so the stored row itself answers. A full row holds ub
// neighbors, and in distinct mode ub distinct ranks; a shorter one means
// fewer than ub other points (or positions) exist, so q joins its
// ub-neighborhood wherever it lies. Every other row is spliced: the stored
// row with q inserted, and in distinct mode its ranks recomputed with q in
// place. at resolves stored neighbor indices to coordinates and is
// consulted only for that recomputation; it never sees qIdx. k is the
// materialized K of the database the row came from.
//
// The scorer's closure rows — for lofserve and lofcoord alike — and the
// streaming detector's out-of-sample rows all come from here, so every
// evaluation reads the same rows.
func (b *RowBuf) Merge(stored Row, q geom.Point, qIdx int, d float64, at func(int) geom.Point, k, ub int) Row {
	full := len(stored.Neighbors) >= ub && (!stored.distinct || len(stored.ranks) >= ub)
	if full && stored.KDistance(ub) < d {
		return stored
	}
	return b.keep(splice(b.nn[:0], b.ranks[:0], stored, q, qIdx, d, at, k))
}

// splice computes the merged row of stored in data ∪ {q} (see Merge),
// building its neighbor list in dst and its distinct ranks in ranks, both
// of which must be empty.
func splice(dst []index.Neighbor, ranks []int32, stored Row, q geom.Point, qIdx int, d float64, at func(int) geom.Point, k int) Row {
	nn := stored.Neighbors
	if need := len(nn) + 1; cap(dst) < need {
		dst = make([]index.Neighbor, 0, need)
	}
	// q sorts after every stored tie at distance d: stored indexes are all
	// smaller than the virtual index.
	pos := 0
	for pos < len(nn) && nn[pos].Dist <= d {
		pos++
	}
	merged := append(dst, nn[:pos]...)
	merged = append(merged, index.Neighbor{Index: qIdx, Dist: d})
	merged = append(merged, nn[pos:]...)
	r := Row{Neighbors: merged, distinct: stored.distinct}
	if r.distinct {
		resolve := func(idx int) geom.Point {
			if idx == qIdx {
				return q
			}
			return at(idx)
		}
		r.ranks = appendDistinctRanks(ranks, resolve, merged, k)
	}
	return r
}

// QueryCandidates returns q's k-nearest neighborhood (with ties, under the
// given duplicate semantics) among the indexed points — the per-partition
// candidate set a shard contributes to a scatter-gather query — built in
// buf. Indices in the result are positions within pts; the caller maps them
// to global ids. It is exactly the neighbor list QueryRow computes,
// detached from a DB so a shard can serve candidates without
// rematerializing one.
func (b *RowBuf) QueryCandidates(cur index.Cursor, pts *geom.Points, q geom.Point, k int, distinct bool) []index.Neighbor {
	return b.query(cur, pts, q, k, distinct).Neighbors
}

// query probes q's row among the indexed points into the buffers.
func (b *RowBuf) query(cur index.Cursor, pts *geom.Points, q geom.Point, k int, distinct bool) Row {
	if !distinct {
		return b.keep(Row{Neighbors: index.KNNWithTiesInto(cur, b.nn[:0], q, k, index.ExcludeNone)})
	}
	nn, ranks := distinctNeighborhoodInto(cur, pts, b.nn[:0], b.ranks[:0], q, index.ExcludeNone, k)
	return b.keep(Row{Neighbors: nn, ranks: ranks, distinct: true})
}

// MergeCandidates merges per-shard candidate lists into the exact row q
// would occupy in the full database — the distributed counterpart of
// QueryRow. cands is the concatenation of every shard's QueryCandidates
// result with indices already mapped to global ids (shards own disjoint
// id sets, so no deduplication is needed); each shard's list must cover its
// partition's contribution to the global neighborhood, which QueryCandidates
// guarantees: a partition's k-(distinct-)distance is never smaller than the
// global one. at resolves global ids to coordinates — the coordinator reads
// them from its model's points — and is consulted only in distinct mode.
// cands is sorted in place.
func MergeCandidates(cands []index.Neighbor, at func(int) geom.Point, k int, distinct bool) (Row, error) {
	if k <= 0 {
		return Row{}, fmt.Errorf("matdb: merge K must be positive, got %d", k)
	}
	index.SortNeighbors(cands)
	for i := 1; i < len(cands); i++ {
		if cands[i].Index == cands[i-1].Index {
			return Row{}, fmt.Errorf("matdb: duplicate candidate id %d; shard partitions must be disjoint", cands[i].Index)
		}
	}
	if !distinct {
		if len(cands) <= k {
			return Row{Neighbors: cands}, nil
		}
		kdist := cands[k-1].Dist
		hi := k
		for hi < len(cands) && cands[hi].Dist <= kdist {
			hi++
		}
		return Row{Neighbors: cands[:hi]}, nil
	}
	ranks := appendDistinctRanks(nil, at, cands, k)
	if len(ranks) < k {
		// Fewer than k distinct positions exist in the whole dataset; the
		// full candidate union is the best possible neighborhood, matching
		// distinctNeighborhoodInto's degenerate case.
		return Row{Neighbors: cands, ranks: ranks, distinct: true}, nil
	}
	kdist := cands[ranks[k-1]].Dist
	hi := int(ranks[k-1]) + 1
	for hi < len(cands) && cands[hi].Dist <= kdist {
		hi++
	}
	cut := cands[:hi]
	return Row{Neighbors: cut, ranks: appendDistinctRanks(ranks[:0], at, cut, k), distinct: true}, nil
}
