package matdb

import (
	"math"

	"lof/internal/geom"
	"lof/internal/index"
)

// Row is a neighbor list carrying the database's k-distance semantics. It
// unifies three cases the out-of-sample scoring path needs to treat alike:
// a stored row of the database, the virtual row an un-indexed query point
// would have, and a stored row merged with such a query point — the row a
// point would have in data ∪ {q}. All three answer Definition 3/4 lookups
// through the same KDistance/Neighborhood methods the in-sample scans use.
type Row struct {
	// Neighbors is sorted by (distance, index), self excluded, including
	// all ties at the row's K-distance.
	Neighbors []index.Neighbor
	// ranks holds the distinct-coordinate positions (see DB.distinctAt);
	// nil for raw-mode rows.
	ranks    []int32
	distinct bool
}

// Row returns the stored row of point i.
func (db *DB) Row(i int) Row {
	r := Row{Neighbors: db.Neighbors[i], distinct: db.distinctAt != nil}
	if db.distinctAt != nil {
		r.ranks = db.distinctAt[i]
	}
	return r
}

// rankIndex maps a MinPts value to the position within Neighbors that
// carries the MinPts-distance, mirroring DB.rankIndex.
func (r Row) rankIndex(minPts int) int {
	if !r.distinct {
		return minPts - 1
	}
	if len(r.ranks) == 0 {
		return len(r.Neighbors) // degenerate: no distinct info
	}
	if minPts > len(r.ranks) {
		minPts = len(r.ranks)
	}
	return int(r.ranks[minPts-1])
}

// KDistance returns the row's MinPts-distance (Definition 3), or the
// MinPts-distinct-distance for distinct-mode rows.
func (r Row) KDistance(minPts int) float64 {
	if len(r.Neighbors) == 0 {
		return math.Inf(1)
	}
	at := r.rankIndex(minPts)
	if at >= len(r.Neighbors) {
		at = len(r.Neighbors) - 1
	}
	return r.Neighbors[at].Dist
}

// Neighborhood returns the row's MinPts-distance neighborhood
// (Definition 4): all neighbors within the MinPts-distance, ties included.
func (r Row) Neighborhood(minPts int) []index.Neighbor {
	nn := r.Neighbors
	if len(nn) == 0 {
		return nn
	}
	at := r.rankIndex(minPts)
	if at >= len(nn) {
		return nn
	}
	kdist := nn[at].Dist
	hi := at + 1
	for hi < len(nn) && nn[hi].Dist <= kdist {
		hi++
	}
	return nn[:hi]
}

// QueryRow computes the row an out-of-sample query point q would occupy in
// the database: its K-nearest neighborhood (with ties, and with the
// database's distinct semantics) among the indexed points. pts and ix must
// be the collection and index the database was materialized from. The
// result is exactly the row q would get from a re-materialization of
// data ∪ {q}, because q never belongs to its own neighborhood either way.
func (db *DB) QueryRow(pts *geom.Points, ix index.Index, q geom.Point) Row {
	return db.QueryRowCursor(pts, index.NewCursor(ix), q)
}

// QueryRowCursor is QueryRow through a reusable cursor: batch scorers hold
// one cursor per goroutine so consecutive query rows share its scratch. The
// returned row's neighbor list is freshly allocated (rows outlive the call),
// but the queries behind it run allocation-free on the cursor.
func (db *DB) QueryRowCursor(pts *geom.Points, cur index.Cursor, q geom.Point) Row {
	return db.QueryRowInto(new(RowBuf), pts, cur, q)
}

// QueryRowInto is QueryRowCursor building the row in buf, so a scorer
// probing query after query allocates only when a row outgrows the buffer.
// The row is valid until buf's next use.
func (db *DB) QueryRowInto(buf *RowBuf, pts *geom.Points, cur index.Cursor, q geom.Point) Row {
	return buf.query(cur, pts, q, db.K, db.distinctAt != nil)
}

// MergedRow computes the row point i would occupy in data ∪ {q}: its stored
// row with the query point spliced in at distance d = d(i, q), under the
// virtual index qIdx (callers pass pts.Len(), matching the row number q
// would receive in a refit). The result is valid for MinPts values up to K:
// inserting a point can only shrink k-distances, so every neighbor relevant
// at MinPts ≤ K is already present in the stored row. The result is freshly
// allocated; RowBuf.Merge is the same splice into reused buffers, skipping
// rows q cannot change.
func (db *DB) MergedRow(pts *geom.Points, i int, q geom.Point, qIdx int, d float64) Row {
	return db.MergedRowInto(nil, pts, i, q, qIdx, d)
}

// MergedRowInto is MergedRow building the merged neighbor list in dst,
// which must be empty; a dst without room for len(stored row)+1 entries is
// replaced by a fresh allocation.
func (db *DB) MergedRowInto(dst []index.Neighbor, pts *geom.Points, i int, q geom.Point, qIdx int, d float64) Row {
	return splice(dst, nil, db.Row(i), q, qIdx, d, pts.At, db.K)
}
