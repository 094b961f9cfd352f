package index

import "lof/internal/geom"

// Cursor is a reusable query object over one index. It owns the candidate
// heap, the result scratch and any implementation-specific traversal state
// (kd-tree/X-tree stacks, grid cell lists, VA-file candidate sets), so
// issuing many queries through one cursor performs no per-query
// allocations: results are appended into caller-owned buffers.
//
// A cursor is bound to the index that created it and is NOT safe for
// concurrent use — it is a per-goroutine object. The index itself stays
// immutable and safe for concurrent queries; parallel consumers allocate
// one cursor per worker (see matdb.Materialize).
type Cursor interface {
	// Index returns the index this cursor queries.
	Index() Index
	// KNNInto appends the k nearest neighbors of q to dst and returns the
	// extended slice, sorted by (distance, index), excluding the point with
	// index exclude (ExcludeNone keeps all points). If fewer than k points
	// are available, all of them are appended. Ties at the k-th distance are
	// broken by index; KNNWithTiesInto gives the paper's tie-inclusive
	// neighborhoods.
	KNNInto(dst []Neighbor, q geom.Point, k int, exclude int) []Neighbor
	// RangeInto appends every point within distance r of q (inclusive),
	// excluding the point with index exclude, to dst and returns the
	// extended slice, sorted by (distance, index).
	RangeInto(dst []Neighbor, q geom.Point, r float64, exclude int) []Neighbor
}

// NewCursor returns a reusable cursor over ix.
func NewCursor(ix Index) Cursor { return ix.NewCursor() }

// KNNWithTiesInto appends the k-distance neighborhood of q (Definition 4
// of the paper) to dst and returns the extended slice: every point whose
// distance from q is at most the k-th smallest distance, so more than k
// points when several tie at the k-distance, and none when k is not
// positive. The search asks for k+1 neighbors: when the extra one lies
// strictly beyond the k-th distance no point ties it, and the first k are
// the neighborhood exactly as a range query would list them (both sort by
// (distance, index) and measure with the same kernel). Only a tie costs
// the range expansion. Intermediate results are staged in dst itself, so
// the call allocates only when dst must grow.
func KNNWithTiesInto(c Cursor, dst []Neighbor, q geom.Point, k int, exclude int) []Neighbor {
	if k <= 0 {
		return dst
	}
	start := len(dst)
	dst = c.KNNInto(dst, q, k+1, exclude)
	if len(dst)-start <= k {
		return dst // at most k candidates: all of them are the neighborhood
	}
	kdist := dst[start+k-1].Dist
	if dst[start+k].Dist > kdist {
		return dst[:start+k]
	}
	return c.RangeInto(dst[:start], q, kdist, exclude)
}
