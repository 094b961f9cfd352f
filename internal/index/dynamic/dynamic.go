// Package dynamic implements a mutable k-nearest-neighbor index over a
// growing, tombstoned point set — the spatial index behind the incremental
// LOF detector. The in-tree index structures (kdtree, grid, vafile, …) are
// immutable after construction, which is the right trade for batch fits but
// useless under a stream of inserts and deletes. This package composes
// them into a dynamic structure using the classic base-plus-delta scheme:
//
//   - a base: an immutable k-d tree over the slots that were live at the
//     last rebuild, built over the index's own point store (no copy);
//   - an overlay: the points inserted since that rebuild, queried by
//     sequential scan in reduced distance (see geom.Kernel), so a point
//     beyond the bound costs no root and no push;
//   - tombstones: a deleted-bit per slot; deletions never move points, they
//     only mark them.
//
// A query therefore costs one base probe plus a scan of the overlay. The
// base probe skips tombstoned slots inside the tree traversal and asks for
// exactly k, so its cost does not grow with the tombstone backlog beyond
// the dead points in the leaves it visits. When the overlay or the
// backlog outgrows a fraction of the base, the index rebuilds the base
// over the live slots and both deltas reset. Rebuild cost is O(n log n)
// amortized over the Θ(n) updates that triggered it.
//
// Results are exact and bit-identical to a sequential scan over the live
// points: the base index computes distances with the same metric, and ties
// are broken by the canonical (distance, index) order on the *global* slot
// indices. The index is not safe for concurrent mutation; reads through
// separate cursors are safe once mutation stops (the epoch layer in
// internal/stream enforces exactly that discipline).
package dynamic

import (
	"fmt"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/kdtree"
)

// rebuildMinOverlay is the overlay size below which rebuilds never trigger:
// tiny datasets would otherwise rebuild on every insert.
const rebuildMinOverlay = 32

// Index is a dynamic kNN index over tombstoned slots. Slot indices are
// stable across all mutations: Insert appends a slot, Delete marks one, and
// query results carry slot indices.
type Index struct {
	pts    *geom.Points
	metric geom.Metric
	// kern is the resolved distance kernel over pts. It reads the store
	// through the pointer on every call, so it survives appends that
	// re-back the coordinate block.
	kern geom.Kernel

	deleted []bool
	live    int

	// base indexes the slots that were live at the last rebuild, over pts
	// itself.
	base *kdtree.Index
	// baseDead counts base points tombstoned since the rebuild; it
	// triggers the next rebuild.
	baseDead int
	// overlayStart is the first slot not covered by the base.
	overlayStart int
}

// New returns an empty dynamic index for dim-dimensional points under m
// (Euclidean when nil).
func New(dim int, m geom.Metric) *Index {
	if m == nil {
		m = geom.Euclidean{}
	}
	pts := geom.NewPoints(dim, 0)
	return &Index{pts: pts, metric: m, kern: geom.NewKernel(pts, m)}
}

// Len returns the number of live (inserted and not deleted) points.
func (ix *Index) Len() int { return ix.live }

// Size returns the number of slots ever allocated, tombstones included.
func (ix *Index) Size() int { return ix.pts.Len() }

// Metric returns the index's metric.
func (ix *Index) Metric() geom.Metric { return ix.metric }

// Dim returns the dimensionality of the indexed points.
func (ix *Index) Dim() int { return ix.pts.Dim() }

// At returns a view of slot i's coordinates; callers must not modify it.
func (ix *Index) At(i int) geom.Point { return ix.pts.At(i) }

// DistTo returns the distance between slot i and q under the index's
// metric, through the resolved kernel (no per-call metric dispatch).
func (ix *Index) DistTo(i int, q geom.Point) float64 { return ix.kern.Dist(i, q) }

// AnyWithin reports whether some live slot i in [first, end) has
// DistTo(o, At(i)) <= b, bit for bit. A slot whose reduced distance
// exceeds the threshold of b costs no root.
func (ix *Index) AnyWithin(o, first, end int, b float64) bool {
	t := ix.kern.Threshold(b)
	for i := first; i < end; i++ {
		if ix.deleted[i] {
			continue
		}
		if r := ix.kern.Reduced(o, ix.pts.At(i)); r <= t && ix.kern.Finish(r) <= b {
			return true
		}
	}
	return false
}

// Deleted reports whether slot i is tombstoned (out-of-range slots report
// true: there is no live point there).
func (ix *Index) Deleted(i int) bool {
	return i < 0 || i >= len(ix.deleted) || ix.deleted[i]
}

// Insert appends p as a new slot and returns its index. The coordinates
// are copied; the caller may reuse p's backing array afterwards.
func (ix *Index) Insert(p geom.Point) (int, error) {
	if err := ix.pts.Append(p); err != nil {
		return 0, err
	}
	ix.deleted = append(ix.deleted, false)
	ix.live++
	i := ix.pts.Len() - 1
	ix.maybeRebuild()
	return i, nil
}

// Delete tombstones slot i. The slot keeps its index; it just stops
// appearing in query results.
func (ix *Index) Delete(i int) error {
	if i < 0 || i >= ix.pts.Len() {
		return fmt.Errorf("dynamic: slot %d out of range [0, %d)", i, ix.pts.Len())
	}
	if ix.deleted[i] {
		return fmt.Errorf("dynamic: slot %d already deleted", i)
	}
	ix.deleted[i] = true
	ix.live--
	// A live slot below overlayStart was live at the rebuild, so it is in
	// the base.
	if i < ix.overlayStart {
		ix.baseDead++
	}
	ix.maybeRebuild()
	return nil
}

// Compacted returns a new index over ix's live points, numbered densely
// in slot order, with its base built once over all of them. ix is left
// unchanged.
func (ix *Index) Compacted() *Index {
	ids := make([]int, 0, ix.live)
	for i, dead := range ix.deleted {
		if !dead {
			ids = append(ids, i)
		}
	}
	pts := ix.pts.Subset(ids)
	nix := &Index{pts: pts, metric: ix.metric, kern: geom.NewKernel(pts, ix.metric), deleted: make([]bool, len(ids)), live: len(ids)}
	nix.Rebuild()
	return nix
}

// maybeRebuild rebuilds the base over the live slots when the overlay or
// the tombstone backlog has outgrown it. Thresholds are fractions of the
// base size so rebuild cost amortizes over the updates that caused it.
func (ix *Index) maybeRebuild() {
	overlay := ix.pts.Len() - ix.overlayStart
	if overlay < rebuildMinOverlay && ix.baseDead < rebuildMinOverlay {
		return
	}
	base := 0
	if ix.base != nil {
		base = ix.base.Len()
	}
	if overlay*4 < base && ix.baseDead*2 < base {
		return
	}
	ix.Rebuild()
}

// Rebuild forces a rebuild: the live slots are indexed by a fresh base
// and the overlay and tombstone backlog reset. Queries answer identically
// before and after.
func (ix *Index) Rebuild() {
	n := ix.pts.Len()
	ids := make([]int, 0, ix.live)
	for i := 0; i < n; i++ {
		if !ix.deleted[i] {
			ids = append(ids, i)
		}
	}
	ix.baseDead = 0
	ix.overlayStart = n
	ix.base = nil
	if len(ids) > 0 {
		ix.base = kdtree.NewSubset(ix.pts, ids, ix.metric)
	}
}

// NewCursor returns a reusable query object over the index. The cursor
// observes mutations (it holds no snapshot), but must not be used
// concurrently with them.
func (ix *Index) NewCursor() index.Cursor {
	return &Cursor{ix: ix, h: index.NewHeap(0)}
}

// Cursor owns the candidate heap, base-probe scratch and sorter for one
// query stream; see index.Cursor.
type Cursor struct {
	ix      *Index
	h       *index.Heap
	sorter  index.Sorter
	scratch []index.Neighbor
	// baseCur is a cursor over baseFor; rebuilt lazily when the index's
	// base is replaced.
	baseCur *kdtree.Cursor
	baseFor *kdtree.Index
}

// Index returns the cursor's index.
func (c *Cursor) Index() index.Index { return c.ix }

// cursor returns a cursor over the current base, reusing the previous one
// while the base is unchanged.
func (c *Cursor) cursor() *kdtree.Cursor {
	base := c.ix.base
	if base == nil {
		return nil
	}
	if c.baseFor != base {
		c.baseCur = base.NewCursor().(*kdtree.Cursor)
		c.baseFor = base
	}
	return c.baseCur
}

// KNNInto appends the k nearest live neighbors of q to dst, sorted by
// (distance, slot index), self-excluded via exclude; all live points when
// fewer than k exist.
func (c *Cursor) KNNInto(dst []index.Neighbor, q geom.Point, k int, exclude int) []index.Neighbor {
	if k <= 0 {
		return dst
	}
	ix := c.ix
	c.h.Reset(k)
	if bc := c.cursor(); bc != nil {
		// The mask is read here, not kept by the base: appends re-back it.
		c.scratch = bc.KNNLiveInto(c.scratch[:0], q, k, exclude, ix.deleted)
		for _, nb := range c.scratch {
			c.h.Push(nb)
		}
	}
	// The overlay scan skips, as the base's leaves do, a point whose
	// reduced distance exceeds the threshold of the heap's worst: Push
	// would refuse it.
	t := c.h.Threshold(&ix.kern)
	for i := ix.overlayStart; i < ix.pts.Len(); i++ {
		if i == exclude || ix.deleted[i] {
			continue
		}
		r := ix.kern.Reduced(i, q)
		if r > t {
			continue
		}
		c.h.Push(index.Neighbor{Index: i, Dist: ix.kern.Finish(r)})
		t = c.h.Threshold(&ix.kern)
	}
	return c.h.AppendSorted(dst)
}

// RangeInto appends every live point within distance r of q (inclusive) to
// dst, sorted by (distance, slot index).
func (c *Cursor) RangeInto(dst []index.Neighbor, q geom.Point, r float64, exclude int) []index.Neighbor {
	if r < 0 {
		return dst
	}
	ix := c.ix
	start := len(dst)
	if bc := c.cursor(); bc != nil {
		dst = bc.RangeLiveInto(dst, q, r, exclude, ix.deleted)
	}
	t := ix.kern.Threshold(r)
	for i := ix.overlayStart; i < ix.pts.Len(); i++ {
		if i == exclude || ix.deleted[i] {
			continue
		}
		rd := ix.kern.Reduced(i, q)
		if rd > t {
			continue
		}
		if d := ix.kern.Finish(rd); d <= r {
			dst = append(dst, index.Neighbor{Index: i, Dist: d})
		}
	}
	c.sorter.Sort(dst[start:])
	return dst
}
