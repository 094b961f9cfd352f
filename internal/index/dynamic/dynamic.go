// Package dynamic implements a mutable k-nearest-neighbor index over a
// growing, tombstoned point set — the spatial index behind the incremental
// LOF detector. The in-tree index structures (kdtree, grid, vafile, …) are
// immutable after construction, which is the right trade for batch fits but
// useless under a stream of inserts and deletes. This package composes
// them into a dynamic structure using the classic base-plus-delta scheme:
//
//   - a base: an immutable index (k-d tree) built over a compacted snapshot
//     of the live points at the last rebuild;
//   - an overlay: the points inserted since that rebuild, queried by
//     sequential scan;
//   - tombstones: a deleted-bit per slot; deletions never move points, they
//     only mark them, and queries filter marked results.
//
// A query therefore costs one base probe (asking for k plus the number of
// base points tombstoned since the rebuild, so filtering can never starve
// the result) plus a scan of the overlay. When the overlay or the tombstone
// backlog outgrows a fraction of the base, the index rebuilds: the live
// points are compacted into a fresh base and both deltas reset. Rebuild
// cost is O(n log n) amortized over the Θ(n) updates that triggered it, so
// per-update cost tracks the affected neighborhood, not the dataset.
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

	// base indexes basePts, a compacted copy of the points that were live
	// at the last rebuild; baseIDs maps base positions back to slot
	// indices, and slotToBase the inverse (-1 for slots not in the base).
	base       index.Index
	basePts    *geom.Points
	baseIDs    []int
	slotToBase []int32
	// baseDead counts base points tombstoned since the rebuild; base kNN
	// queries over-fetch by this amount so filtering cannot starve them.
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
	if i < ix.overlayStart && ix.slotToBase[i] >= 0 {
		ix.baseDead++
	}
	ix.maybeRebuild()
	return nil
}

// maybeRebuild compacts the live points into a fresh base when the overlay
// or the tombstone backlog has outgrown it. Thresholds are fractions of the
// base size so rebuild cost amortizes over the updates that caused it.
func (ix *Index) maybeRebuild() {
	overlay := ix.pts.Len() - ix.overlayStart
	if overlay < rebuildMinOverlay && ix.baseDead < rebuildMinOverlay {
		return
	}
	if overlay*4 < len(ix.baseIDs) && ix.baseDead*2 < len(ix.baseIDs) {
		return
	}
	ix.Rebuild()
}

// Rebuild forces compaction: live points are copied into a fresh base
// index and the overlay and tombstone backlog reset. Queries answer
// identically before and after.
func (ix *Index) Rebuild() {
	n := ix.pts.Len()
	basePts := geom.NewPoints(ix.pts.Dim(), ix.live)
	baseIDs := make([]int, 0, ix.live)
	slotToBase := make([]int32, n)
	for i := 0; i < n; i++ {
		if ix.deleted[i] {
			slotToBase[i] = -1
			continue
		}
		slotToBase[i] = int32(len(baseIDs))
		// Append copies the coordinates, so the base snapshot stays valid
		// when ix.pts grows and reallocates underneath it.
		_ = basePts.Append(ix.pts.At(i))
		baseIDs = append(baseIDs, i)
	}
	ix.basePts = basePts
	ix.baseIDs = baseIDs
	ix.slotToBase = slotToBase
	ix.baseDead = 0
	ix.overlayStart = n
	if basePts.Len() > 0 {
		ix.base = kdtree.New(basePts, ix.metric)
	} else {
		ix.base = nil
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
	// baseCur is a cursor over the current base; rebuilt lazily when the
	// base it was created for is replaced.
	baseCur index.Cursor
	baseFor index.Index
}

// Index returns the cursor's index.
func (c *Cursor) Index() index.Index { return c.ix }

// cursor returns a cursor over the current base, reusing the previous one
// while the base is unchanged.
func (c *Cursor) cursor() index.Cursor {
	base := c.ix.base
	if base == nil {
		return nil
	}
	if c.baseFor != base {
		c.baseCur = index.NewCursor(base)
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
		// Over-fetch by the tombstone backlog: of the k+baseDead nearest
		// base points at most baseDead are dead, leaving ≥ k live ones
		// (when the base holds that many). Self-exclusion happens here when
		// the excluded slot is a base point, in the overlay scan otherwise.
		baseK := k + ix.baseDead
		baseExclude := index.ExcludeNone
		if exclude >= 0 && exclude < ix.overlayStart && ix.slotToBase[exclude] >= 0 {
			baseExclude = int(ix.slotToBase[exclude])
		}
		c.scratch = bc.KNNInto(c.scratch[:0], q, baseK, baseExclude)
		for _, nb := range c.scratch {
			slot := ix.baseIDs[nb.Index]
			if ix.deleted[slot] {
				continue
			}
			c.h.Push(index.Neighbor{Index: slot, Dist: nb.Dist})
		}
	}
	for i := ix.overlayStart; i < ix.pts.Len(); i++ {
		if i == exclude || ix.deleted[i] {
			continue
		}
		c.h.Push(index.Neighbor{Index: i, Dist: ix.kern.Dist(i, q)})
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
		baseExclude := index.ExcludeNone
		if exclude >= 0 && exclude < ix.overlayStart && ix.slotToBase[exclude] >= 0 {
			baseExclude = int(ix.slotToBase[exclude])
		}
		c.scratch = bc.RangeInto(c.scratch[:0], q, r, baseExclude)
		for _, nb := range c.scratch {
			slot := ix.baseIDs[nb.Index]
			if ix.deleted[slot] {
				continue
			}
			dst = append(dst, index.Neighbor{Index: slot, Dist: nb.Dist})
		}
	}
	for i := ix.overlayStart; i < ix.pts.Len(); i++ {
		if i == exclude || ix.deleted[i] {
			continue
		}
		if d := ix.kern.Dist(i, q); d <= r {
			dst = append(dst, index.Neighbor{Index: i, Dist: d})
		}
	}
	c.sorter.Sort(dst[start:])
	return dst
}
