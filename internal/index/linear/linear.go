// Package linear implements k-NN queries by sequential scan — the exact
// baseline every other index is validated against, and the regime the paper
// prescribes for extremely high-dimensional data (O(n) per query, O(n²)
// materialization).
package linear

import (
	"lof/internal/geom"
	"lof/internal/index"
)

// Index scans all points for every query.
type Index struct {
	pts    *geom.Points
	metric geom.Metric
}

// New builds a sequential-scan index over pts.
func New(pts *geom.Points, m geom.Metric) *Index {
	if pts == nil {
		panic("linear: nil points")
	}
	if m == nil {
		m = geom.Euclidean{}
	}
	return &Index{pts: pts, metric: m}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.pts.Len() }

// Metric returns the index's metric.
func (ix *Index) Metric() geom.Metric { return ix.metric }

// Cursor is a reusable query object over the scan: it owns the candidate
// heap, result sorter and resolved distance kernel, so repeated queries
// allocate nothing and the scan loop performs no per-candidate metric
// dispatch.
type Cursor struct {
	ix     *Index
	h      *index.Heap
	sorter index.Sorter
	kern   geom.Kernel
}

// NewCursor returns a fresh cursor over the index.
func (ix *Index) NewCursor() index.Cursor {
	return &Cursor{ix: ix, h: index.NewHeap(0), kern: geom.NewKernel(ix.pts, ix.metric)}
}

// Index returns the cursor's index.
func (c *Cursor) Index() index.Index { return c.ix }

// KNNInto appends the k nearest neighbors of q to dst by full scan. The
// kernel addresses rows by strided offset into the store's contiguous
// block; pruning and result distances use the same rounded value so
// boundary ties stay consistent with Range.
func (c *Cursor) KNNInto(dst []index.Neighbor, q geom.Point, k int, exclude int) []index.Neighbor {
	if k <= 0 {
		return dst
	}
	c.h.Reset(k)
	n := c.ix.pts.Len()
	for i := 0; i < n; i++ {
		if i == exclude {
			continue
		}
		c.h.Push(index.Neighbor{Index: i, Dist: c.kern.Dist(i, q)})
	}
	return c.h.AppendSorted(dst)
}

// RangeInto appends all points within distance r of q to dst. Distances are
// compared in rounded (not squared) form: r is typically a k-distance
// produced by KNN, and squaring it can round below the boundary point's
// squared distance.
func (c *Cursor) RangeInto(dst []index.Neighbor, q geom.Point, r float64, exclude int) []index.Neighbor {
	if r < 0 {
		return dst
	}
	start := len(dst)
	n := c.ix.pts.Len()
	for i := 0; i < n; i++ {
		if i == exclude {
			continue
		}
		if d := c.kern.Dist(i, q); d <= r {
			dst = append(dst, index.Neighbor{Index: i, Dist: d})
		}
	}
	c.sorter.Sort(dst[start:])
	return dst
}
