// Package kdtree implements an exact k-d tree for the medium-dimensionality
// regime of the paper's materialization step. The tree is built once by
// recursive median splits and answers kNN queries by branch-and-bound
// descent with splitting-plane pruning, which is valid for every Lp metric
// because the coordinate distance to the splitting plane lower-bounds the
// full distance.
//
// A tree may index a subset of a store's rows (NewSubset), and its live
// queries skip rows a caller-owned tombstone mask marks deleted inside the
// traversal, so a mutable index (internal/index/dynamic) can keep its base
// over its own growing store without copying coordinates.
package kdtree

import (
	"sort"

	"lof/internal/geom"
	"lof/internal/index"
)

// leafSize is the number of points at which recursion stops; small leaves
// trade tree depth against scan cost.
const leafSize = 16

// node is one k-d tree node. Leaves hold a [start,end) range into the
// permuted point order; internal nodes split on axis at value split.
type node struct {
	axis        int
	split       float64
	left, right *node
	start, end  int // leaf point range in perm
}

// Index is an immutable k-d tree over a point set.
type Index struct {
	pts    *geom.Points
	metric geom.Metric
	perm   []int // indexed point indices, partitioned by the tree
	root   *node
}

// New builds a k-d tree over pts with the given metric (Euclidean when nil).
func New(pts *geom.Points, m geom.Metric) *Index {
	ids := make([]int, pts.Len()) // Len is nil-safe; NewSubset rejects nil
	for i := range ids {
		ids[i] = i
	}
	return NewSubset(pts, ids, m)
}

// NewSubset builds a k-d tree over the rows of pts that ids names, taking
// ownership of ids. Results carry row indices of pts. The tree reads
// coordinates through pts on every query, so rows may be appended to pts
// afterwards; they stay outside the tree.
func NewSubset(pts *geom.Points, ids []int, m geom.Metric) *Index {
	if pts == nil {
		panic("kdtree: nil points")
	}
	if m == nil {
		m = geom.Euclidean{}
	}
	ix := &Index{pts: pts, metric: m, perm: ids}
	if len(ids) > 0 {
		ix.root = ix.build(0, len(ids), 0)
	}
	return ix
}

// build partitions perm[start:end) and returns the subtree for it.
func (ix *Index) build(start, end, depth int) *node {
	if end-start <= leafSize {
		return &node{start: start, end: end, axis: -1}
	}
	axis := ix.widestAxis(start, end)
	sub := ix.perm[start:end]
	mid := len(sub) / 2
	// Median split: full sort is O(m log m) but build is not the hot path.
	sort.Slice(sub, func(a, b int) bool {
		return ix.pts.At(sub[a])[axis] < ix.pts.At(sub[b])[axis]
	})
	split := ix.pts.At(sub[mid])[axis]
	// Guard against all-equal coordinates on this axis: fall back to a leaf
	// when the median does not separate anything.
	if ix.pts.At(sub[0])[axis] == ix.pts.At(sub[len(sub)-1])[axis] {
		return &node{start: start, end: end, axis: -1}
	}
	// Advance mid past duplicates of the split value so the right subtree
	// holds values >= split and is nonempty.
	for mid > 0 && ix.pts.At(sub[mid-1])[axis] == split {
		mid--
	}
	if mid == 0 {
		for mid < len(sub) && ix.pts.At(sub[mid])[axis] == split {
			mid++
		}
		split = ix.pts.At(sub[mid])[axis]
	}
	n := &node{axis: axis, split: split}
	n.left = ix.build(start, start+mid, depth+1)
	n.right = ix.build(start+mid, end, depth+1)
	return n
}

// widestAxis returns the dimension with the largest coordinate spread over
// perm[start:end), which gives better-balanced space partitions than
// cycling axes.
func (ix *Index) widestAxis(start, end int) int {
	dim := ix.pts.Dim()
	lo := ix.pts.At(ix.perm[start]).Clone()
	hi := lo.Clone()
	for i := start + 1; i < end; i++ {
		p := ix.pts.At(ix.perm[i])
		for d := 0; d < dim; d++ {
			if p[d] < lo[d] {
				lo[d] = p[d]
			}
			if p[d] > hi[d] {
				hi[d] = p[d]
			}
		}
	}
	best, bestSpread := 0, hi[0]-lo[0]
	for d := 1; d < dim; d++ {
		if s := hi[d] - lo[d]; s > bestSpread {
			best, bestSpread = d, s
		}
	}
	return best
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.perm) }

// Metric returns the index's metric.
func (ix *Index) Metric() geom.Metric { return ix.metric }

// Cursor is a reusable query object over the tree: it owns the candidate
// heap, the range accumulation buffer, the result sorter and the resolved
// distance kernel, so repeated queries allocate nothing and leaf scans pay
// no per-candidate metric dispatch. Branch-and-bound descent state lives on
// the call stack (method recursion), which costs no heap allocation.
type Cursor struct {
	ix     *Index
	h      *index.Heap
	sorter index.Sorter
	kern   geom.Kernel
	// out stages the in-flight RangeInto destination so the recursion can
	// append without taking the address of a local slice (which would
	// force a heap escape per query).
	out []index.Neighbor
	// deleted is the in-flight query's tombstone mask; nil on every batch
	// path.
	deleted []bool
}

// NewCursor returns a fresh cursor over the index.
func (ix *Index) NewCursor() index.Cursor {
	return &Cursor{ix: ix, h: index.NewHeap(0), kern: geom.NewKernel(ix.pts, ix.metric)}
}

// Index returns the cursor's index.
func (c *Cursor) Index() index.Index { return c.ix }

// KNNInto appends the k nearest neighbors of q to dst.
func (c *Cursor) KNNInto(dst []index.Neighbor, q geom.Point, k int, exclude int) []index.Neighbor {
	return c.KNNLiveInto(dst, q, k, exclude, nil)
}

// KNNLiveInto is KNNInto over the indexed points i with deleted[i] false
// (every point when deleted is nil). Dead points are skipped in the
// leaves, so the result holds k live points whenever that many exist.
// deleted must cover every indexed point.
func (c *Cursor) KNNLiveInto(dst []index.Neighbor, q geom.Point, k int, exclude int, deleted []bool) []index.Neighbor {
	if k <= 0 || c.ix.root == nil {
		return dst
	}
	c.h.Reset(k)
	c.deleted = deleted
	c.knn(c.ix.root, q, exclude)
	c.deleted = nil
	return c.h.AppendSorted(dst)
}

func (c *Cursor) knn(n *node, q geom.Point, exclude int) {
	ix := c.ix
	if n.axis < 0 { // leaf
		dead := c.deleted
		for _, pi := range ix.perm[n.start:n.end] {
			if pi == exclude || (dead != nil && dead[pi]) {
				continue
			}
			c.h.Push(index.Neighbor{Index: pi, Dist: c.kern.Dist(pi, q)})
		}
		return
	}
	near, far := n.left, n.right
	if q[n.axis] >= n.split {
		near, far = far, near
	}
	c.knn(near, q, exclude)
	// The splitting-plane gap, scaled per metric, lower-bounds the distance
	// to any point in the far subtree.
	gap := geom.AxisGapLowerBound(ix.metric, n.axis, q[n.axis]-n.split)
	if w, full := c.h.Worst(); !full || gap <= w {
		c.knn(far, q, exclude)
	}
}

// RangeInto appends all points within distance r of q to dst.
func (c *Cursor) RangeInto(dst []index.Neighbor, q geom.Point, r float64, exclude int) []index.Neighbor {
	return c.RangeLiveInto(dst, q, r, exclude, nil)
}

// RangeLiveInto is RangeInto over the live points, as in KNNLiveInto.
func (c *Cursor) RangeLiveInto(dst []index.Neighbor, q geom.Point, r float64, exclude int, deleted []bool) []index.Neighbor {
	if r < 0 || c.ix.root == nil {
		return dst
	}
	start := len(dst)
	c.out = dst
	c.deleted = deleted
	c.rangeQuery(c.ix.root, q, r, exclude)
	dst = c.out
	c.out, c.deleted = nil, nil
	c.sorter.Sort(dst[start:])
	return dst
}

func (c *Cursor) rangeQuery(n *node, q geom.Point, r float64, exclude int) {
	ix := c.ix
	if n.axis < 0 {
		dead := c.deleted
		for _, pi := range ix.perm[n.start:n.end] {
			if pi == exclude || (dead != nil && dead[pi]) {
				continue
			}
			if d := c.kern.Dist(pi, q); d <= r {
				c.out = append(c.out, index.Neighbor{Index: pi, Dist: d})
			}
		}
		return
	}
	near, far := n.left, n.right
	if q[n.axis] >= n.split {
		near, far = far, near
	}
	c.rangeQuery(near, q, r, exclude)
	if geom.AxisGapLowerBound(ix.metric, n.axis, q[n.axis]-n.split) <= r {
		c.rangeQuery(far, q, r, exclude)
	}
}
