// Package kdtree implements an exact k-d tree for the medium-dimensionality
// regime of the paper's materialization step. The tree is built once by
// recursive median splits and answers kNN queries by branch-and-bound
// descent with splitting-plane pruning, which is valid for every Lp metric
// because the coordinate distance to the splitting plane lower-bounds the
// full distance.
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
	perm   []int // permutation of point indices, partitioned by the tree
	root   *node
}

// New builds a k-d tree over pts with the given metric (Euclidean when nil).
func New(pts *geom.Points, m geom.Metric) *Index {
	if pts == nil {
		panic("kdtree: nil points")
	}
	if m == nil {
		m = geom.Euclidean{}
	}
	ix := &Index{pts: pts, metric: m, perm: make([]int, pts.Len())}
	for i := range ix.perm {
		ix.perm[i] = i
	}
	if pts.Len() > 0 {
		ix.root = ix.build(0, pts.Len(), 0)
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
func (ix *Index) Len() int { return ix.pts.Len() }

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
}

// NewCursor returns a fresh cursor over the index.
func (ix *Index) NewCursor() index.Cursor {
	return &Cursor{ix: ix, h: index.NewHeap(0), kern: geom.NewKernel(ix.pts, ix.metric)}
}

// Index returns the cursor's index.
func (c *Cursor) Index() index.Index { return c.ix }

// KNNInto appends the k nearest neighbors of q to dst.
func (c *Cursor) KNNInto(dst []index.Neighbor, q geom.Point, k int, exclude int) []index.Neighbor {
	if k <= 0 || c.ix.root == nil {
		return dst
	}
	c.h.Reset(k)
	c.knn(c.ix.root, q, exclude)
	return c.h.AppendSorted(dst)
}

func (c *Cursor) knn(n *node, q geom.Point, exclude int) {
	ix := c.ix
	if n.axis < 0 { // leaf
		for _, pi := range ix.perm[n.start:n.end] {
			if pi == exclude {
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
	if r < 0 || c.ix.root == nil {
		return dst
	}
	start := len(dst)
	c.out = dst
	c.rangeQuery(c.ix.root, q, r, exclude)
	dst = c.out
	c.out = nil
	c.sorter.Sort(dst[start:])
	return dst
}

func (c *Cursor) rangeQuery(n *node, q geom.Point, r float64, exclude int) {
	ix := c.ix
	if n.axis < 0 {
		for _, pi := range ix.perm[n.start:n.end] {
			if pi == exclude {
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
