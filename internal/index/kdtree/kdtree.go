// Package kdtree implements an exact k-d tree for the medium-dimensionality
// regime of the paper's materialization step. The tree is built once by
// recursive median splits and answers kNN and range queries by
// branch-and-bound descent pruned by the box bound: the cursor carries the
// current cell's per-axis gaps to the query down the descent (the
// incremental distance of Arya and Mount) and skips a far child when the
// reduced distance of those gaps (geom.Kernel.ReducedGaps) exceeds the
// threshold of the heap's worst distance or of the radius. Leaf candidates
// are tested in reduced distance too, so a rejected one costs no square
// root and no push. Both tests reject only points Push or the radius would
// refuse, so results and distances are those of a full scan bit for bit
// (DESIGN.md, "kNN probe bounds").
//
// A tree may index a subset of a store's rows (NewSubset), and its live
// queries skip rows a caller-owned tombstone mask marks deleted inside the
// traversal, so a mutable index (internal/index/dynamic) can keep its base
// over its own growing store without copying coordinates.
package kdtree

import (
	"math"

	"lof/internal/geom"
	"lof/internal/index"
)

// leafSize is the number of points at which recursion stops; small leaves
// trade tree depth against scan cost.
const leafSize = 16

// node is one k-d tree node. Leaves hold a [start,end) range into the
// permuted point order; internal nodes split on axis at value split. A
// tree's nodes sit in one array in preorder, which root keeps alive.
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
		dim := pts.Dim()
		bounds := make([]float64, 2*dim)
		b := builder{
			ix: ix, keys: make([]float64, len(ids)), lo: bounds[:dim], hi: bounds[dim:], rng: 1,
			// Leaves of a median split hold 8 to 16 points, so n/4 nodes
			// suffice unless duplicates force smaller leaves.
			nodes: make([]node, 0, len(ids)/4+1),
		}
		b.build(0, len(ids))
		// Link the children once the array has stopped growing: a left
		// child follows its parent, and build parks the right child's
		// index in end.
		for i := range b.nodes {
			if n := &b.nodes[i]; n.axis >= 0 {
				n.left, n.right = &b.nodes[i+1], &b.nodes[n.end]
			}
		}
		ix.root = &b.nodes[0]
	}
	return ix
}

// builder holds one build's state: the tree's nodes in preorder, the
// split-axis coordinate of each point in perm (kept aligned with perm
// while it is partitioned), the lo/hi pair of the spread scan and the
// pivot generator's state.
type builder struct {
	ix     *Index
	nodes  []node
	keys   []float64
	lo, hi []float64
	rng    uint64
}

// build partitions perm[start:end), appends its subtree to the node array
// and returns the index of the subtree's root. An internal node keeps its
// right child's index in end until NewSubset links the nodes.
//
// The split rule: left holds the points below the median coordinate m on
// the widest axis and right the rest; when no point lies below m, left
// holds the copies of m and right the points above it, split at the
// smallest of them. The order of points inside each side is immaterial:
// leaf scans feed a heap ordered by (distance, index).
func (b *builder) build(start, end int) int {
	ix := b.ix
	id := len(b.nodes)
	b.nodes = append(b.nodes, node{axis: -1, start: start, end: end})
	if end-start <= leafSize {
		return id
	}
	axis := b.widestAxis(start, end)
	sub, keys := ix.perm[start:end], b.keys[start:end]
	for i, pi := range sub {
		keys[i] = ix.pts.At(pi)[axis]
	}
	lt, gt := b.selectMedian(keys, sub)
	mid, split := lt, keys[lt]
	if lt == 0 {
		if gt == len(keys) {
			// Every coordinate equal on the widest axis: the points
			// coincide, so the node stays a leaf.
			return id
		}
		mid, split = gt, keys[gt]
		for _, v := range keys[gt+1:] {
			split = min(split, v)
		}
	}
	b.nodes[id] = node{axis: axis, split: split}
	b.build(start, start+mid)
	b.nodes[id].end = b.build(start+mid, end)
	return id
}

// selectMedian reorders keys, and ids with them, around the median m (the
// value of rank len(keys)/2) and returns the bounds of its copies:
// keys[:lt] < m, keys[lt:gt] == m and keys[gt:] > m. It is a quickselect
// whose three-way partitions leave exactly that layout, with pseudo-random
// pivots so no input order makes it quadratic in expectation.
func (b *builder) selectMedian(keys []float64, ids []int) (lt, gt int) {
	k := len(keys) / 2
	lo, hi := 0, len(keys)
	for {
		b.rng ^= b.rng << 13
		b.rng ^= b.rng >> 7
		b.rng ^= b.rng << 17
		p := keys[lo+int(b.rng%uint64(hi-lo))]
		l, i, g := lo, lo, hi
		for i < g {
			switch v := keys[i]; {
			case v < p:
				keys[l], keys[i] = keys[i], keys[l]
				ids[l], ids[i] = ids[i], ids[l]
				l++
				i++
			case v > p:
				g--
				keys[g], keys[i] = keys[i], keys[g]
				ids[g], ids[i] = ids[i], ids[g]
			default:
				i++
			}
		}
		switch {
		case k < l:
			hi = l
		case k >= g:
			lo = g
		default:
			return l, g
		}
	}
}

// widestAxis returns the dimension with the largest coordinate spread over
// perm[start:end), which gives better-balanced space partitions than
// cycling axes.
func (b *builder) widestAxis(start, end int) int {
	ix := b.ix
	lo, hi := b.lo, b.hi
	copy(lo, ix.pts.At(ix.perm[start]))
	copy(hi, lo)
	for _, pi := range ix.perm[start+1 : end] {
		for d, v := range ix.pts.At(pi) {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	best, bestSpread := 0, hi[0]-lo[0]
	for d := 1; d < len(lo); d++ {
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
// heap, the range accumulation buffer, the result sorter, the resolved
// distance kernel and the descent's per-axis gaps, so repeated queries
// allocate nothing and leaf scans pay no per-candidate metric dispatch.
// Branch-and-bound descent state lives on the call stack (method
// recursion), which costs no heap allocation.
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
	// gaps holds, per axis, the gap between the query and the cell the
	// descent is in (0 on axes where the query lies within the cell's
	// extent). Entering a far child sets its axis; leaving restores it.
	gaps []float64
	// t is the reduced threshold of the in-flight query's bound: the
	// heap's worst distance (+Inf until k candidates are held) or the
	// range radius.
	t float64
}

// NewCursor returns a fresh cursor over the index.
func (ix *Index) NewCursor() index.Cursor {
	return &Cursor{
		ix: ix, h: index.NewHeap(0), kern: geom.NewKernel(ix.pts, ix.metric),
		gaps: make([]float64, ix.pts.Dim()),
	}
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
	c.start(math.Inf(1), deleted)
	c.knn(c.ix.root, q, exclude)
	c.deleted = nil
	return c.h.AppendSorted(dst)
}

// start readies the descent of one query: the root cell has no gaps (a
// query that panicked mid-descent may have left some set).
func (c *Cursor) start(t float64, deleted []bool) {
	clear(c.gaps)
	c.t, c.deleted = t, deleted
}

// knn is the branch-and-bound descent of KNNLiveInto. A candidate or a
// cell whose reduced distance exceeds c.t lies beyond the heap's worst
// distance, where Push would refuse it, so skipping it leaves the result
// and every reported distance unchanged.
func (c *Cursor) knn(n *node, q geom.Point, exclude int) {
	ix := c.ix
	if n.axis < 0 { // leaf
		dead := c.deleted
		for _, pi := range ix.perm[n.start:n.end] {
			if pi == exclude || (dead != nil && dead[pi]) {
				continue
			}
			r := c.kern.Reduced(pi, q)
			if r > c.t {
				continue
			}
			c.h.Push(index.Neighbor{Index: pi, Dist: c.kern.Finish(r)})
			c.t = c.h.Threshold(&c.kern)
		}
		return
	}
	a := n.axis
	near, far := n.left, n.right
	if q[a] >= n.split {
		near, far = far, near
	}
	c.knn(near, q, exclude)
	// The far cell lies beyond the splitting plane on axis a, and inside
	// the current cell on every other axis.
	old := c.gaps[a]
	c.gaps[a] = math.Abs(q[a] - n.split)
	if c.kern.ReducedGaps(c.gaps) <= c.t {
		c.knn(far, q, exclude)
	}
	c.gaps[a] = old
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
	c.start(c.kern.Threshold(r), deleted)
	c.rangeQuery(c.ix.root, q, r, exclude)
	dst = c.out
	c.out, c.deleted = nil, nil
	c.sorter.Sort(dst[start:])
	return dst
}

// rangeQuery is the descent of RangeLiveInto, pruned as knn is by the
// threshold of r.
func (c *Cursor) rangeQuery(n *node, q geom.Point, r float64, exclude int) {
	ix := c.ix
	if n.axis < 0 {
		dead := c.deleted
		for _, pi := range ix.perm[n.start:n.end] {
			if pi == exclude || (dead != nil && dead[pi]) {
				continue
			}
			rd := c.kern.Reduced(pi, q)
			if rd > c.t {
				continue
			}
			if d := c.kern.Finish(rd); d <= r {
				c.out = append(c.out, index.Neighbor{Index: pi, Dist: d})
			}
		}
		return
	}
	a := n.axis
	near, far := n.left, n.right
	if q[a] >= n.split {
		near, far = far, near
	}
	c.rangeQuery(near, q, r, exclude)
	old := c.gaps[a]
	c.gaps[a] = math.Abs(q[a] - n.split)
	if c.kern.ReducedGaps(c.gaps) <= c.t {
		c.rangeQuery(far, q, r, exclude)
	}
	c.gaps[a] = old
}
