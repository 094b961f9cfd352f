// Package xtree implements the tree index of the paper's performance
// experiments: an R-tree with R*-style topological splits extended by the
// X-tree's supernode mechanism ([4] in the paper). When a directory split
// would produce heavily overlapping halves — the failure mode that makes
// plain R-trees degenerate in higher dimensions — the node is turned into a
// supernode of extended capacity instead, so the tree degrades gracefully
// toward a sequential scan exactly as the X-tree does.
//
// Queries are exact: k-NN uses best-first search over minimum bounding
// rectangles; range queries recurse with rectangle pruning.
package xtree

import (
	"math"
	"sort"

	"lof/internal/geom"
	"lof/internal/index"
)

const (
	// baseCapacity is the fan-out M of a normal node.
	baseCapacity = 32
	// minFill is the R*-tree minimum fill fraction used by splits.
	minFill = 0.4
	// maxOverlapFraction is the X-tree split-quality threshold. Split
	// quality is the geometric-mean per-axis overlap of the two halves
	// (the d-th root of intersection volume over node volume), which
	// unlike the raw volume ratio stays comparable across dimensions.
	// Splits worse than this are rejected in favor of a supernode.
	maxOverlapFraction = 0.3
)

// rect is an axis-aligned minimum bounding rectangle.
type rect struct {
	lo, hi geom.Point
}

func newRect(p geom.Point) rect {
	return rect{lo: p.Clone(), hi: p.Clone()}
}

func (r *rect) extendPoint(p geom.Point) {
	for i, v := range p {
		if v < r.lo[i] {
			r.lo[i] = v
		}
		if v > r.hi[i] {
			r.hi[i] = v
		}
	}
}

func (r *rect) extendRect(o rect) {
	for i := range r.lo {
		if o.lo[i] < r.lo[i] {
			r.lo[i] = o.lo[i]
		}
		if o.hi[i] > r.hi[i] {
			r.hi[i] = o.hi[i]
		}
	}
}

// margin returns the half-perimeter, the R*-split goodness measure.
func (r rect) margin() float64 {
	var s float64
	for i := range r.lo {
		s += r.hi[i] - r.lo[i]
	}
	return s
}

// volume returns the rectangle's d-dimensional volume.
func (r rect) volume() float64 {
	v := 1.0
	for i := range r.lo {
		v *= r.hi[i] - r.lo[i]
	}
	return v
}

// enlargement returns the volume increase needed to absorb o.
func (r rect) enlargement(o rect) float64 {
	grown := rect{lo: r.lo.Clone(), hi: r.hi.Clone()}
	grown.extendRect(o)
	return grown.volume() - r.volume()
}

// overlap returns the volume of the intersection of r and o.
func (r rect) overlap(o rect) float64 {
	v := 1.0
	for i := range r.lo {
		lo := math.Max(r.lo[i], o.lo[i])
		hi := math.Min(r.hi[i], o.hi[i])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// node is an X-tree node. Leaves hold point ids; directory nodes hold
// children. capacity exceeds baseCapacity for supernodes.
type node struct {
	mbr      rect
	leaf     bool
	points   []int32 // leaf entries
	children []*node // directory entries
	capacity int
}

// Index is an immutable-after-construction X-tree.
type Index struct {
	pts        *geom.Points
	metric     geom.Metric
	root       *node
	height     int
	supernodes int
}

// New builds an X-tree over pts by repeated insertion with the given metric
// (Euclidean when nil).
func New(pts *geom.Points, m geom.Metric) *Index {
	if pts == nil {
		panic("xtree: nil points")
	}
	if m == nil {
		m = geom.Euclidean{}
	}
	ix := &Index{pts: pts, metric: m}
	for i := 0; i < pts.Len(); i++ {
		ix.insert(int32(i))
	}
	return ix
}

// Supernodes reports how many supernodes the tree created — the X-tree's
// indicator of dimensionality-driven degradation.
func (ix *Index) Supernodes() int { return ix.supernodes }

// Height returns the tree height (0 for an empty tree, 1 for a single leaf).
func (ix *Index) Height() int { return ix.height }

func (ix *Index) insert(pi int32) {
	p := ix.pts.At(int(pi))
	if ix.root == nil {
		ix.root = &node{mbr: newRect(p), leaf: true, capacity: baseCapacity, points: []int32{pi}}
		ix.height = 1
		return
	}
	split := ix.insertInto(ix.root, pi)
	if split != nil {
		// Root split: grow the tree by one level.
		newRoot := &node{leaf: false, capacity: baseCapacity, children: []*node{ix.root, split}}
		newRoot.mbr = rect{lo: ix.root.mbr.lo.Clone(), hi: ix.root.mbr.hi.Clone()}
		newRoot.mbr.extendRect(split.mbr)
		ix.root = newRoot
		ix.height++
	}
}

// insertInto adds point pi to the subtree rooted at n. It returns a new
// sibling node if n was split, or nil.
func (ix *Index) insertInto(n *node, pi int32) *node {
	p := ix.pts.At(int(pi))
	n.mbr.extendPoint(p)
	if n.leaf {
		n.points = append(n.points, pi)
		if len(n.points) <= n.capacity {
			return nil
		}
		return ix.splitLeaf(n)
	}
	child := ix.chooseSubtree(n, p)
	if split := ix.insertInto(child, pi); split != nil {
		n.children = append(n.children, split)
		if len(n.children) > n.capacity {
			return ix.splitDirectory(n)
		}
	}
	return nil
}

// chooseSubtree picks the child needing the least volume enlargement to
// absorb p, breaking ties by smaller volume (the classic R-tree rule).
func (ix *Index) chooseSubtree(n *node, p geom.Point) *node {
	target := newRect(p)
	var best *node
	bestEnl, bestVol := math.Inf(1), math.Inf(1)
	for _, c := range n.children {
		enl := c.mbr.enlargement(target)
		vol := c.mbr.volume()
		if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = c, enl, vol
		}
	}
	return best
}

// splitLeaf performs an R*-style topological split of an overfull leaf.
// Leaves always split (point sets cannot meaningfully "overlap"), so
// supernodes are a directory-level mechanism, as in the X-tree.
func (ix *Index) splitLeaf(n *node) *node {
	axis, splitAt := ix.chooseLeafSplit(n)
	sort.Slice(n.points, func(a, b int) bool {
		return ix.pts.At(int(n.points[a]))[axis] < ix.pts.At(int(n.points[b]))[axis]
	})
	right := &node{leaf: true, capacity: baseCapacity}
	right.points = append(right.points, n.points[splitAt:]...)
	n.points = n.points[:splitAt]
	ix.recomputeLeafMBR(n)
	ix.recomputeLeafMBR(right)
	return right
}

// chooseLeafSplit evaluates margin sums over split positions on every axis
// (the R* axis choice) and returns the best axis and split position.
func (ix *Index) chooseLeafSplit(n *node) (axis, splitAt int) {
	m := len(n.points)
	lower := int(math.Ceil(minFill * float64(m)))
	if lower < 1 {
		lower = 1
	}
	upper := m - lower
	if upper < lower {
		upper = lower
	}
	bestAxis, bestPos, bestScore := 0, m/2, math.Inf(1)
	order := make([]int32, m)
	dim := ix.pts.Dim()
	for a := 0; a < dim; a++ {
		copy(order, n.points)
		sort.Slice(order, func(x, y int) bool {
			return ix.pts.At(int(order[x]))[a] < ix.pts.At(int(order[y]))[a]
		})
		// Prefix/suffix MBRs for margin evaluation.
		prefix := make([]rect, m)
		suffix := make([]rect, m)
		prefix[0] = newRect(ix.pts.At(int(order[0])))
		for i := 1; i < m; i++ {
			prefix[i] = rect{lo: prefix[i-1].lo.Clone(), hi: prefix[i-1].hi.Clone()}
			prefix[i].extendPoint(ix.pts.At(int(order[i])))
		}
		suffix[m-1] = newRect(ix.pts.At(int(order[m-1])))
		for i := m - 2; i >= 0; i-- {
			suffix[i] = rect{lo: suffix[i+1].lo.Clone(), hi: suffix[i+1].hi.Clone()}
			suffix[i].extendPoint(ix.pts.At(int(order[i])))
		}
		for pos := lower; pos <= upper; pos++ {
			score := prefix[pos-1].margin() + suffix[pos].margin()
			if score < bestScore {
				bestAxis, bestPos, bestScore = a, pos, score
			}
		}
	}
	return bestAxis, bestPos
}

func (ix *Index) recomputeLeafMBR(n *node) {
	n.mbr = newRect(ix.pts.At(int(n.points[0])))
	for _, pi := range n.points[1:] {
		n.mbr.extendPoint(ix.pts.At(int(pi)))
	}
}

// splitDirectory attempts an R*-style split of an overfull directory node.
// If the best split's halves overlap too much — the X-tree's split-failure
// criterion — the node becomes a supernode with doubled capacity instead
// and nil is returned.
func (ix *Index) splitDirectory(n *node) *node {
	m := len(n.children)
	lower := int(math.Ceil(minFill * float64(m)))
	if lower < 1 {
		lower = 1
	}
	upper := m - lower
	if upper < lower {
		upper = lower
	}
	dim := ix.pts.Dim()
	bestAxis, bestPos, bestScore := -1, 0, math.Inf(1)
	var bestOverlap float64
	order := make([]*node, m)
	for a := 0; a < dim; a++ {
		copy(order, n.children)
		sort.Slice(order, func(x, y int) bool {
			if order[x].mbr.lo[a] != order[y].mbr.lo[a] {
				return order[x].mbr.lo[a] < order[y].mbr.lo[a]
			}
			return order[x].mbr.hi[a] < order[y].mbr.hi[a]
		})
		prefix := make([]rect, m)
		suffix := make([]rect, m)
		prefix[0] = rect{lo: order[0].mbr.lo.Clone(), hi: order[0].mbr.hi.Clone()}
		for i := 1; i < m; i++ {
			prefix[i] = rect{lo: prefix[i-1].lo.Clone(), hi: prefix[i-1].hi.Clone()}
			prefix[i].extendRect(order[i].mbr)
		}
		suffix[m-1] = rect{lo: order[m-1].mbr.lo.Clone(), hi: order[m-1].mbr.hi.Clone()}
		for i := m - 2; i >= 0; i-- {
			suffix[i] = rect{lo: suffix[i+1].lo.Clone(), hi: suffix[i+1].hi.Clone()}
			suffix[i].extendRect(order[i].mbr)
		}
		for pos := lower; pos <= upper; pos++ {
			left, right := prefix[pos-1], suffix[pos]
			score := left.overlap(right)
			if score < bestScore {
				bestAxis, bestPos, bestScore = a, pos, score
				bestOverlap = score
			}
		}
	}
	// X-tree decision: reject high-overlap splits.
	frac := 0.0
	if vol := n.mbr.volume(); vol > 0 && bestOverlap > 0 {
		frac = math.Pow(bestOverlap/vol, 1/float64(dim))
	}
	if frac > maxOverlapFraction {
		n.capacity *= 2
		ix.supernodes++
		return nil
	}
	sort.Slice(n.children, func(x, y int) bool {
		a := bestAxis
		if n.children[x].mbr.lo[a] != n.children[y].mbr.lo[a] {
			return n.children[x].mbr.lo[a] < n.children[y].mbr.lo[a]
		}
		return n.children[x].mbr.hi[a] < n.children[y].mbr.hi[a]
	})
	right := &node{leaf: false, capacity: baseCapacity}
	right.children = append(right.children, n.children[bestPos:]...)
	n.children = n.children[:bestPos]
	ix.recomputeDirMBR(n)
	ix.recomputeDirMBR(right)
	return right
}

func (ix *Index) recomputeDirMBR(n *node) {
	n.mbr = rect{lo: n.children[0].mbr.lo.Clone(), hi: n.children[0].mbr.hi.Clone()}
	for _, c := range n.children[1:] {
		n.mbr.extendRect(c.mbr)
	}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.pts.Len() }

// Metric returns the index's metric.
func (ix *Index) Metric() geom.Metric { return ix.metric }

// pqItem is a best-first search frontier entry.
type pqItem struct {
	n    *node
	dist float64
}

// frontier is a hand-rolled min-heap of pqItems ordered by dist. Unlike
// container/heap it takes items by value, so pushes do not box the item
// into an interface — the backing array is cursor-owned scratch reused
// across queries.
type frontier []pqItem

func (f *frontier) push(it pqItem) {
	*f = append(*f, it)
	q := *f
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].dist <= q[i].dist {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (f *frontier) pop() pqItem {
	q := *f
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*f = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(q) && q[l].dist < q[least].dist {
			least = l
		}
		if r < len(q) && q[r].dist < q[least].dist {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}

// Cursor is a reusable query object over the tree: it owns the candidate
// heap, the best-first frontier, the range accumulation buffer, the result
// sorter and the resolved distance kernel, so repeated queries allocate
// nothing and leaf scans pay no per-candidate metric dispatch.
type Cursor struct {
	ix       *Index
	h        *index.Heap
	sorter   index.Sorter
	frontier frontier
	kern     geom.Kernel
	// out stages the in-flight RangeInto destination so the recursion can
	// append without forcing the slice to escape through a pointer.
	out []index.Neighbor
}

// NewCursor returns a fresh cursor over the index.
func (ix *Index) NewCursor() index.Cursor {
	return &Cursor{ix: ix, h: index.NewHeap(0), kern: geom.NewKernel(ix.pts, ix.metric)}
}

// Index returns the cursor's index.
func (c *Cursor) Index() index.Index { return c.ix }

// KNNInto appends the k nearest neighbors of q to dst using best-first MBR
// search.
func (c *Cursor) KNNInto(dst []index.Neighbor, qp geom.Point, k int, exclude int) []index.Neighbor {
	ix := c.ix
	if k <= 0 || ix.root == nil {
		return dst
	}
	c.h.Reset(k)
	c.frontier = c.frontier[:0]
	c.frontier.push(pqItem{n: ix.root, dist: geom.MinDistToRect(ix.metric, qp, ix.root.mbr.lo, ix.root.mbr.hi)})
	for len(c.frontier) > 0 {
		it := c.frontier.pop()
		if w, full := c.h.Worst(); full && it.dist > w {
			break
		}
		if it.n.leaf {
			for _, pi := range it.n.points {
				if int(pi) == exclude {
					continue
				}
				c.h.Push(index.Neighbor{Index: int(pi), Dist: c.kern.Dist(int(pi), qp)})
			}
			continue
		}
		for _, ch := range it.n.children {
			d := geom.MinDistToRect(ix.metric, qp, ch.mbr.lo, ch.mbr.hi)
			if w, full := c.h.Worst(); full && d > w {
				continue
			}
			c.frontier.push(pqItem{n: ch, dist: d})
		}
	}
	return c.h.AppendSorted(dst)
}

// RangeInto appends all points within distance r of q to dst.
func (c *Cursor) RangeInto(dst []index.Neighbor, qp geom.Point, r float64, exclude int) []index.Neighbor {
	if r < 0 || c.ix.root == nil {
		return dst
	}
	start := len(dst)
	c.out = dst
	c.rangeQuery(c.ix.root, qp, r, exclude)
	dst = c.out
	c.out = nil
	c.sorter.Sort(dst[start:])
	return dst
}

func (c *Cursor) rangeQuery(n *node, qp geom.Point, r float64, exclude int) {
	ix := c.ix
	if geom.MinDistToRect(ix.metric, qp, n.mbr.lo, n.mbr.hi) > r {
		return
	}
	if n.leaf {
		for _, pi := range n.points {
			if int(pi) == exclude {
				continue
			}
			if d := c.kern.Dist(int(pi), qp); d <= r {
				c.out = append(c.out, index.Neighbor{Index: int(pi), Dist: d})
			}
		}
		return
	}
	for _, ch := range n.children {
		c.rangeQuery(ch, qp, r, exclude)
	}
}
