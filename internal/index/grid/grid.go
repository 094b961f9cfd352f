// Package grid implements the uniform-grid k-NN index the paper prescribes
// for low-dimensional data ("a grid based approach which can answer k-nn
// queries in constant time"). Points are bucketed into a fixed lattice of
// axis-aligned cells; queries scan cells in expanding Chebyshev rings
// around the query cell until no unvisited cell can beat the current k-th
// candidate.
package grid

import (
	"math"

	"lof/internal/geom"
	"lof/internal/index"
)

// targetPerCell is the average number of points per occupied cell the
// resolution heuristic aims for.
const targetPerCell = 4

// maxTotalCells caps memory: the per-dimension resolution is reduced until
// the full lattice fits.
const maxTotalCells = 1 << 21

// Index is a uniform grid over a point set.
type Index struct {
	pts    *geom.Points
	metric geom.Metric
	lo, hi geom.Point
	res    []int     // cells per dimension
	width  []float64 // cell width per dimension
	stride []int     // linear index strides
	cells  [][]int32 // point ids per cell, dense
	wmin   float64   // smallest cell width across dimensions
	// eps is the per-dimension outward slack added to cell box faces, and
	// tol its metric-space counterpart subtracted from ring lower bounds.
	// Bucketing computes floor((p-lo)/width) in floating point, so a point
	// can land in a cell whose nominal box excludes it by a few ulps — most
	// visibly the data maximum, which clamps into the last cell while
	// lo+res·width often rounds below it. Pruning against unwidened boxes
	// would then drop exact-distance matches (a Range(p, 0) that cannot
	// find p's own duplicates), so boxes are widened until they provably
	// contain every point bucketed into them.
	eps []float64
	tol float64
}

// New builds a grid index over pts with the given metric (Euclidean when
// nil). The grid resolution is chosen from the dataset size and bounds.
func New(pts *geom.Points, m geom.Metric) *Index {
	if pts == nil {
		panic("grid: nil points")
	}
	if m == nil {
		m = geom.Euclidean{}
	}
	ix := &Index{pts: pts, metric: m}
	n := pts.Len()
	if n == 0 {
		return ix
	}
	dim := pts.Dim()
	ix.lo, ix.hi = pts.Bounds()

	// Aim for targetPerCell points per cell if points were uniform:
	// res^dim ≈ n/targetPerCell.
	perDim := int(math.Ceil(math.Pow(float64(n)/targetPerCell, 1/float64(dim))))
	if perDim < 1 {
		perDim = 1
	}
	for {
		total := 1
		overflow := false
		for d := 0; d < dim; d++ {
			total *= perDim
			if total > maxTotalCells {
				overflow = true
				break
			}
		}
		if !overflow {
			break
		}
		perDim /= 2
		if perDim < 1 {
			perDim = 1
			break
		}
	}

	ix.res = make([]int, dim)
	ix.width = make([]float64, dim)
	ix.stride = make([]int, dim)
	ix.eps = make([]float64, dim)
	ix.wmin = math.Inf(1)
	total := 1
	for d := 0; d < dim; d++ {
		span := ix.hi[d] - ix.lo[d]
		if span <= 0 {
			// Degenerate dimension: one cell wide.
			ix.res[d] = 1
			ix.width[d] = 1
		} else {
			ix.res[d] = perDim
			ix.width[d] = span / float64(perDim)
		}
		// Bucketing incurs a handful of rounding errors, each relatively
		// tiny; 2⁻⁵⁰ of the coordinate magnitude (8 ulps) dominates their
		// sum, so boxes widened by eps contain every point of their cell.
		ix.eps[d] = (math.Abs(ix.lo[d]) + math.Abs(ix.hi[d]) + span) * 0x1p-50
		// The ring stopping rule needs the smallest metric distance a
		// one-cell coordinate gap can represent on any axis, and the
		// largest metric distance the bucketing slack can hide.
		if mw := geom.AxisGapLowerBound(m, d, ix.width[d]); mw < ix.wmin {
			ix.wmin = mw
		}
		if mt := 2 * geom.AxisGapLowerBound(m, d, ix.eps[d]); mt > ix.tol {
			ix.tol = mt
		}
		ix.stride[d] = total
		total *= ix.res[d]
	}
	ix.cells = make([][]int32, total)
	c := make([]int, dim)
	for i := 0; i < n; i++ {
		ix.cellOfInto(c, pts.At(i))
		ix.cells[ix.linear(c)] = append(ix.cells[ix.linear(c)], int32(i))
	}
	return ix
}

// cellOfInto writes the clamped integer cell coordinates of p into c.
func (ix *Index) cellOfInto(c []int, p geom.Point) {
	for d := range p {
		v := int(math.Floor((p[d] - ix.lo[d]) / ix.width[d]))
		if v < 0 {
			v = 0
		}
		if v >= ix.res[d] {
			v = ix.res[d] - 1
		}
		c[d] = v
	}
}

func (ix *Index) linear(c []int) int {
	li := 0
	for d, v := range c {
		li += v * ix.stride[d]
	}
	return li
}

// cellBoxLinear writes the axis-aligned box of the cell with linear index
// li into lo, hi, decoding the multi-coordinates from the strides. The box
// is conservative: faces are pushed outward by the bucketing slack, and the
// outermost cells extend to the data bounds so the clamped extremes (whose
// nominal box can round short of them) stay inside. Distance lower bounds
// against these boxes therefore never exceed the distance to any point the
// cell actually holds.
func (ix *Index) cellBoxLinear(li int, lo, hi geom.Point) {
	for d := len(ix.stride) - 1; d >= 0; d-- {
		v := li / ix.stride[d]
		li -= v * ix.stride[d]
		l := ix.lo[d] + float64(v)*ix.width[d]
		h := l + ix.width[d]
		if v == ix.res[d]-1 && h < ix.hi[d] {
			h = ix.hi[d]
		}
		lo[d] = l - ix.eps[d]
		hi[d] = h + ix.eps[d]
	}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.pts.Len() }

// Metric returns the index's metric.
func (ix *Index) Metric() geom.Metric { return ix.metric }

// appendRing appends the linear indices of every in-grid cell whose
// Chebyshev cell distance from center is exactly ring to dst, using c as
// the coordinate scratch. The enumeration recursion lives in ringRec — a
// method, not a closure, so ring walks allocate nothing beyond dst growth.
func (ix *Index) appendRing(dst []int32, center, c []int, ring int) []int32 {
	if ring == 0 {
		// The center cell comes from cellOfInto, which clamps into the grid.
		return append(dst, int32(ix.linear(center)))
	}
	return ix.ringRec(dst, center, c, ring, 0, false)
}

func (ix *Index) ringRec(dst []int32, center, c []int, ring, d int, onShell bool) []int32 {
	if d == len(center) {
		if onShell {
			dst = append(dst, int32(ix.linear(c)))
		}
		return dst
	}
	lo := center[d] - ring
	hi := center[d] + ring
	for v := lo; v <= hi; v++ {
		if v < 0 || v >= ix.res[d] {
			continue
		}
		c[d] = v
		delta := v - center[d]
		if delta < 0 {
			delta = -delta
		}
		dst = ix.ringRec(dst, center, c, ring, d+1, onShell || delta == ring)
	}
	return dst
}

// maxRing is the largest possible Chebyshev ring in the grid.
func (ix *Index) maxRing() int {
	m := 0
	for _, r := range ix.res {
		if r-1 > m {
			m = r - 1
		}
	}
	return m
}

// Cursor is a reusable query object over the grid: it owns the candidate
// heap, the cell lists of the expanding-ring walk and the cell-box scratch,
// so repeated queries allocate nothing.
type Cursor struct {
	ix           *Index
	h            *index.Heap
	sorter       index.Sorter
	center       []int
	coord        []int // ring recursion scratch
	ring         []int32
	boxLo, boxHi geom.Point
	kern         geom.Kernel
}

// NewCursor returns a fresh cursor over the index.
func (ix *Index) NewCursor() index.Cursor {
	return &Cursor{ix: ix, h: index.NewHeap(0), kern: geom.NewKernel(ix.pts, ix.metric)}
}

// Index returns the cursor's index.
func (c *Cursor) Index() index.Index { return c.ix }

// prepare sizes the coordinate scratch for a query of dimensionality dim.
func (c *Cursor) prepare(dim int) {
	if cap(c.center) < dim {
		c.center = make([]int, dim)
		c.coord = make([]int, dim)
		c.boxLo = make(geom.Point, dim)
		c.boxHi = make(geom.Point, dim)
	}
	c.center = c.center[:dim]
	c.coord = c.coord[:dim]
	c.boxLo = c.boxLo[:dim]
	c.boxHi = c.boxHi[:dim]
}

// KNNInto appends the k nearest neighbors of q to dst by expanding-ring
// search.
func (c *Cursor) KNNInto(dst []index.Neighbor, q geom.Point, k int, exclude int) []index.Neighbor {
	ix := c.ix
	if k <= 0 || ix.pts.Len() == 0 {
		return dst
	}
	c.prepare(len(q))
	c.h.Reset(k)
	ix.cellOfInto(c.center, q)
	for ring := 0; ring <= ix.maxRing(); ring++ {
		// Once k candidates are held, no cell at this ring or beyond can
		// contain anything closer if even the nearest face of the ring is
		// too far away; tol keeps the bound valid for points the bucketing
		// slack pushed just outside their nominal cell.
		if w, full := c.h.Worst(); full && float64(ring-1)*ix.wmin > w+ix.tol {
			break
		}
		c.ring = ix.appendRing(c.ring[:0], c.center, c.coord, ring)
		for _, li := range c.ring {
			ix.cellBoxLinear(int(li), c.boxLo, c.boxHi)
			if w, full := c.h.Worst(); full && geom.MinDistToRect(ix.metric, q, c.boxLo, c.boxHi) > w {
				continue
			}
			for _, pi := range ix.cells[li] {
				if int(pi) == exclude {
					continue
				}
				c.h.Push(index.Neighbor{Index: int(pi), Dist: c.kern.Dist(int(pi), q)})
			}
		}
	}
	return c.h.AppendSorted(dst)
}

// RangeInto appends all points within distance r of q to dst.
func (c *Cursor) RangeInto(dst []index.Neighbor, q geom.Point, r float64, exclude int) []index.Neighbor {
	ix := c.ix
	if r < 0 || ix.pts.Len() == 0 {
		return dst
	}
	c.prepare(len(q))
	start := len(dst)
	ix.cellOfInto(c.center, q)
	for ring := 0; ring <= ix.maxRing(); ring++ {
		if float64(ring-1)*ix.wmin > r+ix.tol {
			break
		}
		c.ring = ix.appendRing(c.ring[:0], c.center, c.coord, ring)
		for _, li := range c.ring {
			ix.cellBoxLinear(int(li), c.boxLo, c.boxHi)
			if geom.MinDistToRect(ix.metric, q, c.boxLo, c.boxHi) > r {
				continue
			}
			for _, pi := range ix.cells[li] {
				if int(pi) == exclude {
					continue
				}
				if d := c.kern.Dist(int(pi), q); d <= r {
					dst = append(dst, index.Neighbor{Index: int(pi), Dist: d})
				}
			}
		}
	}
	c.sorter.Sort(dst[start:])
	return dst
}
