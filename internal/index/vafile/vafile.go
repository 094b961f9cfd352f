// Package vafile implements the vector-approximation file of Weber et al.
// ([21] in the paper), the structure the paper recommends for extremely
// high-dimensional data. Every point is quantized to a few bits per
// dimension; a kNN query first scans the compact approximations, computing
// per-point lower and upper distance bounds, and only fetches the exact
// vectors of points whose lower bound can still beat the running k-th
// smallest upper bound. Results are exact.
//
// The VA-file needs both lower and upper distance bounds to a quantization
// cell, which geom provides for the Euclidean, Manhattan and Chebyshev
// metrics; New rejects other metrics.
package vafile

import (
	"fmt"
	"math"
	"sort"

	"lof/internal/geom"
	"lof/internal/index"
)

// DefaultBits is the per-dimension quantization used when 0 is passed to New.
const DefaultBits = 5

// Index is an immutable VA-file over a point set.
type Index struct {
	pts    *geom.Points
	metric geom.Metric
	bits   int
	levels int       // 1<<bits
	bounds []float64 // per dim: levels+1 boundary values, row-major
	approx []uint16  // per point per dim: cell id
}

// New builds a VA-file with the given bits per dimension (DefaultBits when
// bits is 0). Cell boundaries are equi-depth (quantiles), which keeps cells
// informative for clustered data.
func New(pts *geom.Points, m geom.Metric, bits int) (*Index, error) {
	if pts == nil {
		return nil, fmt.Errorf("vafile: nil points")
	}
	if m == nil {
		m = geom.Euclidean{}
	}
	switch m.(type) {
	case geom.Euclidean, geom.Manhattan, geom.Chebyshev, *geom.WeightedEuclidean:
	default:
		return nil, fmt.Errorf("vafile: metric %s not supported (no rectangle upper bound)", m.Name())
	}
	if bits == 0 {
		bits = DefaultBits
	}
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("vafile: bits per dimension must be in [1,16], got %d", bits)
	}
	ix := &Index{pts: pts, metric: m, bits: bits, levels: 1 << bits}
	n, dim := pts.Len(), pts.Dim()
	if n == 0 {
		return ix, nil
	}

	// Equi-depth boundaries per dimension.
	ix.bounds = make([]float64, dim*(ix.levels+1))
	col := make([]float64, n)
	for d := 0; d < dim; d++ {
		for i := 0; i < n; i++ {
			col[i] = pts.At(i)[d]
		}
		sort.Float64s(col)
		b := ix.bounds[d*(ix.levels+1) : (d+1)*(ix.levels+1)]
		for l := 0; l <= ix.levels; l++ {
			pos := float64(l) / float64(ix.levels) * float64(n-1)
			b[l] = col[int(pos)]
		}
		// Widen the outermost boundaries marginally so every point falls
		// strictly inside some cell interval.
		b[0] = math.Nextafter(b[0], math.Inf(-1))
		b[ix.levels] = math.Nextafter(b[ix.levels], math.Inf(1))
	}

	// Quantize all points.
	ix.approx = make([]uint16, n*dim)
	for i := 0; i < n; i++ {
		p := pts.At(i)
		for d := 0; d < dim; d++ {
			ix.approx[i*dim+d] = ix.cellFor(d, p[d])
		}
	}
	return ix, nil
}

// cellFor locates the quantization cell of value v in dimension d by
// binary search over the boundary array.
func (ix *Index) cellFor(d int, v float64) uint16 {
	b := ix.bounds[d*(ix.levels+1) : (d+1)*(ix.levels+1)]
	// Find the first boundary > v; the cell is the preceding interval.
	c := sort.SearchFloat64s(b, v)
	// SearchFloat64s returns the first i with b[i] >= v; cell spans
	// [b[c-1], b[c]).
	if c == 0 {
		return 0
	}
	if c > ix.levels {
		c = ix.levels
	}
	return uint16(c - 1)
}

// cellRect writes the quantization rectangle of point i into lo, hi.
func (ix *Index) cellRect(i int, lo, hi geom.Point) {
	dim := ix.pts.Dim()
	for d := 0; d < dim; d++ {
		c := int(ix.approx[i*dim+d])
		b := ix.bounds[d*(ix.levels+1) : (d+1)*(ix.levels+1)]
		lo[d], hi[d] = b[c], b[c+1]
	}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.pts.Len() }

// Metric returns the index's metric.
func (ix *Index) Metric() geom.Metric { return ix.metric }

// Bits returns the quantization width per dimension.
func (ix *Index) Bits() int { return ix.bits }

// cand is a phase-1 candidate: a point whose approximation lower bound may
// still beat the running k-th upper bound.
type cand struct {
	idx   int
	lower float64
}

// candSorter sorts a cand slice by (lower bound, index). It is held by
// pointer inside the cursor so sorting does not allocate: the interface
// conversion of a *candSorter is allocation-free, and the slice lives in a
// struct field rather than a boxed value.
type candSorter struct {
	cs []cand
}

func (s *candSorter) Len() int      { return len(s.cs) }
func (s *candSorter) Swap(i, j int) { s.cs[i], s.cs[j] = s.cs[j], s.cs[i] }
func (s *candSorter) Less(i, j int) bool {
	if s.cs[i].lower != s.cs[j].lower {
		return s.cs[i].lower < s.cs[j].lower
	}
	return s.cs[i].idx < s.cs[j].idx
}

// sort sorts cs by (lower, idx) using the sorter's field as scratch.
func (s *candSorter) sort(cs []cand) {
	s.cs = cs
	sort.Sort(s)
	s.cs = nil
}

// Cursor is a reusable query object over the VA-file: it owns the cell
// rectangle scratch, the candidate set of the filter phase, both bound
// heaps, the sorters and the resolved distance kernel, so repeated queries
// allocate nothing and the refinement phase pays no per-candidate metric
// dispatch.
type Cursor struct {
	ix         *Index
	h          *index.Heap // exact result heap
	ubHeap     *index.Heap // k smallest upper bounds (filter phase)
	sorter     index.Sorter
	candSorter candSorter
	cands      []cand
	lo, hi     geom.Point
	kern       geom.Kernel
}

// NewCursor returns a fresh cursor over the index.
func (ix *Index) NewCursor() index.Cursor {
	return &Cursor{ix: ix, h: index.NewHeap(0), ubHeap: index.NewHeap(0), kern: geom.NewKernel(ix.pts, ix.metric)}
}

// Index returns the cursor's index.
func (c *Cursor) Index() index.Index { return c.ix }

// prepare sizes the rectangle scratch for a query of dimensionality dim.
func (c *Cursor) prepare(dim int) {
	if cap(c.lo) < dim {
		c.lo = make(geom.Point, dim)
		c.hi = make(geom.Point, dim)
	}
	c.lo = c.lo[:dim]
	c.hi = c.hi[:dim]
}

// KNNInto appends the exact k nearest neighbors of q to dst via the
// two-phase VA-file scan.
func (c *Cursor) KNNInto(dst []index.Neighbor, q geom.Point, k int, exclude int) []index.Neighbor {
	ix := c.ix
	if k <= 0 || ix.pts.Len() == 0 {
		return dst
	}
	n := ix.pts.Len()
	c.prepare(ix.pts.Dim())

	// Phase 1: bound every point from its approximation; keep the k
	// smallest upper bounds to prune candidates.
	c.ubHeap.Reset(k)
	cands := c.cands[:0]
	for i := 0; i < n; i++ {
		if i == exclude {
			continue
		}
		ix.cellRect(i, c.lo, c.hi)
		lb := geom.MinDistToRect(ix.metric, q, c.lo, c.hi)
		if w, full := c.ubHeap.Worst(); full && lb > w {
			continue
		}
		ub := geom.MaxDistToRect(ix.metric, q, c.lo, c.hi)
		c.ubHeap.Push(index.Neighbor{Index: i, Dist: ub})
		cands = append(cands, cand{idx: i, lower: lb})
	}
	c.cands = cands
	kthUpper := math.Inf(1)
	if w, full := c.ubHeap.Worst(); full {
		kthUpper = w
	}

	// Phase 2: exact distances for surviving candidates, cheapest lower
	// bound first so the result heap tightens quickly.
	c.candSorter.sort(cands)
	c.h.Reset(k)
	for _, cd := range cands {
		if cd.lower > kthUpper {
			break
		}
		if w, full := c.h.Worst(); full && cd.lower > w {
			break
		}
		c.h.Push(index.Neighbor{Index: cd.idx, Dist: c.kern.Dist(cd.idx, q)})
	}
	return c.h.AppendSorted(dst)
}

// RangeInto appends all points within distance r of q to dst, using
// approximation lower bounds to skip exact computations.
func (c *Cursor) RangeInto(dst []index.Neighbor, q geom.Point, r float64, exclude int) []index.Neighbor {
	ix := c.ix
	if r < 0 || ix.pts.Len() == 0 {
		return dst
	}
	n := ix.pts.Len()
	c.prepare(ix.pts.Dim())
	start := len(dst)
	for i := 0; i < n; i++ {
		if i == exclude {
			continue
		}
		ix.cellRect(i, c.lo, c.hi)
		if geom.MinDistToRect(ix.metric, q, c.lo, c.hi) > r {
			continue
		}
		if d := c.kern.Dist(i, q); d <= r {
			dst = append(dst, index.Neighbor{Index: i, Dist: d})
		}
	}
	c.sorter.Sort(dst[start:])
	return dst
}
