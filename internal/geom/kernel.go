package geom

import "math"

// kernelKind discriminates the metric fast paths a Kernel dispatches over.
// Resolving the metric's dynamic type once per kernel — instead of once per
// candidate inside an index scan — is the point of this type: the scan loop
// pays one integer switch per distance instead of an interface call, and the
// row is addressed by raw offset into the store's contiguous block instead
// of through a freshly built slice header.
type kernelKind uint8

const (
	kernGeneric kernelKind = iota
	kernEuclidean
	kernManhattan
	kernChebyshev
	kernMinkowski
	kernWeighted
)

// Kernel is a resolved distance function over a store: metric dispatch
// hoisted out of the scan loop, rows addressed by (index × stride) offsets.
// The kernel reads the store through its pointer on every call, so it stays
// valid across appends that re-back the coordinate block (the dynamic index
// grows its store between queries).
//
// Every fast path computes, term for term in ascending dimension order, the
// exact arithmetic of the corresponding Metric.Distance — the refactor from
// per-row slices to strided offsets is proven bit-identical by the oracle
// tests — and the generic path falls back to the Metric interface. All
// metrics in this package are symmetric (the metric axioms require it), so
// the kernel fixes one canonical argument order.
//
// A distance is computed in two steps, Dist = Finish(Reduced): the reduced
// distance is the metric's sum or maximum before its final map (Σd² for the
// Euclidean kinds, whose Finish is the square root; the distance itself
// for the others). Threshold and ReducedGaps let the k-d tree and the
// dynamic index reject a candidate or a cell in reduced space, without the
// root, whenever the distance it stands for must exceed a bound.
type Kernel struct {
	s    *Store
	m    Metric
	kind kernelKind
	root bool      // Finish takes the square root (the Euclidean kinds)
	w    []float64 // weighted Euclidean weights
	p    float64   // Minkowski order
}

// NewKernel resolves m over s. A nil metric resolves to Euclidean.
func NewKernel(s *Store, m Metric) Kernel {
	if m == nil {
		m = Euclidean{}
	}
	k := Kernel{s: s, m: m, kind: kernGeneric}
	switch mm := m.(type) {
	case Euclidean:
		k.kind = kernEuclidean
	case Manhattan:
		k.kind = kernManhattan
	case Chebyshev:
		k.kind = kernChebyshev
	case Minkowski:
		k.kind = kernMinkowski
		k.p = mm.P
	case *WeightedEuclidean:
		k.kind = kernWeighted
		k.w = mm.weights
	}
	k.root = k.kind == kernEuclidean || k.kind == kernWeighted
	return k
}

// Metric returns the metric the kernel resolves.
func (k *Kernel) Metric() Metric { return k.m }

// Dist returns the distance between row i of the kernel's store and q.
// It is the hot inner loop of every index structure.
func (k *Kernel) Dist(i int, q Point) float64 { return k.Finish(k.Reduced(i, q)) }

// Finish maps a reduced distance to the distance it stands for: the square
// root for the Euclidean kinds, the identity for the others.
func (k *Kernel) Finish(r float64) float64 {
	if k.root {
		return math.Sqrt(r)
	}
	return r
}

// Reduced returns the reduced distance between row i and q: Σd² in axis
// order for Euclidean, Σ w·d·d for weighted Euclidean, Σ|d| for Manhattan,
// max|d| for Chebyshev and the distance itself for Minkowski and unknown
// metrics. Finish(Reduced(i, q)) is Dist(i, q) bit for bit.
func (k *Kernel) Reduced(i int, q Point) float64 {
	s := k.s
	off := i * s.stride
	c := s.coords
	switch k.kind {
	case kernEuclidean:
		var sum float64
		_ = c[off+len(q)-1]
		for j, v := range q {
			d := v - c[off+j]
			sum += d * d
		}
		return sum
	case kernManhattan:
		var sum float64
		_ = c[off+len(q)-1]
		for j, v := range q {
			sum += math.Abs(v - c[off+j])
		}
		return sum
	case kernChebyshev:
		var mx float64
		_ = c[off+len(q)-1]
		for j, v := range q {
			if d := math.Abs(v - c[off+j]); d > mx {
				mx = d
			}
		}
		return mx
	case kernMinkowski:
		var sum float64
		_ = c[off+len(q)-1]
		for j, v := range q {
			sum += math.Pow(math.Abs(v-c[off+j]), k.p)
		}
		return math.Pow(sum, 1/k.p)
	case kernWeighted:
		var sum float64
		_ = c[off+len(q)-1]
		_ = k.w[len(q)-1]
		for j, v := range q {
			d := v - c[off+j]
			sum += k.w[j] * d * d
		}
		return sum
	default:
		return k.m.Distance(q, k.s.At(i))
	}
}

// Threshold returns the reduced threshold of a distance bound b:
// Reduced(i, q) > Threshold(b) implies Dist(i, q) > b. It is b itself
// where Finish is the identity, and fl(u·u) with u = nextUp(b) for the
// Euclidean kinds: a reduced distance above it exceeds u² exactly, so its
// correctly rounded root is at least u. Without the nextUp, one just above
// b² can round back to b under the root (DESIGN.md §13).
func (k *Kernel) Threshold(b float64) float64 {
	if !k.root {
		return b
	}
	u := math.Nextafter(b, math.Inf(1))
	return u * u
}

// ReducedGaps returns the reduced distance from a query to an axis-aligned
// cell, given the per-axis gaps between them (gaps[a] = |q_a − face_a| on
// the axes where the query lies outside the cell, 0 on the others). It is
// Reduced's sum or maximum, in the same axis order, over the gaps, so by
// monotone rounding it never exceeds the reduced distance of a point in
// the cell. Minkowski and unknown metrics return 0: math.Pow promises
// neither correct nor monotone rounding, and the Minkowski distance of a
// single-axis gap can fall an ulp below the gap.
func (k *Kernel) ReducedGaps(gaps []float64) float64 {
	switch k.kind {
	case kernEuclidean:
		var sum float64
		for _, g := range gaps {
			sum += g * g
		}
		return sum
	case kernManhattan:
		var sum float64
		for _, g := range gaps {
			sum += g
		}
		return sum
	case kernChebyshev:
		var mx float64
		for _, g := range gaps {
			if g > mx {
				mx = g
			}
		}
		return mx
	case kernWeighted:
		var sum float64
		_ = k.w[len(gaps)-1]
		for a, g := range gaps {
			sum += k.w[a] * g * g
		}
		return sum
	default:
		return 0
	}
}

// SqDist returns the squared L2 distance between two points. It remains the
// slice-to-slice entry point for callers that do not hold a Store; the
// strided equivalent is Kernel.Reduced of a Euclidean kernel.
func SqDist(p, q Point) float64 {
	var s float64
	_ = q[len(p)-1]
	for i, v := range p {
		d := v - q[i]
		s += d * d
	}
	return s
}
