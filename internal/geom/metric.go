package geom

import (
	"fmt"
	"math"
)

// Metric computes the distance between two points of equal dimensionality.
// Implementations must satisfy the metric axioms (non-negativity, identity,
// symmetry, triangle inequality) for the exactness guarantees of the index
// structures to hold.
type Metric interface {
	// Distance returns the distance between p and q.
	Distance(p, q Point) float64
	// Name returns a short identifier such as "euclidean".
	Name() string
}

// Euclidean is the L2 metric used throughout the paper.
type Euclidean struct{}

// Distance returns the L2 distance between p and q.
func (Euclidean) Distance(p, q Point) float64 {
	return math.Sqrt(SqDist(p, q))
}

// Name returns "euclidean".
func (Euclidean) Name() string { return "euclidean" }

// Manhattan is the L1 metric.
type Manhattan struct{}

// Distance returns the L1 distance between p and q.
func (Manhattan) Distance(p, q Point) float64 {
	var s float64
	_ = q[len(p)-1]
	for i, v := range p {
		s += math.Abs(v - q[i])
	}
	return s
}

// Name returns "manhattan".
func (Manhattan) Name() string { return "manhattan" }

// Chebyshev is the L∞ metric.
type Chebyshev struct{}

// Distance returns the L∞ distance between p and q.
func (Chebyshev) Distance(p, q Point) float64 {
	var m float64
	_ = q[len(p)-1]
	for i, v := range p {
		d := math.Abs(v - q[i])
		if d > m {
			m = d
		}
	}
	return m
}

// Name returns "chebyshev".
func (Chebyshev) Name() string { return "chebyshev" }

// Minkowski is the Lp metric for a configurable order p ≥ 1.
type Minkowski struct {
	// P is the order of the metric; values below 1 violate the triangle
	// inequality and are rejected by NewMinkowski.
	P float64
}

// NewMinkowski returns an Lp metric. It returns an error if p < 1, because
// such "metrics" break the triangle inequality the indexes rely on.
func NewMinkowski(p float64) (Minkowski, error) {
	if p < 1 || math.IsNaN(p) || math.IsInf(p, 0) {
		return Minkowski{}, fmt.Errorf("geom: Minkowski order must be a finite value >= 1, got %v", p)
	}
	return Minkowski{P: p}, nil
}

// Distance returns the Lp distance between p and q.
func (m Minkowski) Distance(a, b Point) float64 {
	var s float64
	_ = b[len(a)-1]
	for i, v := range a {
		s += math.Pow(math.Abs(v-b[i]), m.P)
	}
	return math.Pow(s, 1/m.P)
}

// Name returns an identifier of the form "minkowski(p)".
func (m Minkowski) Name() string { return fmt.Sprintf("minkowski(%g)", m.P) }

// WeightedEuclidean is an L2 metric with per-dimension weights — the
// library-level answer to incommensurate feature scales (an alternative to
// rescaling the data itself). A weight of 0 ignores a dimension entirely.
type WeightedEuclidean struct {
	weights []float64
}

// NewWeightedEuclidean validates the weights (finite, non-negative, at
// least one positive) and returns the metric. The weight slice is copied.
func NewWeightedEuclidean(weights []float64) (*WeightedEuclidean, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("geom: weighted metric needs at least one weight")
	}
	anyPositive := false
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("geom: weight %d is %v; weights must be finite and non-negative", i, w)
		}
		if w > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		return nil, fmt.Errorf("geom: all weights are zero")
	}
	cp := make([]float64, len(weights))
	copy(cp, weights)
	return &WeightedEuclidean{weights: cp}, nil
}

// Distance returns sqrt(Σ w_i (p_i − q_i)²). The points' dimensionality
// must equal the weight count.
func (m *WeightedEuclidean) Distance(p, q Point) float64 {
	var s float64
	_ = q[len(p)-1]
	_ = m.weights[len(p)-1]
	for i, v := range p {
		d := v - q[i]
		s += m.weights[i] * d * d
	}
	return math.Sqrt(s)
}

// Name returns "weighted-euclidean".
func (m *WeightedEuclidean) Name() string { return "weighted-euclidean" }

// minDistToRect is the exact weighted lower bound used by tree pruning.
func (m *WeightedEuclidean) minDistToRect(p, lo, hi Point) float64 {
	var s float64
	for i, v := range p {
		var d float64
		if v < lo[i] {
			d = lo[i] - v
		} else if v > hi[i] {
			d = v - hi[i]
		}
		s += m.weights[i] * d * d
	}
	return math.Sqrt(s)
}

// maxDistToRect is the exact weighted upper bound used by the VA-file.
func (m *WeightedEuclidean) maxDistToRect(p, lo, hi Point) float64 {
	var s float64
	for i, v := range p {
		a, b := math.Abs(v-lo[i]), math.Abs(v-hi[i])
		if b > a {
			a = b
		}
		s += m.weights[i] * a * a
	}
	return math.Sqrt(s)
}

// AxisGapLowerBound returns a lower bound on the distance (under m)
// between two points whose coordinates differ by at least gap on the given
// axis. The grid index is its last caller: it sizes the grid's ring
// stopping rule and that rule's rounding slack (the k-d tree prunes by the
// box bound of Kernel.ReducedGaps instead). For the Lp family the
// coordinate gap itself is a valid bound; for weighted Euclidean it scales
// by √w; for unknown metrics the bound degrades to 0 (no pruning, still
// correct).
func AxisGapLowerBound(m Metric, axis int, gap float64) float64 {
	if gap < 0 {
		gap = -gap
	}
	switch mm := m.(type) {
	case Euclidean, Manhattan, Chebyshev, Minkowski:
		return gap
	case *WeightedEuclidean:
		return math.Sqrt(mm.weights[axis]) * gap
	default:
		return 0
	}
}

// MetricByName returns the named metric: "euclidean", "manhattan" (or "l1"),
// "chebyshev" (or "linf"). Unknown names yield an error.
func MetricByName(name string) (Metric, error) {
	switch name {
	case "euclidean", "l2", "":
		return Euclidean{}, nil
	case "manhattan", "l1":
		return Manhattan{}, nil
	case "chebyshev", "linf":
		return Chebyshev{}, nil
	default:
		return nil, fmt.Errorf("geom: unknown metric %q", name)
	}
}

// MaxDistToRect returns the maximum distance (under metric m) from point p
// to any point of the axis-aligned rectangle [lo, hi]. It supports the
// Euclidean, Manhattan and Chebyshev metrics, which is what the VA-file
// needs for its upper bounds; other metrics cause a panic.
func MaxDistToRect(m Metric, p, lo, hi Point) float64 {
	perDim := func(i int) float64 {
		a, b := math.Abs(p[i]-lo[i]), math.Abs(p[i]-hi[i])
		if a > b {
			return a
		}
		return b
	}
	if wm, ok := m.(*WeightedEuclidean); ok {
		return wm.maxDistToRect(p, lo, hi)
	}
	switch m.(type) {
	case Euclidean:
		var s float64
		for i := range p {
			d := perDim(i)
			s += d * d
		}
		return math.Sqrt(s)
	case Manhattan:
		var s float64
		for i := range p {
			s += perDim(i)
		}
		return s
	case Chebyshev:
		var mx float64
		for i := range p {
			if d := perDim(i); d > mx {
				mx = d
			}
		}
		return mx
	default:
		panic(fmt.Sprintf("geom: MaxDistToRect unsupported for metric %s", m.Name()))
	}
}

// MinDistToRect returns the minimum distance (under metric m) from point p
// to the axis-aligned rectangle [lo, hi]. It is exact for Euclidean,
// Manhattan and Chebyshev metrics and is used by the tree indexes for
// branch-and-bound pruning.
func MinDistToRect(m Metric, p, lo, hi Point) float64 {
	if wm, ok := m.(*WeightedEuclidean); ok {
		return wm.minDistToRect(p, lo, hi)
	}
	switch m.(type) {
	case Euclidean:
		var s float64
		for i, v := range p {
			var d float64
			if v < lo[i] {
				d = lo[i] - v
			} else if v > hi[i] {
				d = v - hi[i]
			}
			s += d * d
		}
		return math.Sqrt(s)
	case Manhattan:
		var s float64
		for i, v := range p {
			if v < lo[i] {
				s += lo[i] - v
			} else if v > hi[i] {
				s += v - hi[i]
			}
		}
		return s
	case Chebyshev:
		var mx float64
		for i, v := range p {
			var d float64
			if v < lo[i] {
				d = lo[i] - v
			} else if v > hi[i] {
				d = v - hi[i]
			}
			if d > mx {
				mx = d
			}
		}
		return mx
	default:
		// Generic lower bound: distance from p to its clamp onto the
		// rectangle. Valid for every true metric because the clamped point
		// is inside the rectangle.
		cl := make(Point, len(p))
		for i, v := range p {
			switch {
			case v < lo[i]:
				cl[i] = lo[i]
			case v > hi[i]:
				cl[i] = hi[i]
			default:
				cl[i] = v
			}
		}
		return m.Distance(p, cl)
	}
}
