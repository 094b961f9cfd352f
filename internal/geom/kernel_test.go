package geom

import (
	"math"
	"math/rand"
	"testing"
)

// opaqueMetric hides a metric behind a type the kernel does not know, so
// the kernel takes its generic path.
type opaqueMetric struct{ Metric }

// boundsMetric returns kernel kind kind%6 for dim-dimensional points:
// Euclidean, weighted Euclidean (zero, fractional and large weights),
// Manhattan, Chebyshev, Minkowski p=3 or an unknown metric.
func boundsMetric(rng *rand.Rand, kind, dim int) Metric {
	switch kind % 6 {
	case 0:
		return Euclidean{}
	case 1:
		ws := make([]float64, dim)
		for a := range ws {
			ws[a] = []float64{0, 0.25, 1, 3, rng.Float64() * 10}[rng.Intn(5)]
		}
		ws[rng.Intn(dim)] = 0.5 + rng.Float64()
		wm, err := NewWeightedEuclidean(ws)
		if err != nil {
			panic(err)
		}
		return wm
	case 2:
		return Manhattan{}
	case 3:
		return Chebyshev{}
	case 4:
		return Minkowski{P: 3}
	default:
		return opaqueMetric{Chebyshev{}}
	}
}

// boundsScales are the coordinate magnitudes the bound checks draw from:
// plain, small, squares that underflow, squares near the top of the range,
// squares that overflow to +Inf, and differences near the largest double.
var boundsScales = []float64{1, 1e-3, 1e-160, 1e150, 1e160, 1e300}

// checkKernelBounds draws a point set (random or lattice coordinates at
// the given scale, with duplicates), a query and an axis-aligned cell whose
// faces are coordinates of the points, so some points lie exactly on a
// face. For every point it checks the three properties the k-d tree and
// the dynamic index rely on to reject candidates and cells in reduced
// space without changing any result:
//
//   - Finish(Reduced) is Metric.Distance bit for bit, and so is Dist;
//   - the cell's reduced gap sum never exceeds the reduced distance of a
//     point in the cell;
//   - Reduced > Threshold(b) implies Dist > b, for b the point's distance,
//     its float neighbours, 0 and +Inf.
func checkKernelBounds(t *testing.T, seed int64, kind, dim int, scale float64, lattice bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := boundsMetric(rng, kind, dim)
	coord := func() float64 {
		if lattice {
			return float64(rng.Intn(9)-4) * scale
		}
		return rng.NormFloat64() * scale
	}
	const n = 24
	pts := NewPoints(dim, n)
	for i := 0; i < n; i++ {
		p := make(Point, dim)
		if i > 0 && rng.Intn(5) == 0 {
			copy(p, pts.At(rng.Intn(i)))
		} else {
			for a := range p {
				p[a] = coord()
			}
		}
		if err := pts.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	q := make(Point, dim)
	if rng.Intn(3) == 0 {
		copy(q, pts.At(rng.Intn(n)))
	} else {
		for a := range q {
			q[a] = coord()
		}
	}
	lo, hi := make(Point, dim), make(Point, dim)
	gaps := make([]float64, dim)
	for a := range gaps {
		x, y := pts.At(rng.Intn(n))[a], pts.At(rng.Intn(n))[a]
		lo[a], hi[a] = min(x, y), max(x, y)
		switch {
		case q[a] < lo[a]:
			gaps[a] = math.Abs(q[a] - lo[a])
		case q[a] > hi[a]:
			gaps[a] = math.Abs(q[a] - hi[a])
		}
	}

	k := NewKernel(pts, m)
	g := k.ReducedGaps(gaps)
	for i := 0; i < n; i++ {
		c := pts.At(i)
		r, d := k.Reduced(i, q), k.Dist(i, q)
		want := m.Distance(q, c)
		if math.Float64bits(k.Finish(r)) != math.Float64bits(want) || math.Float64bits(d) != math.Float64bits(want) {
			t.Fatalf("%s: Finish(Reduced)=%v Dist=%v, Metric.Distance=%v (q=%v c=%v)", m.Name(), k.Finish(r), d, want, q, c)
		}
		inCell := true
		for a, v := range c {
			inCell = inCell && lo[a] <= v && v <= hi[a]
		}
		if inCell && g > r {
			t.Fatalf("%s: cell gap sum %v exceeds reduced distance %v of a point in the cell (q=%v c=%v gaps=%v)", m.Name(), g, r, q, c, gaps)
		}
		for _, b := range []float64{d, math.Nextafter(d, math.Inf(-1)), math.Nextafter(d, math.Inf(1)), 0, math.Inf(1)} {
			if tb := k.Threshold(b); r > tb && !(d > b) {
				t.Fatalf("%s: reduced %v exceeds Threshold(%v)=%v, yet Dist %v is not above %v (q=%v c=%v)", m.Name(), r, b, tb, d, b, q, c)
			}
		}
	}
}

// TestKernelBounds runs the bound checks over every kernel kind, scale and
// coordinate style.
func TestKernelBounds(t *testing.T) {
	seed := int64(1)
	for kind := 0; kind < 6; kind++ {
		for _, scale := range boundsScales {
			for _, lattice := range []bool{false, true} {
				for rep := 0; rep < 40; rep++ {
					checkKernelBounds(t, seed, kind, 1+rep%5, scale, lattice)
					seed++
				}
			}
		}
	}
}

// TestThresholdNeedsNextUp pins the case the threshold's nextUp exists
// for: a point one ulp of b² beyond b² has a reduced distance above b²
// whose root rounds back to b.
func TestThresholdNeedsNextUp(t *testing.T) {
	pts, err := FromRows([]Point{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(pts, Euclidean{})
	q := Point{1, math.Sqrt(0x1p-52)}
	r, d := k.Reduced(0, q), k.Dist(0, q)
	if d != 1 || !(r > 1) {
		t.Fatalf("setup: reduced %v, distance %v; want a reduced distance above 1 whose root is 1", r, d)
	}
	if r > k.Threshold(d) {
		t.Fatalf("reduced %v exceeds Threshold(%v)=%v, yet the distance is %v", r, d, k.Threshold(d), d)
	}
}

// FuzzKernelBounds drives the bound checks with fuzzed seeds, kinds,
// dimensions, scales and coordinate styles.
func FuzzKernelBounds(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), uint8(0), true)
	f.Add(int64(7), uint8(1), uint8(4), uint8(4), false)
	f.Add(int64(3), uint8(4), uint8(1), uint8(0), true)
	f.Add(int64(9), uint8(2), uint8(3), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, kind, dimRaw, scaleRaw uint8, lattice bool) {
		checkKernelBounds(t, seed, int(kind), 1+int(dimRaw)%5, boundsScales[int(scaleRaw)%len(boundsScales)], lattice)
	})
}
