// Package indextest provides the contract test every index implementation
// must pass: on random datasets, kNN and range queries through a cursor
// must match the sequential scan exactly, including tie handling and
// self-exclusion.
package indextest

import (
	"math"
	"math/rand"
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/linear"
)

// Builder constructs the index under test over the given points and metric.
type Builder func(pts *geom.Points, m geom.Metric) index.Index

// randomPoints draws n points in dim dimensions; a fraction is duplicated
// or grid-snapped to force distance ties.
func randomPoints(rng *rand.Rand, n, dim int) *geom.Points {
	pts := geom.NewPoints(dim, n)
	for i := 0; i < n; i++ {
		p := make(geom.Point, dim)
		switch {
		case i > 0 && rng.Float64() < 0.1:
			// Exact duplicate of an earlier point.
			copy(p, pts.At(rng.Intn(i)))
		case rng.Float64() < 0.3:
			// Grid-snapped coordinates: many equidistant pairs.
			for d := range p {
				p[d] = float64(rng.Intn(8))
			}
		default:
			for d := range p {
				p[d] = rng.NormFloat64() * 10
			}
		}
		if err := pts.Append(p); err != nil {
			panic(err)
		}
	}
	return pts
}

func neighborsEqual(a, b []index.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

// Run exercises the builder against the linear-scan reference on a spread
// of dimensionalities, sizes, ks, radii and metrics.
func Run(t *testing.T, build Builder) {
	t.Helper()
	rng := rand.New(rand.NewSource(1234))

	for trial := 0; trial < 28; trial++ {
		dim := 1 + rng.Intn(4)
		n := 1 + rng.Intn(300)
		var m geom.Metric
		switch trial % 4 {
		case 0:
			m = geom.Euclidean{}
		case 1:
			m = geom.Manhattan{}
		case 2:
			m = geom.Chebyshev{}
		default:
			// Weighted Euclidean with weights spanning below and above 1
			// to stress the axis-gap pruning bounds.
			ws := make([]float64, dim)
			for i := range ws {
				ws[i] = 0.05 + rng.Float64()*4
			}
			wm, err := geom.NewWeightedEuclidean(ws)
			if err != nil {
				panic(err)
			}
			m = wm
		}
		pts := randomPoints(rng, n, dim)
		ref := linear.New(pts, m)
		ix := build(pts, m)

		if ix.Len() != n {
			t.Fatalf("trial %d: Len=%d want %d", trial, ix.Len(), n)
		}
		if ix.Metric().Name() != m.Name() {
			t.Fatalf("trial %d: metric %s want %s", trial, ix.Metric().Name(), m.Name())
		}

		// One cursor and one destination buffer serve every query of the
		// trial: appending must leave the existing prefix of dst untouched.
		cur := index.NewCursor(ix)
		refCur := ref.NewCursor()
		if cur.Index() != index.Index(ix) {
			t.Fatalf("trial %d: cursor.Index() does not return its index", trial)
		}
		sentinel := index.Neighbor{Index: -7, Dist: -1}
		var dst []index.Neighbor

		for qi := 0; qi < 12; qi++ {
			var q geom.Point
			exclude := index.ExcludeNone
			if qi%2 == 0 && n > 0 {
				// Query at a dataset point with self-exclusion: the LOF
				// materialization access pattern.
				exclude = rng.Intn(n)
				q = pts.At(exclude)
			} else {
				q = make(geom.Point, dim)
				for d := range q {
					q[d] = rng.NormFloat64() * 12
				}
			}
			k := 1 + rng.Intn(12)
			want := refCur.KNNInto(nil, q, k, exclude)
			dst = append(dst[:0], sentinel)
			dst = cur.KNNInto(dst, q, k, exclude)
			if dst[0] != sentinel {
				t.Fatalf("trial %d query %d: KNNInto clobbered dst prefix: %v", trial, qi, dst[0])
			}
			if !neighborsEqual(dst[1:], want) {
				t.Fatalf("trial %d query %d: KNNInto(k=%d, exclude=%d, metric=%s, n=%d, dim=%d)\n got %v\nwant %v",
					trial, qi, k, exclude, m.Name(), n, dim, dst[1:], want)
			}

			r := rng.Float64() * 15
			wantR := refCur.RangeInto(nil, q, r, exclude)
			dst = append(dst[:0], sentinel)
			dst = cur.RangeInto(dst, q, r, exclude)
			if dst[0] != sentinel {
				t.Fatalf("trial %d query %d: RangeInto clobbered dst prefix: %v", trial, qi, dst[0])
			}
			if !neighborsEqual(dst[1:], wantR) {
				t.Fatalf("trial %d query %d: RangeInto(r=%v, exclude=%d, metric=%s, n=%d, dim=%d)\n got %v\nwant %v",
					trial, qi, r, exclude, m.Name(), n, dim, dst[1:], wantR)
			}

			// The tie-inclusive neighborhood must contain the plain kNN
			// set and every member must be within the k-distance.
			dst = append(dst[:0], sentinel)
			dst = index.KNNWithTiesInto(cur, dst, q, k, exclude)
			if dst[0] != sentinel {
				t.Fatalf("trial %d query %d: KNNWithTiesInto clobbered dst prefix: %v", trial, qi, dst[0])
			}
			if ties := dst[1:]; len(want) > 0 {
				kdist := want[len(want)-1].Dist
				for _, nb := range ties {
					if nb.Dist > kdist+1e-9 {
						t.Fatalf("trial %d: tie result %v beyond k-distance %v", trial, nb, kdist)
					}
				}
				if len(ties) < len(want) {
					t.Fatalf("trial %d: ties %d < knn %d", trial, len(ties), len(want))
				}
				// By definition the neighborhood is the range query at the
				// k-distance, bit for bit, whichever way it is computed.
				if byRange := cur.RangeInto(nil, q, ties[len(want)-1].Dist, exclude); !exactEqual(ties, byRange) {
					t.Fatalf("trial %d query %d: KNNWithTiesInto(k=%d) differs from the range query at the k-distance\n got %v\nwant %v",
						trial, qi, k, ties, byRange)
				}
			}
		}
	}
}

// exactEqual is bitwise equality.
func exactEqual(a, b []index.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunEdgeCases exercises empty datasets, k larger than n (up to 2^45),
// zero k, negative radius and single-point datasets.
func RunEdgeCases(t *testing.T, build Builder) {
	t.Helper()
	m := geom.Euclidean{}

	empty := index.NewCursor(build(geom.NewPoints(2, 0), m))
	if got := empty.KNNInto(nil, geom.Point{0, 0}, 3, index.ExcludeNone); len(got) != 0 {
		t.Fatalf("empty KNNInto=%v", got)
	}
	if got := empty.RangeInto(nil, geom.Point{0, 0}, 5, index.ExcludeNone); len(got) != 0 {
		t.Fatalf("empty RangeInto=%v", got)
	}

	one, err := geom.FromRows([]geom.Point{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	cur := index.NewCursor(build(one, m))
	if got := cur.KNNInto(nil, geom.Point{0, 0}, 5, index.ExcludeNone); len(got) != 1 || got[0].Index != 0 {
		t.Fatalf("single-point KNNInto=%v", got)
	}
	if got := cur.KNNInto(nil, geom.Point{1, 1}, 5, 0); len(got) != 0 {
		t.Fatalf("self-excluded single-point KNNInto=%v", got)
	}
	// Zero radius at an exact point location includes that point.
	if got := cur.RangeInto(nil, geom.Point{1, 1}, 0, index.ExcludeNone); len(got) != 1 {
		t.Fatalf("zero-radius RangeInto=%v", got)
	}

	// Degenerate queries (k <= 0, negative radius) must leave dst
	// untouched, and the cursor must stay usable after them.
	prefix := []index.Neighbor{{Index: 9, Dist: 9}}
	if got := cur.KNNInto(prefix, geom.Point{0, 0}, 0, index.ExcludeNone); len(got) != 1 || got[0] != prefix[0] {
		t.Fatalf("k=0 KNNInto=%v", got)
	}
	if got := cur.KNNInto(prefix, geom.Point{0, 0}, -3, index.ExcludeNone); len(got) != 1 || got[0] != prefix[0] {
		t.Fatalf("k=-3 KNNInto=%v", got)
	}
	if got := cur.RangeInto(prefix, geom.Point{0, 0}, -1, index.ExcludeNone); len(got) != 1 || got[0] != prefix[0] {
		t.Fatalf("negative-radius RangeInto=%v", got)
	}
	if got := index.KNNWithTiesInto(cur, prefix, geom.Point{0, 0}, 0, index.ExcludeNone); len(got) != 1 || got[0] != prefix[0] {
		t.Fatalf("k=0 KNNWithTiesInto=%v", got)
	}
	if got := cur.KNNInto(nil, geom.Point{0, 0}, 5, index.ExcludeNone); len(got) != 1 || got[0].Index != 0 {
		t.Fatalf("cursor KNN after degenerate queries=%v", got)
	}

	// A k far beyond the point count (a stream's MinPts reaches cursors
	// unclamped) answers with every point; cursor storage must follow the
	// candidates held, not k, or this asks for petabytes.
	three, err := geom.FromRows([]geom.Point{{0, 0}, {1, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	const hugeK = 1 << 45
	big := index.NewCursor(build(three, m))
	for _, got := range [][]index.Neighbor{
		big.KNNInto(nil, geom.Point{0, 0}, hugeK, index.ExcludeNone),
		index.KNNWithTiesInto(big, nil, geom.Point{0, 0}, hugeK, index.ExcludeNone),
	} {
		if len(got) != 3 || got[0].Index != 0 || got[1].Index != 1 || got[2].Index != 2 {
			t.Fatalf("k=2^45 over 3 points: %v", got)
		}
	}
}

// RunZeroAlloc pins the cursor hot path to zero allocations per query for
// the index under test: after a warm-up query sizes the cursor scratch and
// the destination buffer, KNNInto, RangeInto and KNNWithTiesInto must not
// allocate at all. Only implementations whose traversal state is fully
// cursor-owned can pass; callers opt in per package.
func RunZeroAlloc(t *testing.T, build Builder) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	const n, dim, k = 512, 3, 8
	pts := randomPoints(rng, n, dim)
	ix := build(pts, geom.Euclidean{})
	cur := index.NewCursor(ix)

	queries := make([]geom.Point, 16)
	for i := range queries {
		q := make(geom.Point, dim)
		for d := range q {
			q[d] = rng.NormFloat64() * 10
		}
		queries[i] = q
	}
	// Warm up: run every query through every operation once so the heap,
	// the traversal scratch and the destination buffer reach their final
	// sizes before allocations are counted.
	dst := cur.KNNInto(nil, queries[0], k, index.ExcludeNone)
	r := dst[len(dst)-1].Dist * 1.5
	for _, q := range queries {
		dst = cur.KNNInto(dst[:0], q, k, 3)
		dst = cur.RangeInto(dst[:0], q, r, index.ExcludeNone)
		dst = index.KNNWithTiesInto(cur, dst[:0], q, k, index.ExcludeNone)
	}

	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := queries[qi%len(queries)]
		qi++
		dst = cur.KNNInto(dst[:0], q, k, 3)
		dst = cur.RangeInto(dst[:0], q, r, index.ExcludeNone)
		dst = index.KNNWithTiesInto(cur, dst[:0], q, k, index.ExcludeNone)
	})
	if allocs != 0 {
		t.Fatalf("cursor hot path allocates: %v allocs/query, want 0", allocs)
	}
}
