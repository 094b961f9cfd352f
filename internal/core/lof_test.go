package core

import (
	"math"
	"math/rand"
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/linear"
	"lof/internal/matdb"
)

func buildDB(t *testing.T, pts *geom.Points, k int, opts ...matdb.Option) *matdb.DB {
	t.Helper()
	db, err := matdb.Materialize(pts, linear.New(pts, nil), k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func randomPoints(t *testing.T, seed int64, n, dim int) *geom.Points {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewPoints(dim, n)
	for i := 0; i < n; i++ {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 10
		}
		if err := pts.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

func TestReachDist(t *testing.T) {
	// Definition 5 and the figure 2 intuition: close objects get smoothed
	// to the k-distance of o, far objects keep their true distance.
	cases := []struct {
		kDistO, d, want float64
	}{
		{2, 1, 2}, // p1: inside o's k-distance → smoothed
		{2, 5, 5}, // p2: beyond o's k-distance → actual distance
		{2, 2, 2}, // boundary
		{0, 0, 0}, // duplicates
	}
	for _, c := range cases {
		if got := ReachDist(c.kDistO, c.d); got != c.want {
			t.Errorf("ReachDist(%v,%v)=%v want %v", c.kDistO, c.d, got, c.want)
		}
	}
}

// TestReachDistMatchesMathMax pins ReachDist's builtin max to math.Max bit
// for bit on every pair of special and ordinary values without a NaN, and
// to NaN whenever an input is NaN.
func TestReachDistMatchesMathMax(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 3.5}
	for _, a := range vals {
		for _, b := range vals {
			got := ReachDist(a, b)
			if math.IsNaN(a) || math.IsNaN(b) {
				if !math.IsNaN(got) {
					t.Errorf("ReachDist(%v, %v) = %v, want NaN", a, b, got)
				}
				continue
			}
			if want := math.Max(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("ReachDist(%v, %v) = %v (%#x), math.Max gives %v (%#x)",
					a, b, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestLOFUniformLineIsOne(t *testing.T) {
	// Evenly spaced points on a line: every interior point has identical
	// neighborhood geometry, so LOF must be 1 exactly for points far from
	// the boundary.
	pts := geom.NewPoints(1, 101)
	for i := 0; i <= 100; i++ {
		if err := pts.Append(geom.Point{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	db := buildDB(t, pts, 10)
	lofs, err := LOFs(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 20; i <= 80; i++ {
		if math.Abs(lofs[i]-1) > 1e-9 {
			t.Fatalf("interior point %d LOF=%v want 1", i, lofs[i])
		}
	}
}

func TestLOFFlagsPlantedOutlier(t *testing.T) {
	// A tight cluster plus one distant point: the distant point's LOF must
	// clearly exceed every cluster member's.
	rng := rand.New(rand.NewSource(5))
	pts := geom.NewPoints(2, 101)
	for i := 0; i < 100; i++ {
		if err := pts.Append(geom.Point{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pts.Append(geom.Point{20, 20}); err != nil {
		t.Fatal(err)
	}
	db := buildDB(t, pts, 10)
	lofs, err := LOFs(db, 10)
	if err != nil {
		t.Fatal(err)
	}
	outlier := lofs[100]
	if outlier < 2 {
		t.Fatalf("outlier LOF=%v, want clearly above 1", outlier)
	}
	for i := 0; i < 100; i++ {
		if lofs[i] >= outlier {
			t.Fatalf("cluster point %d LOF=%v >= outlier %v", i, lofs[i], outlier)
		}
	}
	if got := Rank(lofs)[0].Index; got != 100 {
		t.Fatalf("top ranked=%d want 100", got)
	}
}

func TestLOFHigherForOutlierNearDenserCluster(t *testing.T) {
	// The figure 9 observation: at the same distance from a cluster, an
	// outlier next to a dense cluster has a higher LOF than one next to a
	// sparse cluster.
	rng := rand.New(rand.NewSource(6))
	pts := geom.NewPoints(2, 0)
	for i := 0; i < 200; i++ { // dense cluster at (0,0), sigma 0.5
		if err := pts.Append(geom.Point{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // sparse cluster at (100,0), sigma 3
		if err := pts.Append(geom.Point{100 + rng.NormFloat64()*3, rng.NormFloat64() * 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pts.Append(geom.Point{10, 0}); err != nil { // 10 away from dense
		t.Fatal(err)
	}
	if err := pts.Append(geom.Point{90, 0}); err != nil { // 10 away from sparse
		t.Fatal(err)
	}
	db := buildDB(t, pts, 20)
	lofs, err := LOFs(db, 15)
	if err != nil {
		t.Fatal(err)
	}
	nearDense, nearSparse := lofs[400], lofs[401]
	if nearDense <= nearSparse {
		t.Fatalf("LOF near dense=%v should exceed LOF near sparse=%v", nearDense, nearSparse)
	}
	if nearSparse <= 1.5 {
		t.Fatalf("LOF near sparse=%v should still be outlying", nearSparse)
	}
}

func TestLOFDuplicatesInfinitySemantics(t *testing.T) {
	// More than MinPts duplicates at two sites: every duplicate's lrd is
	// +Inf, their LOFs must come out 1 (Inf/Inf), not NaN.
	var rows []geom.Point
	for i := 0; i < 10; i++ {
		rows = append(rows, geom.Point{0, 0})
	}
	for i := 0; i < 10; i++ {
		rows = append(rows, geom.Point{5, 5})
	}
	pts, err := geom.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := buildDB(t, pts, 5)
	lrds, err := LRDs(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lrds {
		if !math.IsInf(l, 1) {
			t.Fatalf("lrd[%d]=%v want +Inf", i, l)
		}
	}
	lofs, err := LOFsFromLRDs(db, 5, lrds)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lofs {
		if math.IsNaN(l) {
			t.Fatalf("LOF[%d] is NaN", i)
		}
		if l != 1 {
			t.Fatalf("duplicate LOF[%d]=%v want 1", i, l)
		}
	}
}

func TestLOFDistinctModeKeepsDensitiesFinite(t *testing.T) {
	// Same duplicate-heavy data under k-distinct-distance semantics: lrds
	// become finite and a straggler near one site is still flagged.
	var rows []geom.Point
	for i := 0; i < 10; i++ {
		rows = append(rows, geom.Point{0, 0})
	}
	for i := 0; i < 10; i++ {
		rows = append(rows, geom.Point{1, 0})
	}
	for i := 0; i < 10; i++ {
		rows = append(rows, geom.Point{2, 0})
	}
	rows = append(rows, geom.Point{10, 0}) // straggler
	pts, err := geom.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := buildDB(t, pts, 3, matdb.Distinct())
	lrds, err := LRDs(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if math.IsInf(lrds[i], 1) {
			t.Fatalf("distinct-mode lrd[%d] is +Inf", i)
		}
	}
	lofs, err := LOFsFromLRDs(db, 3, lrds)
	if err != nil {
		t.Fatal(err)
	}
	straggler := lofs[30]
	for i := 0; i < 30; i++ {
		if lofs[i] >= straggler {
			t.Fatalf("duplicate site %d LOF=%v >= straggler %v", i, lofs[i], straggler)
		}
	}
}

func TestNaiveMatchesMaterialized(t *testing.T) {
	pts := randomPoints(t, 7, 150, 3)
	ix := linear.New(pts, nil)
	db := buildDB(t, pts, 12)
	for _, minPts := range []int{3, 7, 12} {
		want, err := LOFs(db, minPts)
		if err != nil {
			t.Fatal(err)
		}
		got := NaiveLOFs(ix, func(i int) []index.Neighbor {
			return index.KNNWithTiesInto(ix.NewCursor(), nil, pts.At(i), minPts, i)
		}, minPts)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("minPts=%d point %d: naive=%v materialized=%v", minPts, i, got[i], want[i])
			}
		}
	}
}

// TestLRDsRawMatchesDirect pins the ablation's raw-distance densities:
// on data with duplicate piles (some larger than MinPts, so some sums are
// zero), LRDsRaw equals |N| divided by the plain sum of d(p, o) over N,
// +Inf for a zero sum, bit for bit.
func TestLRDsRawMatchesDirect(t *testing.T) {
	pts := randomPoints(t, 9, 120, 2)
	for i := 0; i < 40; i++ {
		// One pile of 12 equal points, then pairs.
		src := 0
		if i >= 11 {
			src = 1 + (i-11)/2
		}
		if err := pts.Append(pts.At(src).Clone()); err != nil {
			t.Fatal(err)
		}
	}
	db := buildDB(t, pts, 10)
	for _, minPts := range []int{1, 4, 10} {
		got, err := LRDsRaw(db, minPts)
		if err != nil {
			t.Fatal(err)
		}
		infs := 0
		for i := range got {
			nn := db.Neighborhood(i, minPts)
			var sum float64
			for _, nb := range nn {
				sum += nb.Dist
			}
			want := float64(len(nn)) / sum
			if sum == 0 {
				want = math.Inf(1)
				infs++
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("minPts=%d point %d: LRDsRaw=%v direct=%v", minPts, i, got[i], want)
			}
		}
		if infs == 0 {
			t.Fatalf("minPts=%d: no zero-sum neighborhood exercised", minPts)
		}
	}
}

func TestLOFValidation(t *testing.T) {
	pts := randomPoints(t, 8, 30, 2)
	db := buildDB(t, pts, 5)
	if _, err := LOFs(db, 0); err == nil {
		t.Error("MinPts=0 accepted")
	}
	if _, err := LOFs(db, 6); err == nil {
		t.Error("MinPts>K accepted")
	}
	if _, err := LOFsFromLRDs(db, 3, make([]float64, 5)); err == nil {
		t.Error("wrong-length lrds accepted")
	}
}

func TestDensityRatio(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		o, p, want float64
	}{
		{2, 4, 0.5},
		{inf, inf, 1},
		{3, inf, 0},
		{inf, 3, inf},
	}
	for _, c := range cases {
		if got := densityRatio(c.o, c.p); got != c.want {
			t.Errorf("densityRatio(%v,%v)=%v want %v", c.o, c.p, got, c.want)
		}
	}
}
