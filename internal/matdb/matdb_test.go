package matdb

import (
	"math"
	"math/rand"
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/linear"
)

func randomPoints(t *testing.T, seed int64, n, dim int) *geom.Points {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewPoints(dim, n)
	for i := 0; i < n; i++ {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 5
		}
		if err := pts.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

func mustMaterialize(t *testing.T, pts *geom.Points, k int, opts ...Option) *DB {
	t.Helper()
	db, err := Materialize(pts, linear.New(pts, nil), k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestMaterializeBasics(t *testing.T) {
	pts := randomPoints(t, 1, 50, 2)
	db := mustMaterialize(t, pts, 10)
	if db.Len() != 50 || db.K != 10 {
		t.Fatalf("Len=%d K=%d", db.Len(), db.K)
	}
	for i, nn := range db.Neighbors {
		if len(nn) < 10 {
			t.Fatalf("point %d has %d neighbors", i, len(nn))
		}
		for j, nb := range nn {
			if nb.Index == i {
				t.Fatalf("point %d lists itself", i)
			}
			if j > 0 && nn[j-1].Dist > nb.Dist {
				t.Fatalf("point %d neighbors unsorted", i)
			}
		}
	}
}

func TestMaterializeValidation(t *testing.T) {
	pts := randomPoints(t, 1, 10, 2)
	ix := linear.New(pts, nil)
	if _, err := Materialize(nil, ix, 3); err == nil {
		t.Error("nil points accepted")
	}
	if _, err := Materialize(pts, nil, 3); err == nil {
		t.Error("nil index accepted")
	}
	if _, err := Materialize(pts, ix, 0); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Materialize(pts, ix, 10); err == nil {
		t.Error("K=n accepted")
	}
	one, _ := geom.FromRows([]geom.Point{{0, 0}})
	if _, err := Materialize(one, linear.New(one, nil), 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestNeighborhoodPrefixSemantics(t *testing.T) {
	// Points on a line at 0,1,2,...: MinPts-distance neighborhoods of the
	// leftmost point are exact prefixes.
	pts := geom.NewPoints(1, 10)
	for i := 0; i < 10; i++ {
		if err := pts.Append(geom.Point{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	db := mustMaterialize(t, pts, 5)
	for minPts := 1; minPts <= 5; minPts++ {
		nn := db.Neighborhood(0, minPts)
		if len(nn) != minPts {
			t.Fatalf("minPts=%d |N|=%d", minPts, len(nn))
		}
		if db.KDistance(0, minPts) != float64(minPts) {
			t.Fatalf("kdist=%v", db.KDistance(0, minPts))
		}
	}
}

func TestNeighborhoodIncludesTies(t *testing.T) {
	// Paper's Definition 4 example: 1 object at distance 1, 2 at distance
	// 2, 3 at distance 3 → |N2| = 3 (2-distance = 2 covers 3 objects) and
	// |N4| = 6.
	rows := []geom.Point{
		{0, 0},
		{1, 0},
		{2, 0}, {0, 2},
		{3, 0}, {0, 3}, {-3, 0},
	}
	pts, err := geom.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	db := mustMaterialize(t, pts, 6)
	if nn := db.Neighborhood(0, 2); len(nn) != 3 {
		t.Fatalf("|N2|=%d want 3: %v", len(nn), nn)
	}
	if nn := db.Neighborhood(0, 4); len(nn) != 6 {
		t.Fatalf("|N4|=%d want 6: %v", len(nn), nn)
	}
	if kd := db.KDistance(0, 4); kd != 3 {
		t.Fatalf("4-distance=%v want 3", kd)
	}
	if kd := db.KDistance(0, 2); kd != 2 {
		t.Fatalf("2-distance=%v want 2 (equal to 3-distance)", kd)
	}
}

func TestCheckMinPts(t *testing.T) {
	pts := randomPoints(t, 2, 30, 2)
	db := mustMaterialize(t, pts, 10)
	if err := db.CheckMinPts(10); err != nil {
		t.Error(err)
	}
	if err := db.CheckMinPts(0); err == nil {
		t.Error("MinPts=0 accepted")
	}
	if err := db.CheckMinPts(11); err == nil {
		t.Error("MinPts>K accepted")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	pts := randomPoints(t, 3, 200, 3)
	seq := mustMaterialize(t, pts, 15)
	par := mustMaterialize(t, pts, 15, Workers(4))
	for i := range seq.Neighbors {
		if len(seq.Neighbors[i]) != len(par.Neighbors[i]) {
			t.Fatalf("point %d: %d vs %d neighbors", i, len(seq.Neighbors[i]), len(par.Neighbors[i]))
		}
		for j := range seq.Neighbors[i] {
			if seq.Neighbors[i][j] != par.Neighbors[i][j] {
				t.Fatalf("point %d neighbor %d differs", i, j)
			}
		}
	}
}

func TestDistinctNeighborhoodsWithDuplicates(t *testing.T) {
	// 20 copies of the origin plus a line of distinct points. With plain
	// neighborhoods, K=5 yields only duplicate neighbors (distance 0);
	// with Distinct, each origin copy must reach 5 distinct positions.
	var rows []geom.Point
	for i := 0; i < 20; i++ {
		rows = append(rows, geom.Point{0, 0})
	}
	for i := 1; i <= 10; i++ {
		rows = append(rows, geom.Point{float64(i), 0})
	}
	pts, err := geom.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	ix := linear.New(pts, nil)

	plain, err := Materialize(pts, ix, 5)
	if err != nil {
		t.Fatal(err)
	}
	if kd := plain.KDistance(0, 5); kd != 0 {
		t.Fatalf("plain 5-distance of duplicate=%v want 0", kd)
	}

	dist, err := Materialize(pts, ix, 5, Distinct())
	if err != nil {
		t.Fatal(err)
	}
	// Distinct positions within reach: origin (19 dups), 1, 2, 3, 4 → the
	// 5-distinct-distance is 4.
	if kd := dist.KDistance(0, 5); kd != 4 {
		t.Fatalf("distinct 5-distance=%v want 4", kd)
	}
	// The neighborhood must include the 19 duplicates and points 1..4.
	if nn := dist.Neighborhood(0, 5); len(nn) != 19+4 {
		t.Fatalf("|N|=%d want 23", len(nn))
	}
}

func TestDistinctFallbackWhenTooFewPositions(t *testing.T) {
	// Only 3 distinct positions exist but 5 are requested: the
	// neighborhood degrades to everything.
	rows := []geom.Point{{0, 0}, {0, 0}, {1, 0}, {1, 0}, {2, 0}, {2, 0}}
	pts, err := geom.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Materialize(pts, linear.New(pts, nil), 5, Distinct())
	if err != nil {
		t.Fatal(err)
	}
	if nn := db.Neighbors[0]; len(nn) != 5 {
		t.Fatalf("|N|=%d want 5 (all other points)", len(nn))
	}
}

// flatten lays db out as the flat arrays the sectioned snapshot formats
// store, the input FromFlat restores a database from.
func flatten(db *DB) (flat []index.Neighbor, rowOffs []uint64, ranks []int32, rankOffs []uint64) {
	rowOffs = []uint64{0}
	for i, nn := range db.Neighbors {
		flat = append(flat, nn...)
		rowOffs = append(rowOffs, uint64(len(flat)))
		if db.IsDistinct() {
			if i == 0 {
				rankOffs = []uint64{0}
			}
			ranks = append(ranks, db.RanksOf(i)...)
			rankOffs = append(rankOffs, uint64(len(ranks)))
		}
	}
	return flat, rowOffs, ranks, rankOffs
}

func TestRoundTrip(t *testing.T) {
	for _, distinct := range []bool{false, true} {
		pts := randomPoints(t, 4, 120, 4)
		var opts []Option
		if distinct {
			opts = append(opts, Distinct())
		}
		db := mustMaterialize(t, pts, 20, opts...)
		flat, rowOffs, ranks, rankOffs := flatten(db)
		back, err := FromFlat(db.K, db.Len(), flat, rowOffs, ranks, rankOffs, distinct)
		if err != nil {
			t.Fatal(err)
		}
		if back.K != db.K || back.Len() != db.Len() || back.IsDistinct() != distinct {
			t.Fatalf("K=%d Len=%d distinct=%v", back.K, back.Len(), back.IsDistinct())
		}
		for i := range db.Neighbors {
			for j := range db.Neighbors[i] {
				if db.Neighbors[i][j] != back.Neighbors[i][j] {
					t.Fatalf("point %d neighbor %d differs after round trip", i, j)
				}
			}
			for m := 1; m <= db.K; m++ {
				if math.Float64bits(db.KDistance(i, m)) != math.Float64bits(back.KDistance(i, m)) {
					t.Fatalf("point %d: %d-distance differs after round trip", i, m)
				}
			}
		}
	}
}

func TestReadRejectsCorruptInput(t *testing.T) {
	pts := randomPoints(t, 5, 20, 2)
	db := mustMaterialize(t, pts, 5, Distinct())
	n := db.Len()
	cases := map[string]func(flat []index.Neighbor, rowOffs []uint64, ranks []int32, rankOffs []uint64) error{
		"zero K": func(f []index.Neighbor, ro []uint64, rk []int32, rko []uint64) error {
			_, err := FromFlat(0, n, f, ro, rk, rko, true)
			return err
		},
		"short row offsets": func(f []index.Neighbor, ro []uint64, rk []int32, rko []uint64) error {
			_, err := FromFlat(db.K, n, f, ro[:n], rk, rko, true)
			return err
		},
		"offsets past the entries": func(f []index.Neighbor, ro []uint64, rk []int32, rko []uint64) error {
			ro[n]++
			_, err := FromFlat(db.K, n, f, ro, rk, rko, true)
			return err
		},
		"decreasing offsets": func(f []index.Neighbor, ro []uint64, rk []int32, rko []uint64) error {
			ro[1], ro[2] = ro[2], ro[1]
			_, err := FromFlat(db.K, n, f, ro, rk, rko, true)
			return err
		},
		"NaN distance": func(f []index.Neighbor, ro []uint64, rk []int32, rko []uint64) error {
			f[3].Dist = math.NaN()
			_, err := FromFlat(db.K, n, f, ro, rk, rko, true)
			return err
		},
		"negative distance": func(f []index.Neighbor, ro []uint64, rk []int32, rko []uint64) error {
			f[3].Dist = -1
			_, err := FromFlat(db.K, n, f, ro, rk, rko, true)
			return err
		},
		"rank out of its row": func(f []index.Neighbor, ro []uint64, rk []int32, rko []uint64) error {
			rk[0] = int32(ro[1] - ro[0])
			_, err := FromFlat(db.K, n, f, ro, rk, rko, true)
			return err
		},
		"ranks on a raw database": func(f []index.Neighbor, ro []uint64, rk []int32, rko []uint64) error {
			_, err := FromFlat(db.K, n, f, ro, rk, rko, false)
			return err
		},
	}
	for name, corrupt := range cases {
		flat, rowOffs, ranks, rankOffs := flatten(db)
		if err := corrupt(flat, rowOffs, ranks, rankOffs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadRejectsOutOfRangeNeighbor(t *testing.T) {
	pts := randomPoints(t, 6, 5, 2)
	db := mustMaterialize(t, pts, 2)
	flat, rowOffs, _, _ := flatten(db)
	flat[0].Index = 999
	if _, err := FromFlat(db.K, db.Len(), flat, rowOffs, nil, nil, false); err == nil {
		t.Fatal("out-of-range neighbor accepted")
	}
}

func TestNeighborhoodAllPointsBound(t *testing.T) {
	// With K = n-1 every neighborhood is everything else.
	pts := randomPoints(t, 7, 8, 2)
	db := mustMaterialize(t, pts, 7)
	for i := 0; i < 8; i++ {
		if nn := db.Neighborhood(i, 7); len(nn) != 7 {
			t.Fatalf("|N|=%d", len(nn))
		}
	}
}

func TestKDistanceEmptyNeighbors(t *testing.T) {
	db := &DB{K: 1, Neighbors: [][]index.Neighbor{{}}}
	if kd := db.KDistance(0, 1); !math.IsInf(kd, 1) {
		t.Fatalf("kd=%v want +Inf", kd)
	}
}

func TestEntriesIndependentOfDimension(t *testing.T) {
	// The paper's size claim: |M| ≈ n·K regardless of dimensionality.
	for _, dim := range []int{2, 8, 32} {
		pts := randomPoints(t, 9, 100, dim)
		db := mustMaterialize(t, pts, 10)
		if e := db.Entries(); e < 100*10 || e > 100*10+50 {
			t.Fatalf("dim=%d entries=%d want ≈1000", dim, e)
		}
	}
}
