package core

import (
	"math"
	"math/rand"
	"testing"

	"lof/internal/index/linear"
	"lof/internal/matdb"
	"lof/internal/pool"
)

// equalBits compares floats for exact identity, treating NaN as equal to
// NaN — the 0-ulp tolerance the determinism guarantee promises.
func equalBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// TestSweepPoolMatchesSequential pins the tentpole guarantee: the parallel
// sweep is bit-identical to the sequential one, for plain and distinct
// databases, across pool widths, including widths far above the MinPts
// range (forcing the nested per-point chunking to engage).
func TestSweepPoolMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, distinct := range []bool{false, true} {
		pts := scoreTestData(rng, 300, true)
		var opts []matdb.Option
		if distinct {
			opts = append(opts, matdb.Distinct())
		}
		db := buildDB(t, pts, 25, opts...)
		want, err := Sweep(db, 3, 25)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 64} {
			got, err := SweepPool(db, 3, 25, pool.New(workers))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.MinPts) != len(want.MinPts) {
				t.Fatalf("distinct=%v workers=%d: %d MinPts values, want %d",
					distinct, workers, len(got.MinPts), len(want.MinPts))
			}
			for m := range want.MinPts {
				if got.MinPts[m] != want.MinPts[m] {
					t.Fatalf("distinct=%v workers=%d: MinPts[%d]=%d, want %d",
						distinct, workers, m, got.MinPts[m], want.MinPts[m])
				}
				for i := range want.Values[m] {
					if !equalBits(got.Values[m][i], want.Values[m][i]) {
						t.Fatalf("distinct=%v workers=%d: LOF[m=%d][i=%d] = %v, want %v (not bit-identical)",
							distinct, workers, got.MinPts[m], i, got.Values[m][i], want.Values[m][i])
					}
				}
			}
		}
	}
}

// TestSweepPoolSingleMinPts exercises the degenerate range where all the
// parallelism must come from the per-point chunking.
func TestSweepPoolSingleMinPts(t *testing.T) {
	pts := randomPoints(t, 11, 500, 3)
	db := buildDB(t, pts, 10)
	want, err := Sweep(db, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepPool(db, 10, 10, pool.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values[0] {
		if !equalBits(got.Values[0][i], want.Values[0][i]) {
			t.Fatalf("LOF[%d] = %v, want %v", i, got.Values[0][i], want.Values[0][i])
		}
	}
}

// TestMaterializePoolMatchesSequential verifies the shared-pool path of
// step 1 produces the identical database to the sequential path.
func TestMaterializePoolMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := scoreTestData(rng, 250, true)
	for _, distinct := range []bool{false, true} {
		var base []matdb.Option
		if distinct {
			base = append(base, matdb.Distinct())
		}
		ix := linear.New(pts, nil)
		want, err := matdb.Materialize(pts, ix, 15, base...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := matdb.Materialize(pts, ix, 15, append(base[:len(base):len(base)], matdb.WithPool(pool.New(7)))...)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("distinct=%v: %d rows, want %d", distinct, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			a, b := got.Row(i), want.Row(i)
			if len(a.Neighbors) != len(b.Neighbors) {
				t.Fatalf("distinct=%v row %d: %d neighbors, want %d", distinct, i, len(a.Neighbors), len(b.Neighbors))
			}
			for j := range b.Neighbors {
				if a.Neighbors[j] != b.Neighbors[j] {
					t.Fatalf("distinct=%v row %d neighbor %d: %+v, want %+v",
						distinct, i, j, a.Neighbors[j], b.Neighbors[j])
				}
			}
		}
	}
}
