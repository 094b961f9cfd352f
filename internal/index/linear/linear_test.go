package linear_test

import (
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/indextest"
	"lof/internal/index/linear"
)

func build(pts *geom.Points, m geom.Metric) index.Index { return linear.New(pts, m) }

// The linear scan is the reference, so the contract run checks it against
// itself — still worthwhile, because it exercises the tie and exclusion
// plumbing and the KNNWithTiesInto invariants.
func TestLinearContract(t *testing.T)  { indextest.Run(t, build) }
func TestLinearEdgeCases(t *testing.T) { indextest.RunEdgeCases(t, build) }
func TestLinearZeroAlloc(t *testing.T) { indextest.RunZeroAlloc(t, build) }

func TestLinearKnownAnswers(t *testing.T) {
	pts, err := geom.FromRows([]geom.Point{{0, 0}, {1, 0}, {2, 0}, {10, 0}})
	if err != nil {
		t.Fatal(err)
	}
	ix := linear.New(pts, nil) // nil metric defaults to Euclidean
	got := ix.NewCursor().KNNInto(nil, geom.Point{0, 0}, 2, 0)
	if len(got) != 2 || got[0].Index != 1 || got[1].Index != 2 {
		t.Fatalf("KNN=%v", got)
	}
	if got[0].Dist != 1 || got[1].Dist != 2 {
		t.Fatalf("dists=%v", got)
	}
	r := ix.NewCursor().RangeInto(nil, geom.Point{0, 0}, 2, index.ExcludeNone)
	if len(r) != 3 {
		t.Fatalf("Range=%v", r)
	}
}

func TestLinearTieInclusion(t *testing.T) {
	// Paper's example after Definition 4: 1 object at distance 1, 2 at
	// distance 2, 3 at distance 3 → |N4| = 6 because 4-distance = 3.
	pts, err := geom.FromRows([]geom.Point{
		{0, 0},
		{1, 0},
		{2, 0}, {0, 2},
		{3, 0}, {0, 3}, {-3, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := linear.New(pts, geom.Euclidean{})
	nn := index.KNNWithTiesInto(ix.NewCursor(), nil, pts.At(0), 4, 0)
	if len(nn) != 6 {
		t.Fatalf("|N4| = %d, want 6 (paper's Definition 4 example): %v", len(nn), nn)
	}
	if nn[len(nn)-1].Dist != 3 {
		t.Fatalf("4-distance=%v want 3", nn[len(nn)-1].Dist)
	}
}

func TestLinearNilPointsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	linear.New(nil, nil)
}
