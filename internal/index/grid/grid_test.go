package grid_test

import (
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/grid"
	"lof/internal/index/indextest"
	"lof/internal/index/linear"
)

func build(pts *geom.Points, m geom.Metric) index.Index { return grid.New(pts, m) }

func TestGridContract(t *testing.T)  { indextest.Run(t, build) }
func TestGridEdgeCases(t *testing.T) { indextest.RunEdgeCases(t, build) }
func TestGridZeroAlloc(t *testing.T) { indextest.RunZeroAlloc(t, build) }

func TestGridQueryFarOutsideBounds(t *testing.T) {
	pts, err := geom.FromRows([]geom.Point{{0, 0}, {1, 0}, {0, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ix := grid.New(pts, nil)
	got := ix.NewCursor().KNNInto(nil, geom.Point{100, 100}, 2, index.ExcludeNone)
	if len(got) != 2 || got[0].Index != 3 {
		t.Fatalf("KNN from far outside=%v", got)
	}
}

func TestGridDegenerateDimension(t *testing.T) {
	// All points share the y coordinate: the grid must handle a
	// zero-span dimension.
	pts := geom.NewPoints(2, 50)
	for i := 0; i < 50; i++ {
		if err := pts.Append(geom.Point{float64(i), 3}); err != nil {
			t.Fatal(err)
		}
	}
	ix := grid.New(pts, nil)
	got := ix.NewCursor().KNNInto(nil, geom.Point{25, 3}, 2, 25)
	if len(got) != 2 || got[0].Dist != 1 || got[1].Dist != 1 {
		t.Fatalf("KNN=%v", got)
	}
}

func TestGridSinglePointRange(t *testing.T) {
	pts, err := geom.FromRows([]geom.Point{{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ix := grid.New(pts, nil)
	if got := ix.NewCursor().RangeInto(nil, geom.Point{2, 2}, 0, index.ExcludeNone); len(got) != 1 {
		t.Fatalf("Range=%v", got)
	}
}

func TestGridBoundaryCellZeroRange(t *testing.T) {
	// Regression: the data maximum clamps into the last cell, but that
	// cell's nominal upper face (lo + res·width) can round a few ulps below
	// the maximum. Range pruning against the unwidened box then skipped the
	// cell for radii smaller than the rounding error — here, duplicates of
	// the extreme point vanished from Range(p, 0), which upstream turned
	// a duplicate-heavy point's neighborhood empty and its LOF into NaN.
	pts, err := geom.FromRows([]geom.Point{
		{2}, {2}, {2}, {13}, {2}, {8}, {8}, {13}, {13},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := grid.New(pts, nil)
	for _, i := range []int{3, 7, 8} {
		got := ix.NewCursor().RangeInto(nil, pts.At(i), 0, i)
		if len(got) != 2 {
			t.Fatalf("Range(point %d, 0)=%v, want both duplicates", i, got)
		}
		for _, nb := range got {
			if nb.Dist != 0 {
				t.Fatalf("Range(point %d, 0)=%v: nonzero distance", i, got)
			}
		}
	}
}

func TestGridMatchesLinearOnBoundaryHeavyData(t *testing.T) {
	// Cross-check grid against the always-correct scan on data whose
	// extremes carry duplicates in every dimension, at radii equal to
	// exact inter-point distances (the kdist radii LOF issues).
	rows := []geom.Point{
		{0, 0}, {0, 0}, {10, 10}, {10, 10}, {10, 0}, {0, 10},
		{3, 3}, {3, 7}, {7, 3}, {7, 7}, {5, 5}, {5, 5},
		{10, 10}, {0, 0}, {2, 8},
	}
	pts, err := geom.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	gix := grid.New(pts, nil)
	lix := linear.New(pts, nil)
	for i := 0; i < pts.Len(); i++ {
		for k := 1; k <= 4; k++ {
			g := gix.NewCursor().KNNInto(nil, pts.At(i), k, i)
			l := lix.NewCursor().KNNInto(nil, pts.At(i), k, i)
			if !neighborsEqual(g, l) {
				t.Fatalf("KNN(%d, k=%d): grid=%v linear=%v", i, k, g, l)
			}
			if len(l) > 0 {
				r := l[len(l)-1].Dist
				g = gix.NewCursor().RangeInto(nil, pts.At(i), r, i)
				l = lix.NewCursor().RangeInto(nil, pts.At(i), r, i)
				if !neighborsEqual(g, l) {
					t.Fatalf("Range(%d, %v): grid=%v linear=%v", i, r, g, l)
				}
			}
		}
	}
}

func neighborsEqual(a, b []index.Neighbor) bool {
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

func TestGridNilPointsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	grid.New(nil, nil)
}
