package kdtree_test

import (
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/indextest"
	"lof/internal/index/kdtree"
)

func build(pts *geom.Points, m geom.Metric) index.Index { return kdtree.New(pts, m) }

func TestKDTreeContract(t *testing.T)  { indextest.Run(t, build) }
func TestKDTreeEdgeCases(t *testing.T) { indextest.RunEdgeCases(t, build) }

func TestKDTreeAllDuplicatePoints(t *testing.T) {
	// Every coordinate identical: the build must fall back to a leaf
	// rather than recurse forever.
	rows := make([]geom.Point, 100)
	for i := range rows {
		rows[i] = geom.Point{5, 5}
	}
	pts, err := geom.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	ix := kdtree.New(pts, nil)
	got := ix.NewCursor().KNNInto(nil, geom.Point{5, 5}, 3, 0)
	if len(got) != 3 {
		t.Fatalf("KNN=%v", got)
	}
	for _, nb := range got {
		if nb.Dist != 0 {
			t.Fatalf("duplicate dist=%v", nb.Dist)
		}
	}
}

func TestKDTreeConstantAxis(t *testing.T) {
	// One axis constant: splits must happen on the varying axis.
	pts := geom.NewPoints(2, 200)
	for i := 0; i < 200; i++ {
		if err := pts.Append(geom.Point{float64(i), 7}); err != nil {
			t.Fatal(err)
		}
	}
	ix := kdtree.New(pts, nil)
	got := ix.NewCursor().KNNInto(nil, geom.Point{100, 7}, 2, 100)
	if len(got) != 2 {
		t.Fatalf("KNN=%v", got)
	}
	if got[0].Dist != 1 || got[1].Dist != 1 {
		t.Fatalf("dists=%v", got)
	}
}

func TestKDTreeNilPointsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	kdtree.New(nil, nil)
}
