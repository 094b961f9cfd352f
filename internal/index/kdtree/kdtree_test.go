package kdtree_test

import (
	"testing"

	"lof/internal/dataset"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/indextest"
	"lof/internal/index/kdtree"
	"lof/internal/index/linear"
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

// TestNewAllocs pins that a build allocates per tree, not per node: the
// median comes from a select over a reused key buffer, nodes live in one
// flat array and the spread scan reuses one lo/hi pair. An allocation per
// node (a node, a sort closure, a lo/hi copy) reads in the hundreds here.
func TestNewAllocs(t *testing.T) {
	pts := dataset.RandomClusters(3, 2000, 4, 5).Points
	allocs := testing.AllocsPerRun(20, func() { kdtree.New(pts, nil) })
	if allocs > 16 {
		t.Errorf("%.0f allocations per 2,000-point build, want at most 16", allocs)
	}
}

// TestMinkowskiFaceTie pins the Minkowski box bound. Under p=3 a point
// across a splitting plane at gap 2 lies at 1.9999999999999998, an ulp
// inside the gap, so a far cell pruned by its gap loses a tie it should
// win: here point 0, behind the plane at 2, ties the twenty copies of -2
// and must win on its index.
func TestMinkowskiFaceTie(t *testing.T) {
	rows := []geom.Point{{2}}
	for i := 0; i < 20; i++ {
		rows = append(rows, geom.Point{-2})
	}
	pts, err := geom.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	m := geom.Minkowski{P: 3}
	q := geom.Point{0}
	want := linear.New(pts, m).NewCursor().KNNInto(nil, q, 1, index.ExcludeNone)
	got := kdtree.New(pts, m).NewCursor().KNNInto(nil, q, 1, index.ExcludeNone)
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("KNN=%v, linear scan %v", got, want)
	}
}
