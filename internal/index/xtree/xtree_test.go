package xtree_test

import (
	"math/rand"
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/indextest"
	"lof/internal/index/xtree"
)

func build(pts *geom.Points, m geom.Metric) index.Index { return xtree.New(pts, m) }

func TestXTreeContract(t *testing.T)  { indextest.Run(t, build) }
func TestXTreeEdgeCases(t *testing.T) { indextest.RunEdgeCases(t, build) }

func TestXTreeGrowsHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := geom.NewPoints(2, 5000)
	for i := 0; i < 5000; i++ {
		if err := pts.Append(geom.Point{rng.Float64() * 100, rng.Float64() * 100}); err != nil {
			t.Fatal(err)
		}
	}
	ix := xtree.New(pts, nil)
	if ix.Height() < 3 {
		t.Fatalf("height=%d for 5000 points; tree did not grow", ix.Height())
	}
}

func TestXTreeSupernodesInHighDim(t *testing.T) {
	// In high dimensions, directory splits overlap badly and the X-tree
	// must start creating supernodes; in 2-d it should rarely need them.
	rng := rand.New(rand.NewSource(4))
	mk := func(dim, n int) *geom.Points {
		pts := geom.NewPoints(dim, n)
		for i := 0; i < n; i++ {
			p := make(geom.Point, dim)
			for d := range p {
				p[d] = rng.NormFloat64()
			}
			if err := pts.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		return pts
	}
	lowDim := xtree.New(mk(2, 4000), nil)
	highDim := xtree.New(mk(20, 4000), nil)
	if highDim.Supernodes() <= lowDim.Supernodes() {
		t.Fatalf("supernodes: 20-d=%d should exceed 2-d=%d",
			highDim.Supernodes(), lowDim.Supernodes())
	}
}

func TestXTreeDuplicateHeavy(t *testing.T) {
	// Many duplicates stress zero-volume MBR handling.
	pts := geom.NewPoints(2, 300)
	for i := 0; i < 300; i++ {
		if err := pts.Append(geom.Point{float64(i % 3), float64(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	ix := xtree.New(pts, nil)
	got := ix.NewCursor().KNNInto(nil, geom.Point{0, 0}, 5, index.ExcludeNone)
	if len(got) != 5 {
		t.Fatalf("KNN=%v", got)
	}
	for _, nb := range got {
		if nb.Dist != 0 {
			t.Fatalf("expected only exact duplicates at distance 0, got %v", got)
		}
	}
}

func TestXTreeNilPointsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	xtree.New(nil, nil)
}
