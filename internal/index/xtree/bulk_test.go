package xtree_test

import (
	"math/rand"
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/indextest"
	"lof/internal/index/xtree"
)

func buildBulk(pts *geom.Points, m geom.Metric) index.Index { return xtree.BulkLoad(pts, m) }

func TestBulkLoadContract(t *testing.T)  { indextest.Run(t, buildBulk) }
func TestBulkLoadEdgeCases(t *testing.T) { indextest.RunEdgeCases(t, buildBulk) }

func TestBulkLoadNoSupernodes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := geom.NewPoints(10, 5000)
	for i := 0; i < 5000; i++ {
		p := make(geom.Point, 10)
		for d := range p {
			p[d] = rng.NormFloat64()
		}
		if err := pts.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	ix := xtree.BulkLoad(pts, nil)
	if ix.Supernodes() != 0 {
		t.Fatalf("bulk load created %d supernodes", ix.Supernodes())
	}
	if ix.Height() < 2 {
		t.Fatalf("height=%d", ix.Height())
	}
}

func TestBulkLoadAgreesWithInsertionBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := geom.NewPoints(3, 800)
	for i := 0; i < 800; i++ {
		if err := pts.Append(geom.Point{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	a := xtree.New(pts, nil)
	b := xtree.BulkLoad(pts, nil)
	for q := 0; q < 40; q++ {
		query := geom.Point{rng.NormFloat64() * 2, rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		ra := a.NewCursor().KNNInto(nil, query, 7, index.ExcludeNone)
		rb := b.NewCursor().KNNInto(nil, query, 7, index.ExcludeNone)
		if len(ra) != len(rb) {
			t.Fatalf("lengths differ: %d vs %d", len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("query %d result %d: %v vs %v", q, i, ra[i], rb[i])
			}
		}
	}
}

func TestBulkLoadNilPointsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	xtree.BulkLoad(nil, nil)
}
