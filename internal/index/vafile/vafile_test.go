package vafile_test

import (
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/indextest"
	"lof/internal/index/vafile"
)

func build(pts *geom.Points, m geom.Metric) index.Index {
	ix, err := vafile.New(pts, m, 0)
	if err != nil {
		panic(err)
	}
	return ix
}

func TestVAFileContract(t *testing.T)  { indextest.Run(t, build) }
func TestVAFileEdgeCases(t *testing.T) { indextest.RunEdgeCases(t, build) }

func TestVAFileRejectsUnsupportedMetric(t *testing.T) {
	pts, err := geom.FromRows([]geom.Point{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := geom.NewMinkowski(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vafile.New(pts, mk, 0); err == nil {
		t.Fatal("Minkowski(3) accepted")
	}
}

func TestVAFileRejectsBadBits(t *testing.T) {
	pts, err := geom.FromRows([]geom.Point{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{-1, 17, 100} {
		if _, err := vafile.New(pts, nil, bits); err == nil {
			t.Errorf("bits=%d accepted", bits)
		}
	}
}

func TestVAFileRejectsNilPoints(t *testing.T) {
	if _, err := vafile.New(nil, nil, 0); err == nil {
		t.Fatal("nil points accepted")
	}
}

func TestVAFileDefaultBits(t *testing.T) {
	pts, err := geom.FromRows([]geom.Point{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := vafile.New(pts, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Bits() != vafile.DefaultBits {
		t.Fatalf("Bits=%d", ix.Bits())
	}
}

func TestVAFileCoarseQuantizationStillExact(t *testing.T) {
	// 1 bit per dimension: bounds are very loose, results must still be
	// exact because phase 2 verifies candidates.
	pts := geom.NewPoints(3, 200)
	for i := 0; i < 200; i++ {
		if err := pts.Append(geom.Point{float64(i % 17), float64(i % 13), float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	coarse, err := vafile.New(pts, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := vafile.New(pts, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{3.5, 2.2, 1.1}
	a := coarse.NewCursor().KNNInto(nil, q, 7, index.ExcludeNone)
	b := fine.NewCursor().KNNInto(nil, q, 7, index.ExcludeNone)
	if len(a) != len(b) {
		t.Fatalf("len %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
