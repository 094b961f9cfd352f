package indextest

import (
	"fmt"
	"math/rand"
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
)

// BenchKNNCursor is the shared kNN micro-benchmark every index package
// runs: build once, then measure kNN query latency through a reused cursor
// and caller-owned buffer — the allocation-free hot path the
// materialization step runs on — over clustered data at a spread of sizes
// and dimensionalities.
func BenchKNNCursor(b *testing.B, build Builder) {
	b.Helper()
	for _, cfg := range []struct{ n, dim, k int }{
		{1000, 2, 10},
		{10000, 2, 10},
		{10000, 8, 10},
		{10000, 32, 10},
	} {
		b.Run(fmt.Sprintf("n=%d/d=%d/k=%d", cfg.n, cfg.dim, cfg.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(17))
			pts := geom.NewPoints(cfg.dim, cfg.n)
			for i := 0; i < cfg.n; i++ {
				p := make(geom.Point, cfg.dim)
				center := float64(rng.Intn(8)) * 10
				for d := range p {
					p[d] = center + rng.NormFloat64()
				}
				if err := pts.Append(p); err != nil {
					b.Fatal(err)
				}
			}
			ix := build(pts, geom.Euclidean{})
			queries := make([]geom.Point, 64)
			for qi := range queries {
				q := make(geom.Point, cfg.dim)
				center := float64(rng.Intn(8)) * 10
				for d := range q {
					q[d] = center + rng.NormFloat64()
				}
				queries[qi] = q
			}
			cur := index.NewCursor(ix)
			var dst []index.Neighbor
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = cur.KNNInto(dst[:0], queries[i%len(queries)], cfg.k, index.ExcludeNone)
				if len(dst) != cfg.k {
					b.Fatalf("got %d results", len(dst))
				}
			}
		})
	}
}

// BenchBuild measures index construction time.
func BenchBuild(b *testing.B, build Builder) {
	b.Helper()
	for _, cfg := range []struct{ n, dim int }{
		{10000, 2},
		{10000, 8},
	} {
		b.Run(fmt.Sprintf("n=%d/d=%d", cfg.n, cfg.dim), func(b *testing.B) {
			rng := rand.New(rand.NewSource(18))
			pts := geom.NewPoints(cfg.dim, cfg.n)
			for i := 0; i < cfg.n; i++ {
				p := make(geom.Point, cfg.dim)
				for d := range p {
					p[d] = rng.NormFloat64() * 10
				}
				if err := pts.Append(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ix := build(pts, geom.Euclidean{}); ix.Len() != cfg.n {
					b.Fatal("bad build")
				}
			}
		})
	}
}
