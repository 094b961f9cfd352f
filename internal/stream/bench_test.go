package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"lof/internal/dataset"
	"lof/internal/geom"
)

// benchPoints draws n points from two Gaussian clusters, the workload
// shape the rest of the repo benchmarks with.
func benchPoints(rng *rand.Rand, n, dim int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		off := 0.0
		if i%2 == 1 {
			off = 10
		}
		for d := range p {
			p[d] = off + rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// primedPipeline returns a pipeline whose sliding window is full, so the
// timed region measures steady-state churn (every insert also expires),
// not the cheap fill-up phase.
func primedPipeline(b *testing.B, window, dim int) *Pipeline {
	b.Helper()
	p, err := New(Config{Dim: dim, MinPts: 10, MaxPoints: window})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	prime := benchPoints(rng, window, dim)
	for off := 0; off < len(prime); off += 128 {
		end := off + 128
		if end > len(prime) {
			end = len(prime)
		}
		if _, err := p.Apply(Update{Inserts: prime[off:end]}); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

// BenchmarkStreamIngest measures steady-state ingestion: one Apply batch
// of 32 inserts per op against a full sliding window, so each batch also
// expires 32 points and republishes the epoch. Ops cycle through a pool of
// 64 distinct batches: re-inserting one batch would fill the window with
// copies of 32 points, a tie-degenerate state no stream reaches. The
// custom inserts/s metric is the sustained ingest rate the streaming
// serving tier can promise.
func BenchmarkStreamIngest(b *testing.B) {
	const dim, batch, pool = 4, 32, 64
	for _, window := range []int{256, 1024} {
		b.Run(fmt.Sprintf("window=%d/batch=%d", window, batch), func(b *testing.B) {
			p := primedPipeline(b, window, dim)
			rng := rand.New(rand.NewSource(29))
			fresh := benchPoints(rng, pool*batch, dim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := i % pool * batch
				if _, err := p.Apply(Update{Inserts: fresh[off : off+batch]}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "inserts/s")
		})
	}
}

// BenchmarkStreamPrime measures filling an empty pipeline: a 2,000-point
// 4-d window at MinPts 10 in 250-point pushes of clustered points in
// random order, the priming lofbench's stream-churn workload times as
// setup_s, here without the HTTP tier. One op is one full priming.
func BenchmarkStreamPrime(b *testing.B) {
	const window, dim, push = 2000, 4, 250
	src := dataset.RandomClusters(1, window, dim, 8).Points
	pts := make([]geom.Point, window)
	for i := range pts {
		pts[i] = src.At(i)
	}
	rand.New(rand.NewSource(3)).Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(Config{Dim: dim, MinPts: 10, MaxPoints: window})
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < window; off += push {
			if _, err := p.Apply(Update{Inserts: pts[off : off+push]}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamScore measures out-of-sample scoring against a published
// epoch, the read path that must stay bounded while ingestion churns.
func BenchmarkStreamScore(b *testing.B) {
	const dim = 4
	for _, window := range []int{256, 1024} {
		b.Run(fmt.Sprintf("window=%d/batch=16", window), func(b *testing.B) {
			p := primedPipeline(b, window, dim)
			rng := rand.New(rand.NewSource(31))
			queries := benchPoints(rng, 16, dim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.ScoreBatch(queries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
