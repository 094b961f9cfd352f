package index_test

import (
	"sync"
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/linear"
)

func TestCountingDelegatesAndCounts(t *testing.T) {
	pts, err := geom.FromSlice([]float64{0, 0, 1, 0, 2, 0, 10, 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := linear.New(pts, geom.Euclidean{})
	c := index.NewCounting(base)
	if c.Len() != base.Len() {
		t.Fatalf("Len = %d, want %d", c.Len(), base.Len())
	}
	if c.Unwrap() != index.Index(base) {
		t.Fatal("Unwrap did not return the wrapped index")
	}

	q := pts.At(0)
	got := c.NewCursor().KNNInto(nil, q, 2, 0)
	want := base.NewCursor().KNNInto(nil, q, 2, 0)
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("KNN through wrapper = %v, want %v", got, want)
	}
	_ = c.NewCursor().RangeInto(nil, q, 2.5, index.ExcludeNone)
	_ = c.NewCursor().KNNInto(nil, q, 1, index.ExcludeNone)
	if c.KNNQueries() != 2 || c.RangeQueries() != 1 {
		t.Fatalf("counters knn=%d range=%d, want 2/1", c.KNNQueries(), c.RangeQueries())
	}
}

func TestCountingConcurrent(t *testing.T) {
	pts, err := geom.FromSlice([]float64{0, 0, 1, 1, 2, 2, 3, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := index.NewCounting(linear.New(pts, geom.Euclidean{}))
	const goroutines = 8
	const queries = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				_ = c.NewCursor().KNNInto(nil, pts.At(i%pts.Len()), 2, index.ExcludeNone)
			}
		}()
	}
	wg.Wait()
	if c.KNNQueries() != goroutines*queries {
		t.Fatalf("knn count = %d, want %d", c.KNNQueries(), goroutines*queries)
	}
}

func TestCountingNil(t *testing.T) {
	if c := index.NewCounting(nil); c != nil {
		t.Fatalf("NewCounting(nil) = %v, want nil", c)
	}
}
