package indextest

import (
	"math"
	"math/rand"
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/linear"
)

// FuzzHeapVsSortOracle drives the bounded heap — the core of every kNN
// path — against the obvious oracle: sort all candidates by (distance,
// index) and truncate to k. Distances are quantized to a few levels so tie
// runs are long, the regime where heap tie-breaking bugs hide.
func FuzzHeapVsSortOracle(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint8(3))
	f.Add(int64(42), uint8(8), uint8(200), uint8(4))
	f.Add(int64(7), uint8(16), uint8(16), uint8(1))
	f.Add(int64(99), uint8(3), uint8(255), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, nRaw, levelsRaw uint8) {
		k := 1 + int(kRaw)%32
		n := int(nRaw)
		levels := 1 + int(levelsRaw)%8
		rng := rand.New(rand.NewSource(seed))

		h := index.NewHeap(k)
		all := make([]index.Neighbor, 0, n)
		for i := 0; i < n; i++ {
			nb := index.Neighbor{Index: i, Dist: float64(rng.Intn(levels))}
			all = append(all, nb)
			h.Push(nb)
		}
		got := h.AppendSorted(nil)

		oracle := append([]index.Neighbor(nil), all...)
		index.SortNeighbors(oracle)
		if len(oracle) > k {
			oracle = oracle[:k]
		}

		if len(got) != len(oracle) {
			t.Fatalf("heap kept %d, oracle %d (k=%d n=%d)", len(got), len(oracle), k, n)
		}
		for i := range got {
			if got[i] != oracle[i] {
				t.Fatalf("position %d: heap %v, oracle %v (k=%d n=%d levels=%d)",
					i, got[i], oracle[i], k, n, levels)
			}
		}
	})
}

// FuzzCursorVsSortOracle feeds random tie-heavy datasets through the full
// cursor kNN path of a real index and checks it against the sorted-scan
// oracle.
func FuzzCursorVsSortOracle(f *testing.F) {
	f.Add(int64(3), uint8(4), uint8(60), uint8(2))
	f.Add(int64(21), uint8(10), uint8(10), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, nRaw, dimRaw uint8) {
		k := 1 + int(kRaw)%16
		n := 1 + int(nRaw)%128
		dim := 1 + int(dimRaw)%4
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, n, dim)
		ix := linear.New(pts, geom.Euclidean{})
		cur := index.NewCursor(ix)

		q := make(geom.Point, dim)
		for d := range q {
			q[d] = rng.NormFloat64() * 8
		}
		exclude := index.ExcludeNone
		if rng.Intn(2) == 0 {
			exclude = rng.Intn(n)
			q = pts.At(exclude)
		}

		got := cur.KNNInto(nil, q, k, exclude)

		oracle := make([]index.Neighbor, 0, n)
		for i := 0; i < n; i++ {
			if i == exclude {
				continue
			}
			d := math.Sqrt(geom.SqDist(q, pts.At(i)))
			oracle = append(oracle, index.Neighbor{Index: i, Dist: d})
		}
		index.SortNeighbors(oracle)
		if len(oracle) > k {
			oracle = oracle[:k]
		}
		if !exactEqual(got, oracle) {
			t.Fatalf("cursor diverges from sort oracle:\n got %v\nwant %v", got, oracle)
		}
	})
}
