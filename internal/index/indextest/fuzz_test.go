package indextest

import (
	"fmt"
	"math/rand"
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/dynamic"
	"lof/internal/index/kdtree"
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
// cursor paths of real indexes and checks them, bit for bit, against a
// sort of Metric.Distance over the points a query may return. The linear
// scan runs on mixed data under Euclidean. The k-d tree (KNNInto,
// KNNLiveInto under a random tombstone mask, RangeLiveInto) and the
// dynamic index (KNNInto and RangeInto over a base and an overlay, with
// deletions) run on small integer lattices under each product metric,
// where distances tie at the heap's worst and at the radius: the regime
// in which a candidate or a cell pruned at its bound instead of beyond it
// changes the answer.
func FuzzCursorVsSortOracle(f *testing.F) {
	f.Add(int64(3), uint8(4), uint8(60), uint8(2))
	f.Add(int64(21), uint8(10), uint8(10), uint8(3))
	f.Add(int64(5), uint8(7), uint8(120), uint8(1))
	f.Add(int64(8), uint8(15), uint8(127), uint8(3))
	f.Add(int64(13), uint8(2), uint8(90), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, nRaw, dimRaw uint8) {
		k := 1 + int(kRaw)%16
		n := 1 + int(nRaw)%128
		dim := 1 + int(dimRaw)%4
		rng := rand.New(rand.NewSource(seed))

		pts := randomPoints(rng, n, dim)
		q := make(geom.Point, dim)
		for d := range q {
			q[d] = rng.NormFloat64() * 8
		}
		exclude := index.ExcludeNone
		if rng.Intn(2) == 0 {
			exclude = rng.Intn(n)
			q = pts.At(exclude)
		}
		lin := index.NewCursor(linear.New(pts, geom.Euclidean{}))
		checkOracle(t, "linear KNNInto", lin.KNNInto(nil, q, k, exclude),
			firstK(sortOracle(pts, geom.Euclidean{}, q, exclude, nil), k))

		lat := geom.NewPoints(dim, n)
		side := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			p := make(geom.Point, dim)
			for d := range p {
				p[d] = float64(rng.Intn(side))
			}
			if err := lat.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		dead := make([]bool, n)
		for i := range dead {
			dead[i] = rng.Intn(4) == 0
		}
		ws := make([]float64, dim)
		for d := range ws {
			ws[d] = []float64{0, 0.5, 1, 2}[rng.Intn(4)]
		}
		ws[0] = 1
		wm, err := geom.NewWeightedEuclidean(ws)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []geom.Metric{geom.Euclidean{}, geom.Manhattan{}, geom.Chebyshev{}, wm} {
			// Queries sit on the lattice (a data point, self-excluded or
			// not) or at the centre of a lattice cell.
			q := make(geom.Point, dim)
			exclude := index.ExcludeNone
			switch rng.Intn(3) {
			case 0:
				exclude = rng.Intn(n)
				copy(q, lat.At(exclude))
			case 1:
				copy(q, lat.At(rng.Intn(n)))
			default:
				for d := range q {
					q[d] = float64(rng.Intn(side)) + 0.5
				}
			}
			all := sortOracle(lat, m, q, exclude, nil)
			live := sortOracle(lat, m, q, exclude, dead)
			r := 0.0
			if len(all) > 0 {
				r = all[rng.Intn(len(all))].Dist
			}
			name := func(op string) string {
				return fmt.Sprintf("%s %s (k=%d r=%v q=%v exclude=%d)", op, m.Name(), k, r, q, exclude)
			}

			kd := kdtree.New(lat, m).NewCursor().(*kdtree.Cursor)
			checkOracle(t, name("kdtree KNNInto"), kd.KNNInto(nil, q, k, exclude), firstK(all, k))
			checkOracle(t, name("kdtree KNNLiveInto"), kd.KNNLiveInto(nil, q, k, exclude, dead), firstK(live, k))
			checkOracle(t, name("kdtree RangeLiveInto"), kd.RangeLiveInto(nil, q, r, exclude, dead), withinR(live, r))

			dyn := dynamic.New(dim, m)
			split := rng.Intn(n + 1)
			for i := 0; i < n; i++ {
				if i == split {
					dyn.Rebuild()
				}
				if _, err := dyn.Insert(lat.At(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i, gone := range dead {
				if gone {
					if err := dyn.Delete(i); err != nil {
						t.Fatal(err)
					}
				}
			}
			dc := dyn.NewCursor()
			checkOracle(t, name("dynamic KNNInto"), dc.KNNInto(nil, q, k, exclude), firstK(live, k))
			checkOracle(t, name("dynamic RangeInto"), dc.RangeInto(nil, q, r, exclude), withinR(live, r))
		}
	})
}

// sortOracle returns every point of pts but exclude and the dead ones (dead
// may be nil), at its Metric.Distance from q, in (distance, index) order.
func sortOracle(pts *geom.Points, m geom.Metric, q geom.Point, exclude int, dead []bool) []index.Neighbor {
	var out []index.Neighbor
	for i := 0; i < pts.Len(); i++ {
		if i == exclude || (dead != nil && dead[i]) {
			continue
		}
		out = append(out, index.Neighbor{Index: i, Dist: m.Distance(q, pts.At(i))})
	}
	index.SortNeighbors(out)
	return out
}

// firstK is the oracle's kNN answer: its first k entries.
func firstK(ns []index.Neighbor, k int) []index.Neighbor { return ns[:min(k, len(ns))] }

// withinR is the oracle's range answer: its entries at distance at most r.
func withinR(ns []index.Neighbor, r float64) []index.Neighbor {
	n := 0
	for n < len(ns) && ns[n].Dist <= r {
		n++
	}
	return ns[:n]
}

func checkOracle(t *testing.T, what string, got, want []index.Neighbor) {
	t.Helper()
	if !exactEqual(got, want) {
		t.Fatalf("%s diverges from the sort oracle:\n got %v\nwant %v", what, got, want)
	}
}
