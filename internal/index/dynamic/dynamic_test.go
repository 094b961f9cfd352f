package dynamic

import (
	"math"
	"math/rand"
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
)

// naiveKNN is the oracle: a scan over live slots with (distance, index)
// tie-breaks, exactly what the dynamic index must reproduce bit for bit.
func naiveKNN(ix *Index, q geom.Point, k, exclude int) []index.Neighbor {
	var all []index.Neighbor
	for i := 0; i < ix.Size(); i++ {
		if i == exclude || ix.Deleted(i) {
			continue
		}
		all = append(all, index.Neighbor{Index: i, Dist: ix.Metric().Distance(q, ix.At(i))})
	}
	index.SortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func naiveRange(ix *Index, q geom.Point, r float64, exclude int) []index.Neighbor {
	var all []index.Neighbor
	for i := 0; i < ix.Size(); i++ {
		if i == exclude || ix.Deleted(i) {
			continue
		}
		if d := ix.Metric().Distance(q, ix.At(i)); d <= r {
			all = append(all, index.Neighbor{Index: i, Dist: d})
		}
	}
	index.SortNeighbors(all)
	return all
}

func equalNeighbors(a, b []index.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// TestRandomOpsMatchNaive drives a random insert/delete mix (forcing many
// rebuilds) and checks every query shape against the scan oracle after
// each step.
func TestRandomOpsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ix := New(2, nil)
	cur := ix.NewCursor()
	var liveSlots []int
	for step := 0; step < 600; step++ {
		if len(liveSlots) > 0 && rng.Float64() < 0.3 {
			j := rng.Intn(len(liveSlots))
			victim := liveSlots[j]
			if err := ix.Delete(victim); err != nil {
				t.Fatal(err)
			}
			liveSlots = append(liveSlots[:j], liveSlots[j+1:]...)
		} else {
			p := geom.Point{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
			if rng.Float64() < 0.1 { // duplicate-heavy pocket
				p = geom.Point{1, 1}
			}
			slot, err := ix.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			liveSlots = append(liveSlots, slot)
		}
		if step%7 != 0 || len(liveSlots) == 0 {
			continue
		}
		q := geom.Point{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		k := 1 + rng.Intn(8)
		exclude := index.ExcludeNone
		if rng.Float64() < 0.5 {
			exclude = liveSlots[rng.Intn(len(liveSlots))]
			q = ix.At(exclude).Clone()
		}
		got := cur.KNNInto(nil, q, k, exclude)
		want := naiveKNN(ix, q, k, exclude)
		if !equalNeighbors(got, want) {
			t.Fatalf("step %d: KNN(k=%d, exclude=%d) = %v, want %v", step, k, exclude, got, want)
		}
		if len(want) > 0 {
			r := want[len(want)-1].Dist
			gotR := cur.RangeInto(nil, q, r, exclude)
			wantR := naiveRange(ix, q, r, exclude)
			if !equalNeighbors(gotR, wantR) {
				t.Fatalf("step %d: Range(r=%v) = %v, want %v", step, r, gotR, wantR)
			}
		}
	}
	if ix.Len() != len(liveSlots) {
		t.Fatalf("Len=%d, want %d", ix.Len(), len(liveSlots))
	}
}

// TestTombstoneBacklogOverfetch pins the over-fetch invariant: deleting
// base points between rebuilds must not starve kNN results.
func TestTombstoneBacklogOverfetch(t *testing.T) {
	ix := New(1, nil)
	for i := 0; i < 100; i++ {
		if _, err := ix.Insert(geom.Point{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ix.Rebuild()
	// Tombstone the 10 nearest slots to the query point without triggering
	// a rebuild (10 < 100/2).
	for i := 0; i < 10; i++ {
		if err := ix.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	got := ix.NewCursor().KNNInto(nil, geom.Point{0}, 5, index.ExcludeNone)
	want := naiveKNN(ix, geom.Point{0}, 5, index.ExcludeNone)
	if !equalNeighbors(got, want) {
		t.Fatalf("KNN after base tombstones = %v, want %v", got, want)
	}
	if got[0].Index != 10 {
		t.Fatalf("nearest live slot = %d, want 10", got[0].Index)
	}
}

// TestInsertCopiesCoordinates proves the index does not retain the
// caller's slice: mutating the buffer after Insert changes nothing.
func TestInsertCopiesCoordinates(t *testing.T) {
	ix := New(2, nil)
	buf := geom.Point{1, 2}
	slot, err := ix.Insert(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[0], buf[1] = 99, 99
	if p := ix.At(slot); p[0] != 1 || p[1] != 2 {
		t.Fatalf("stored point %v follows caller mutation", p)
	}
}

func TestDeleteValidation(t *testing.T) {
	ix := New(2, nil)
	if err := ix.Delete(0); err == nil {
		t.Error("out-of-range delete accepted")
	}
	slot, err := ix.Insert(geom.Point{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(slot); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(slot); err == nil {
		t.Error("double delete accepted")
	}
	if !ix.Deleted(slot) || ix.Deleted(-1) != true || ix.Deleted(99) != true {
		t.Error("Deleted bounds semantics wrong")
	}
	if _, err := ix.Insert(geom.Point{math.NaN(), 0}); err == nil {
		t.Error("NaN coordinate accepted")
	}
}

// TestManhattanMetric exercises the non-default metric path through base
// and overlay alike.
func TestManhattanMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ix := New(3, geom.Manhattan{})
	cur := ix.NewCursor()
	for i := 0; i < 200; i++ {
		if _, err := ix.Insert(geom.Point{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 20; trial++ {
		q := geom.Point{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		got := cur.KNNInto(nil, q, 7, index.ExcludeNone)
		if want := naiveKNN(ix, q, 7, index.ExcludeNone); !equalNeighbors(got, want) {
			t.Fatalf("trial %d: %v != %v", trial, got, want)
		}
	}
}
