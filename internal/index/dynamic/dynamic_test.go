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

// TestTombstoneBacklogOverfetch pins that tombstones cannot starve a kNN
// result: the base probe skips base points deleted since the rebuild
// inside the tree traversal, so it still returns k live points.
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

// FuzzDynamicOps drives insert, delete, Rebuild, kNN and range operations
// over tie-heavy points — a few integer sites in 1-d or 2-d, so duplicates
// and equal distances are everywhere — and checks every query against the
// naive live scan. Each byte is one op: the top three bits pick it (0–2
// insert), the low five its argument. The seeds grow the store past a
// reallocation of its slot arrays after a rebuild and then delete base
// slots: a tombstone mask captured when the base was built would miss
// those deletes.
func FuzzDynamicOps(f *testing.F) {
	const (
		opDelete   = 3 << 5
		opRebuild  = 4 << 5
		opKNN      = 5 << 5
		opKNNSelf  = 6 << 5
		opRange    = 7 << 5
		growInsert = 40 // a rebuild at 32 slots, then appends re-back the arrays
	)
	grown := func(tail ...byte) []byte {
		ops := make([]byte, 0, growInsert+len(tail))
		for i := 0; i < growInsert; i++ {
			ops = append(ops, byte(i%32)) // insert at site i%32
		}
		return append(ops, tail...)
	}
	baseDeletes := []byte{opDelete, opDelete, opDelete, opDelete, opDelete, opDelete}
	queries := []byte{opKNN, opKNN | 3, opKNN | 17, opKNNSelf | 2, opKNNSelf | 9, opRange, opRange | 5, opRange | 22}
	f.Add(uint8(0), grown(append(baseDeletes, queries...)...))
	f.Add(uint8(1), grown(append(baseDeletes, queries...)...))
	f.Add(uint8(1), grown(append(append([]byte{opRebuild, 1, 2}, baseDeletes...), queries...)...))
	f.Add(uint8(0), []byte{0, 0, 1, opKNN, opDelete, opKNN, opRebuild, opKNNSelf, opRange | 1})
	f.Fuzz(func(t *testing.T, dim uint8, ops []byte) {
		d := 1 + int(dim%2)
		site := func(arg byte) geom.Point {
			if d == 1 {
				return geom.Point{float64(arg % 8)}
			}
			return geom.Point{float64(arg & 3), float64(arg >> 2 & 3)}
		}
		ix := New(d, nil)
		cur := ix.NewCursor()
		var live []int
		for step, b := range ops {
			arg := b & 0x1f
			q, k, exclude := site(arg), 1+int(arg)%5, index.ExcludeNone
			switch b &^ 0x1f {
			case opDelete:
				if len(live) == 0 {
					continue
				}
				j := int(arg) % len(live)
				if err := ix.Delete(live[j]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:j], live[j+1:]...)
				continue
			case opRebuild:
				ix.Rebuild()
				continue
			case opKNNSelf:
				if len(live) == 0 {
					continue
				}
				exclude = live[int(arg)%len(live)]
				q = ix.At(exclude)
				fallthrough
			case opKNN:
				got := cur.KNNInto(nil, q, k, exclude)
				if want := naiveKNN(ix, q, k, exclude); !equalNeighbors(got, want) {
					t.Fatalf("op %d: KNN(%v, k=%d, exclude=%d) = %v, want %v", step, q, k, exclude, got, want)
				}
				continue
			case opRange:
				r := float64(arg%3) / 2
				got := cur.RangeInto(nil, q, r, exclude)
				if want := naiveRange(ix, q, r, exclude); !equalNeighbors(got, want) {
					t.Fatalf("op %d: Range(%v, r=%v) = %v, want %v", step, q, r, got, want)
				}
				continue
			}
			slot, err := ix.Insert(site(arg))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, slot)
		}
		if ix.Len() != len(live) {
			t.Fatalf("Len=%d, want %d", ix.Len(), len(live))
		}
	})
}
