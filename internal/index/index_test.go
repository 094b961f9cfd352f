package index

import (
	"math/rand"
	"sort"
	"testing"

	"lof/internal/geom"
)

// panicCursor fails the test if any query reaches it, proving a guard
// short-circuited before touching the index.
type panicCursor struct{}

func (panicCursor) Index() Index { return nil }
func (panicCursor) KNNInto([]Neighbor, geom.Point, int, int) []Neighbor {
	panic("index: KNNInto called")
}
func (panicCursor) RangeInto([]Neighbor, geom.Point, float64, int) []Neighbor {
	panic("index: RangeInto called")
}

// KNNWithTies used to panic on non-positive k by indexing an empty kNN
// result; KNNWithTiesInto must leave dst untouched without issuing any
// query.
func TestKNNWithTiesNonPositiveK(t *testing.T) {
	prefix := []Neighbor{{Index: 1, Dist: 1}}
	for _, k := range []int{0, -1, -100} {
		if got := KNNWithTiesInto(panicCursor{}, nil, geom.Point{0}, k, ExcludeNone); got != nil {
			t.Fatalf("KNNWithTiesInto(k=%d)=%v, want nil", k, got)
		}
		if got := KNNWithTiesInto(panicCursor{}, prefix, geom.Point{0}, k, ExcludeNone); len(got) != 1 {
			t.Fatalf("KNNWithTiesInto(k=%d)=%v, want untouched prefix", k, got)
		}
	}
}

func TestHeapKeepsKSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(10)
		n := rng.Intn(100)
		h := NewHeap(k)
		all := make([]Neighbor, 0, n)
		for i := 0; i < n; i++ {
			nb := Neighbor{Index: i, Dist: float64(rng.Intn(20))}
			all = append(all, nb)
			h.Push(nb)
		}
		got := h.Sorted()
		SortNeighbors(all)
		want := all
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: len=%d want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got[%d]=%v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestHeapWorst(t *testing.T) {
	h := NewHeap(2)
	if _, full := h.Worst(); full {
		t.Fatal("empty heap reported full")
	}
	h.Push(Neighbor{Index: 0, Dist: 5})
	if _, full := h.Worst(); full {
		t.Fatal("half-full heap reported full")
	}
	h.Push(Neighbor{Index: 1, Dist: 3})
	if w, full := h.Worst(); !full || w != 5 {
		t.Fatalf("Worst=%v full=%v", w, full)
	}
	h.Push(Neighbor{Index: 2, Dist: 1})
	if w, _ := h.Worst(); w != 3 {
		t.Fatalf("Worst after improvement=%v", w)
	}
}

func TestHeapZeroK(t *testing.T) {
	h := NewHeap(0)
	h.Push(Neighbor{Index: 0, Dist: 1})
	if h.Len() != 0 {
		t.Fatalf("Len=%d", h.Len())
	}
	if got := h.Sorted(); len(got) != 0 {
		t.Fatalf("Sorted=%v", got)
	}
}

func TestHeapDeterministicTieBreak(t *testing.T) {
	// With equal distances the heap must keep the smallest indices.
	h := NewHeap(2)
	for _, i := range []int{5, 3, 9, 1, 7} {
		h.Push(Neighbor{Index: i, Dist: 2})
	}
	got := h.Sorted()
	if len(got) != 2 || got[0].Index != 1 || got[1].Index != 3 {
		t.Fatalf("got %v, want indices 1,3", got)
	}
}

func TestHeapSortedDrains(t *testing.T) {
	h := NewHeap(3)
	h.Push(Neighbor{Index: 0, Dist: 1})
	_ = h.Sorted()
	if h.Len() != 0 {
		t.Fatalf("Len after drain=%d", h.Len())
	}
}

func TestHeapResetReusesStorage(t *testing.T) {
	h := NewHeap(4)
	for i := 0; i < 8; i++ {
		h.Push(Neighbor{Index: i, Dist: float64(8 - i)})
	}
	h.Reset(2)
	h.Push(Neighbor{Index: 0, Dist: 3})
	h.Push(Neighbor{Index: 1, Dist: 1})
	h.Push(Neighbor{Index: 2, Dist: 2})
	got := h.Sorted()
	if len(got) != 2 || got[0].Index != 1 || got[1].Index != 2 {
		t.Fatalf("after Reset: %v", got)
	}
	// Regrow beyond the original capacity.
	h.Reset(16)
	for i := 0; i < 20; i++ {
		h.Push(Neighbor{Index: i, Dist: float64(i)})
	}
	if h.Len() != 16 {
		t.Fatalf("Len after regrow=%d", h.Len())
	}
}

func TestHeapAppendSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(8)
		h := NewHeap(k)
		var all []Neighbor
		for i := 0; i < rng.Intn(40); i++ {
			nb := Neighbor{Index: i, Dist: float64(rng.Intn(10))}
			all = append(all, nb)
			h.Push(nb)
		}
		prefix := Neighbor{Index: -1, Dist: -1}
		got := h.AppendSorted([]Neighbor{prefix})
		if got[0] != prefix {
			t.Fatalf("trial %d: prefix clobbered: %v", trial, got[0])
		}
		SortNeighbors(all)
		want := all
		if len(want) > k {
			want = want[:k]
		}
		if len(got)-1 != len(want) {
			t.Fatalf("trial %d: len=%d want %d", trial, len(got)-1, len(want))
		}
		for i := range want {
			if got[i+1] != want[i] {
				t.Fatalf("trial %d: got[%d]=%v want %v", trial, i, got[i+1], want[i])
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: heap not drained, Len=%d", trial, h.Len())
		}
	}
}

func TestSorterMatchesSortNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Sorter
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(50)
		a := make([]Neighbor, n)
		for i := range a {
			a[i] = Neighbor{Index: rng.Intn(10), Dist: float64(rng.Intn(5))}
		}
		b := append([]Neighbor(nil), a...)
		SortNeighbors(a)
		s.Sort(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: Sorter diverges at %d: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestSortNeighbors(t *testing.T) {
	ns := []Neighbor{{3, 2}, {1, 2}, {2, 1}}
	SortNeighbors(ns)
	want := []Neighbor{{2, 1}, {1, 2}, {3, 2}}
	for i := range ns {
		if ns[i] != want[i] {
			t.Fatalf("ns=%v", ns)
		}
	}
	if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i].Dist < ns[j].Dist }) {
		t.Fatal("not sorted by distance")
	}
}
