// Package index defines the k-nearest-neighbor query interface that the
// LOF materialization step is built on, together with shared helpers for
// implementations. The paper evaluates three regimes (Sec. 7.4): a grid
// for low-dimensional data (constant-time kNN), a tree index for medium
// dimensionality (the paper uses an X-tree variant), and a sequential scan
// or VA-file for high-dimensional data. Subpackages provide one exact
// implementation per regime; all of them satisfy Index and return identical
// results, which the contract tests in indextest verify.
package index

import (
	"math"
	"sort"

	"lof/internal/geom"
)

// Neighbor is one kNN query result: the index of a data point and its
// distance from the query.
type Neighbor struct {
	// Index identifies the point within the indexed dataset.
	Index int
	// Dist is the distance from the query point under the index's metric.
	Dist float64
}

// Index answers exact nearest-neighbor and range queries over a fixed
// dataset through cursors. Implementations are immutable after
// construction and safe for concurrent use, one cursor per goroutine.
type Index interface {
	// Len returns the number of indexed points.
	Len() int
	// Metric returns the distance metric the index was built with.
	Metric() geom.Metric
	// NewCursor returns a fresh cursor over the index.
	NewCursor() Cursor
}

// ExcludeNone disables self-exclusion in kNN and range queries.
const ExcludeNone = -1

// byDistIndex implements sort.Interface over neighbors in the canonical
// (distance, index) order. A named slice type instead of sort.Slice keeps
// the per-call closure and reflect-based swapper off the query hot path.
type byDistIndex []Neighbor

func (ns byDistIndex) Len() int { return len(ns) }
func (ns byDistIndex) Less(i, j int) bool {
	if ns[i].Dist != ns[j].Dist {
		return ns[i].Dist < ns[j].Dist
	}
	return ns[i].Index < ns[j].Index
}
func (ns byDistIndex) Swap(i, j int) { ns[i], ns[j] = ns[j], ns[i] }

// SortNeighbors orders ns by (distance, index), the canonical result order.
func SortNeighbors(ns []Neighbor) {
	sort.Sort(byDistIndex(ns))
}

// Sorter sorts neighbor slices through a reusable sort.Interface value.
// Cursors embed one so result sorting performs no per-query allocation:
// sort.Sort takes a pointer to the embedded struct, which never escapes
// anew, unlike the interface conversion in SortNeighbors.
type Sorter struct {
	ns byDistIndex
}

// Len, Less and Swap implement sort.Interface over the staged slice.
func (s *Sorter) Len() int           { return s.ns.Len() }
func (s *Sorter) Less(i, j int) bool { return s.ns.Less(i, j) }
func (s *Sorter) Swap(i, j int)      { s.ns.Swap(i, j) }

// Sort orders ns by (distance, index) without allocating.
func (s *Sorter) Sort(ns []Neighbor) {
	s.ns = ns
	sort.Sort(s)
	s.ns = nil
}

// Heap is a bounded max-heap of neighbor candidates used by k-NN searches:
// it keeps the k smallest distances seen so far, with the largest of them
// at the root for O(1) pruning checks.
type Heap struct {
	k  int
	ns []Neighbor
}

// NewHeap returns a heap that retains the k closest candidates.
func NewHeap(k int) *Heap {
	return &Heap{k: k}
}

// Reset empties the heap and retargets it to the k closest candidates,
// keeping the backing storage so cursors can reuse one heap across queries
// without allocating. Storage grows with the candidates actually pushed,
// never with k itself: k comes from callers (a stream's MinPts) and may
// far exceed the number of indexed points.
func (h *Heap) Reset(k int) {
	h.k = k
	h.ns = h.ns[:0]
}

// Len returns the number of candidates currently held.
func (h *Heap) Len() int { return len(h.ns) }

// Full reports whether k candidates are held.
func (h *Heap) Full() bool { return len(h.ns) >= h.k }

// Worst returns the largest retained distance, or +Inf semantics via
// ok=false when the heap is not yet full (callers must not prune then).
func (h *Heap) Worst() (float64, bool) {
	if !h.Full() {
		return 0, false
	}
	return h.root(), true
}

func (h *Heap) root() float64 { return h.ns[0].Dist }

// Threshold returns kern's reduced threshold of the worst retained
// distance, or +Inf while fewer than k candidates are held: a candidate
// whose reduced distance exceeds it is one Push would refuse.
func (h *Heap) Threshold(kern *geom.Kernel) float64 {
	if !h.Full() {
		return math.Inf(1)
	}
	return kern.Threshold(h.root())
}

// less orders candidates so the "worst" (max distance, then max index) is
// at the root; using the index as a tiebreak makes results deterministic.
func (h *Heap) less(i, j int) bool {
	if h.ns[i].Dist != h.ns[j].Dist {
		return h.ns[i].Dist > h.ns[j].Dist
	}
	return h.ns[i].Index > h.ns[j].Index
}

// Push offers a candidate; it is ignored when k candidates closer than it
// are already held.
func (h *Heap) Push(n Neighbor) {
	if h.k == 0 {
		return
	}
	if !h.Full() {
		h.ns = append(h.ns, n)
		h.up(len(h.ns) - 1)
		return
	}
	// Replace the root if the candidate is strictly better.
	if n.Dist > h.ns[0].Dist || (n.Dist == h.ns[0].Dist && n.Index > h.ns[0].Index) {
		return
	}
	h.ns[0] = n
	h.down(0)
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ns[i], h.ns[parent] = h.ns[parent], h.ns[i]
		i = parent
	}
}

func (h *Heap) down(i int) { h.downTo(i, len(h.ns)) }

// downTo sifts element i down within the heap prefix h.ns[:n].
func (h *Heap) downTo(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.ns[i], h.ns[best] = h.ns[best], h.ns[i]
		i = best
	}
}

// AppendSorted drains the heap into dst ordered by (distance, index) and
// returns the extended slice. The ordering is produced by an in-place
// heapsort of the heap's own storage — repeatedly moving the worst
// candidate to the end yields ascending (distance, index) order, since the
// heap roots the maximum under exactly that comparison — so draining
// performs no allocation beyond growing dst.
func (h *Heap) AppendSorted(dst []Neighbor) []Neighbor {
	for end := len(h.ns) - 1; end > 0; end-- {
		h.ns[0], h.ns[end] = h.ns[end], h.ns[0]
		h.downTo(0, end)
	}
	dst = append(dst, h.ns...)
	h.ns = h.ns[:0]
	return dst
}

// Sorted drains the heap into a fresh slice ordered by (distance, index).
func (h *Heap) Sorted() []Neighbor {
	if len(h.ns) == 0 {
		return nil
	}
	return h.AppendSorted(make([]Neighbor, 0, len(h.ns)))
}
