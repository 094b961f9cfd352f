// Package incremental maintains exact LOF values under point insertions
// and deletions — the paper's second "ongoing work" direction ("to further
// improve the performance of LOF computation"). Instead of recomputing the
// whole database, an update touches only the affected neighborhoods: the
// changed point's reverse k-nearest neighbors (whose k-distances shift),
// the points whose local reachability density depends on those
// k-distances, and the points whose LOF depends on those densities. All
// values stay exactly equal to a from-scratch batch computation, which the
// tests verify after every update.
//
// Cost model: a batch of updates (Update; Insert and Delete are batches of
// one) costs one pass over the slots, two over the maintained
// neighborhoods and one kNN probe per point whose neighborhood changed,
// however many points it inserts and deletes. The points whose
// neighborhood loses a deleted point hold a tombstoned slot in their row;
// the points whose neighborhood absorbs a new point p are the o with
// d(o,p) ≤ kdist(o) against the pre-batch k-distances. The one pass over
// the slots flags both, and each flagged point and each new point is
// re-probed once through a dynamic spatial index
// (internal/index/dynamic: immutable k-d tree base plus overlay and
// tombstones). The points whose density or LOF reads a changed k-distance
// or density are the o with a changed point in nn[o]: one pass over the
// maintained neighborhoods per kind of change. The passes sweep flat
// arrays and allocate nothing; the dirty sets are generation-stamped and
// owned by the detector. A second detector that held the same state
// follows an update with Mirror: the batch's index mutations and a copy of
// the derived values, no probe.
//
// Scoring writes no arithmetic of its own. Densities and LOFs are
// refreshed with core.LRD and core.LOF, the batch sweep's per-point
// bodies. An out-of-sample score (ScoreAt) is core.EvalAt — the evaluator
// fitted models score queries with, in process and sharded — over the
// query's probed neighborhood and the maintained neighborhoods, which
// matdb.RowBuf.Merge splices the query into exactly as it merges a fitted
// database's stored rows.
package incremental

import (
	"fmt"
	"math"

	"lof/internal/core"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/dynamic"
	"lof/internal/matdb"
)

// Detector is a dynamic (insert/delete) LOF maintenance structure. It is
// not safe for concurrent mutation; read-only scoring against a quiescent
// detector is safe from many goroutines via ScoreAtCursor (the epoch layer
// in internal/stream builds exactly that discipline on top).
type Detector struct {
	minPts int
	metric geom.Metric

	// ix owns the point storage and tombstones; slot indices are stable
	// across all mutations and compact only via Compact.
	ix *dynamic.Index
	// cur is the writer-owned query cursor over ix.
	cur index.Cursor

	// nn[i] is point i's MinPts-distance neighborhood (with ties), sorted
	// by (distance, index). Empty until at least minPts+1 points exist.
	nn    [][]index.Neighbor
	kdist []float64
	lrd   []float64
	lof   []float64

	// lastAffected records how many points the most recent update
	// touched, for observability and the locality tests.
	lastAffected int

	// One update's sets: dirty holds the points whose density and LOF
	// are refreshed, kdistChanged and lrdChanged the points whose
	// k-distance or density moved.
	dirty, kdistChanged, lrdChanged stampSet

	// scratch stages one neighborhood per recomputeNeighborhood call.
	scratch []index.Neighbor
}

// stampSet is a set of slots that empties in O(1): a slot is a member when
// its stamp equals the current generation.
type stampSet struct {
	gen   uint32
	stamp []uint32
	list  []int
}

// reset empties the set and sizes it for slots [0, n).
func (s *stampSet) reset(n int) {
	if len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
	s.gen++
	if s.gen == 0 { // wrapped: old stamps could collide
		clear(s.stamp)
		s.gen = 1
	}
	s.list = s.list[:0]
}

func (s *stampSet) has(i int) bool { return s.stamp[i] == s.gen }

func (s *stampSet) add(i int) {
	if s.stamp[i] != s.gen {
		s.stamp[i] = s.gen
		s.list = append(s.list, i)
	}
}

// maxMinPts is the largest MinPts New accepts. A stream's MinPts arrives
// in a request; capping it keeps the kNN probe's k+1 and the evaluators'
// MinPts loops far from int overflow.
const maxMinPts = math.MaxInt32

// New creates an empty incremental detector. dim is the dimensionality of
// all future points; minPts as in the batch algorithm, at most 2^31−1.
func New(dim, minPts int, m geom.Metric) (*Detector, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("incremental: dim must be positive, got %d", dim)
	}
	if minPts < 1 || minPts > maxMinPts {
		return nil, fmt.Errorf("incremental: MinPts must be in [1, %d], got %d", maxMinPts, minPts)
	}
	if m == nil {
		m = geom.Euclidean{}
	}
	ix := dynamic.New(dim, m)
	return &Detector{minPts: minPts, metric: m, ix: ix, cur: ix.NewCursor()}, nil
}

// Len returns the number of live (inserted and not deleted) points.
func (d *Detector) Len() int { return d.ix.Len() }

// Size returns the number of slots ever allocated, including tombstones;
// point indices run over [0, Size).
func (d *Detector) Size() int { return d.ix.Size() }

// Dim returns the dimensionality of the detector's points.
func (d *Detector) Dim() int { return d.ix.Dim() }

// MinPts returns the MinPts value the detector maintains LOFs at.
func (d *Detector) MinPts() int { return d.minPts }

// Metric returns the detector's distance metric.
func (d *Detector) Metric() geom.Metric { return d.metric }

// At returns a view of slot i's coordinates (deleted slots keep their last
// coordinates); callers must not modify it.
func (d *Detector) At(i int) geom.Point { return d.ix.At(i) }

// Deleted reports whether index i does not hold a live point: removed
// points and out-of-range indices both report true.
func (d *Detector) Deleted(i int) bool { return d.ix.Deleted(i) }

// LastAffected returns how many points the most recent update touched
// (neighborhood, density or LOF), counting every point it inserted or
// deleted.
func (d *Detector) LastAffected() int { return d.lastAffected }

// LOF returns point i's current LOF (NaN for deleted points and
// out-of-range indices, matching the documented "no such live point"
// behavior instead of panicking). Before minPts+1 points exist, every LOF
// is 1 (no meaningful neighborhood).
func (d *Detector) LOF(i int) float64 {
	if d.Deleted(i) {
		return math.NaN()
	}
	return d.lof[i]
}

// LOFs returns a copy of all current LOF values, indexed by insertion
// order; deleted slots hold NaN.
func (d *Detector) LOFs() []float64 {
	out := make([]float64, len(d.lof))
	for i := range d.lof {
		out[i] = d.LOF(i)
	}
	return out
}

// Insert adds p and updates all affected LOF values. It returns the new
// point's index. The coordinates are copied on insert (geom.Points.Append
// clones into the detector's storage), so the caller may reuse or mutate
// p's backing array after Insert returns without affecting any score.
func (d *Detector) Insert(p geom.Point) (int, error) {
	return d.Update([]geom.Point{p}, nil)
}

// Delete removes point i, updating all affected LOF values. Deleted slots
// keep their index (subsequent points do not shift) and report NaN; the
// raw LOF slot is also set to NaN so no stale pre-delete value survives.
func (d *Detector) Delete(i int) error {
	_, err := d.Update(nil, []int{i})
	return err
}

// Update applies one batch: it appends inserts as slots first, first+1, …
// (first is Size before the call) and deletes the slots in deletes, each
// live or inserted by this call. The batch is validated whole before
// anything changes — coordinates finite and of the detector's dimension,
// no slot deleted twice — so an error leaves the detector untouched. The
// coordinates are copied. Afterwards every live value is exactly what a
// batch fit over the live points gives, as after the same updates one by
// one, but each changed neighborhood is re-probed once per batch and the
// density and LOF refresh runs once.
func (d *Detector) Update(inserts []geom.Point, deletes []int) (first int, err error) {
	first, err = d.check(inserts, deletes)
	if err != nil {
		return 0, err
	}
	end := first + len(inserts)
	before := d.ix.Len()
	d.mutate(inserts, deletes)

	if after := d.ix.Len(); before <= d.minPts || after <= d.minPts+1 {
		// Rows are not full (fewer than MinPts neighbors) before or after
		// the batch, so a k-distance says nothing about which new points
		// join a row. Rebuild (cheap at these sizes).
		d.lastAffected = after + len(deletes)
		d.rebuildAll()
		return first, nil
	}

	// Re-probe every point whose neighborhood changed: pre-batch points
	// that lose a deleted neighbor or absorb a new point within their
	// pre-batch k-distance, then the new points. A re-probe changes only
	// its own point's row and k-distance, so later slots are still tested
	// against their pre-batch values.
	d.resetSets()
	for o := 0; o < first; o++ {
		if !d.ix.Deleted(o) && (d.losesNeighbor(o) || d.absorbs(o, first, end)) {
			d.reprobe(o)
		}
	}
	for i := first; i < end; i++ {
		if !d.ix.Deleted(i) {
			d.recomputeNeighborhood(i)
			d.dirty.add(i)
			d.kdistChanged.add(i)
		}
	}
	d.propagate()
	d.lastAffected += len(deletes)
	return first, nil
}

// check validates a batch as Update documents and returns the slot of its
// first insert. It changes nothing but the dirty set, which holds the
// batch's deletes afterwards.
func (d *Detector) check(inserts []geom.Point, deletes []int) (first int, err error) {
	first = d.ix.Size()
	end := first + len(inserts)
	for _, p := range inserts {
		if len(p) != d.Dim() {
			return 0, fmt.Errorf("incremental: %w: point has %d dimensions, detector has %d", geom.ErrDimension, len(p), d.Dim())
		}
		if !p.Valid() {
			return 0, geom.ErrInvalidCoord
		}
	}
	d.dirty.reset(end)
	for _, i := range deletes {
		switch {
		case i < 0 || i >= end:
			return 0, fmt.Errorf("incremental: point %d out of range [0, %d)", i, end)
		case i < first && d.ix.Deleted(i):
			return 0, fmt.Errorf("incremental: point %d already deleted", i)
		case d.dirty.has(i):
			return 0, fmt.Errorf("incremental: point %d deleted twice", i)
		}
		d.dirty.add(i)
	}
	return first, nil
}

// mutate applies a checked batch's index mutations: each insert appends a
// slot with no neighborhood yet, and each delete tombstones its slot and
// clears its values.
func (d *Detector) mutate(inserts []geom.Point, deletes []int) {
	for _, p := range inserts {
		if _, err := d.ix.Insert(p); err != nil {
			panic(fmt.Sprintf("incremental: validated insert: %v", err))
		}
		d.nn = append(d.nn, nil)
		d.kdist = append(d.kdist, math.Inf(1))
		d.lrd = append(d.lrd, math.Inf(1))
		d.lof = append(d.lof, 1)
	}
	for _, i := range deletes {
		if err := d.ix.Delete(i); err != nil {
			panic(fmt.Sprintf("incremental: validated delete: %v", err))
		}
		d.nn[i] = nil
		d.kdist[i] = math.Inf(1)
		d.lrd[i] = math.Inf(1)
		d.lof[i] = math.NaN()
	}
}

// resetSets empties the update's sets.
func (d *Detector) resetSets() {
	n := d.ix.Size()
	d.dirty.reset(n)
	d.kdistChanged.reset(n)
	d.lrdChanged.reset(n)
}

// losesNeighbor reports whether o's row holds a slot the batch deleted:
// rows of live points name only pre-batch live slots, so a tombstoned
// member is one this batch removed.
func (d *Detector) losesNeighbor(o int) bool {
	for _, nb := range d.nn[o] {
		if d.ix.Deleted(nb.Index) {
			return true
		}
	}
	return false
}

// absorbs reports whether a surviving new point in slots [first, end) lies
// within o's pre-batch k-distance, so o's row takes it in.
func (d *Detector) absorbs(o, first, end int) bool {
	return d.ix.AnyWithin(o, first, end, d.kdist[o])
}

// reprobe recomputes o's neighborhood, adding o to dirty and, when its
// k-distance moved, to kdistChanged.
func (d *Detector) reprobe(o int) {
	old := d.kdist[o]
	d.recomputeNeighborhood(o)
	d.dirty.add(o)
	if d.kdist[o] != old {
		d.kdistChanged.add(o)
	}
}

// dirtyReaders adds to dirty every point outside it with a neighbor in
// changed: one pass over the maintained neighborhoods. A live point o
// holds c in nn[o] exactly when d(o,c) ≤ kdist(o), so these are the points
// whose density or LOF reads c's changed value. Deleted slots hold no
// neighborhood.
func (d *Detector) dirtyReaders(changed *stampSet) {
	if len(changed.list) == 0 {
		return
	}
	for o, row := range d.nn {
		if d.dirty.has(o) {
			continue
		}
		for _, nb := range row {
			if changed.has(nb.Index) {
				d.dirty.add(o)
				break
			}
		}
	}
}

// propagate refreshes densities and LOFs downstream of the neighborhoods
// Update re-probed.
func (d *Detector) propagate() {
	// Densities to refresh: any point whose neighborhood changed, plus
	// any point with a kdist-changed neighbor (its reachability distances
	// shift).
	d.dirtyReaders(&d.kdistChanged)
	for _, o := range d.dirty.list {
		old := d.lrd[o]
		d.lrd[o] = core.LRD(d.nn[o], d.kdist)
		if d.lrd[o] != old {
			d.lrdChanged.add(o)
		}
	}

	// LOFs to refresh: every density-dirty point, plus points with a
	// density-changed neighbor.
	d.dirtyReaders(&d.lrdChanged)
	for _, x := range d.dirty.list {
		d.lof[x] = core.LOF(d.nn[x], d.lrd, d.lrd[x])
	}
	d.lastAffected = len(d.dirty.list)
}

// recomputeNeighborhood rebuilds point q's neighborhood through the
// dynamic index: a kNN-with-ties probe whose cost tracks the neighborhood,
// not the dataset. Candidates are staged in the detector's scratch buffer;
// only the trimmed neighborhood is copied into the retained per-point
// slice.
func (d *Detector) recomputeNeighborhood(q int) {
	ns := index.KNNWithTiesInto(d.cur, d.scratch[:0], d.ix.At(q), d.minPts, q)
	d.scratch = ns[:0]
	d.nn[q] = copyRow(d.nn[q], ns)
	if len(ns) >= d.minPts {
		d.kdist[q] = ns[d.minPts-1].Dist
	} else if len(ns) > 0 {
		d.kdist[q] = ns[len(ns)-1].Dist
	} else {
		d.kdist[q] = math.Inf(1)
	}
}

// rebuildAll recomputes every structure from scratch (used while the
// dataset is still smaller than MinPts+2).
func (d *Detector) rebuildAll() {
	n := d.ix.Size()
	for q := 0; q < n; q++ {
		if !d.ix.Deleted(q) {
			d.recomputeNeighborhood(q)
		}
	}
	for o := 0; o < n; o++ {
		if !d.ix.Deleted(o) {
			d.lrd[o] = core.LRD(d.nn[o], d.kdist)
		}
	}
	for x := 0; x < n; x++ {
		if !d.ix.Deleted(x) {
			d.lof[x] = core.LOF(d.nn[x], d.lrd, d.lrd[x])
		}
	}
}

// Compact rebuilds the detector over only its live points, dropping every
// tombstoned slot: live points keep their relative order but move to
// dense indices [0, Len). No LOF, density or neighborhood value changes —
// the remapping is monotone, so tie-breaking order (and therefore every
// floating-point sum) is preserved bit for bit. It returns the slot
// remapping: remap[old] is the new index of old's point, or -1 if old was
// deleted.
func (d *Detector) Compact() []int {
	remap := d.compactSlots()
	for _, row := range d.nn {
		for j := range row {
			row[j].Index = remap[row[j].Index]
		}
	}
	return remap
}

// compactSlots is Compact without renumbering the rows: it rebuilds the
// index over the live points and moves their values and row storage to
// dense slots, in arrays sized to the live count. The rows still name the
// old slots.
func (d *Detector) compactSlots() []int {
	remap := make([]int, d.ix.Size())
	live := d.ix.Len()
	nn := make([][]index.Neighbor, 0, live)
	kdist := make([]float64, 0, live)
	lrd := make([]float64, 0, live)
	lof := make([]float64, 0, live)
	for i := range remap {
		if d.ix.Deleted(i) {
			remap[i] = -1
			continue
		}
		remap[i] = len(nn)
		nn = append(nn, d.nn[i])
		kdist = append(kdist, d.kdist[i])
		lrd = append(lrd, d.lrd[i])
		lof = append(lof, d.lof[i])
	}
	d.ix = d.ix.Compacted()
	d.cur = d.ix.NewCursor()
	d.nn, d.kdist, d.lrd, d.lof = nn, kdist, lrd, lof
	return remap
}

// Mirror brings d to the state src reached with Update(inserts, deletes),
// followed by Compact when compact is set, starting from the state src
// held before that call, which d must hold. It derives nothing: it applies
// the batch's index mutations (the same appends and tombstones, then the
// compaction's index build) and copies src's neighborhoods, k-distances,
// densities and LOFs into d's own storage, so src may be read while d is
// mutated afterwards. The batch is checked as Update checks it, and the
// slot and live counts it leaves against src's; an error leaves d
// untouched.
func (d *Detector) Mirror(src *Detector, inserts []geom.Point, deletes []int, compact bool) error {
	first, err := d.check(inserts, deletes)
	if err != nil {
		return err
	}
	size, live := first+len(inserts), d.ix.Len()+len(inserts)-len(deletes)
	if compact {
		size = live
	}
	if src.minPts != d.minPts || src.Size() != size || src.Len() != live {
		return fmt.Errorf("incremental: mirrored batch leaves %d live of %d slots at MinPts %d, source holds %d of %d at %d",
			live, size, d.minPts, src.Len(), src.Size(), src.minPts)
	}
	d.mutate(inserts, deletes)
	if compact {
		d.compactSlots()
	}
	for i, row := range src.nn {
		d.nn[i] = copyRow(d.nn[i], row)
	}
	copy(d.kdist, src.kdist)
	copy(d.lrd, src.lrd)
	copy(d.lof, src.lof)
	d.lastAffected = src.lastAffected
	return nil
}

// copyRow copies row into dst's storage, allocating only when dst is too
// short.
func copyRow(dst, row []index.Neighbor) []index.Neighbor {
	if cap(dst) < len(row) {
		dst = make([]index.Neighbor, len(row))
	}
	dst = dst[:len(row)]
	copy(dst, row)
	return dst
}

// NewCursor returns a query cursor over the detector's current index, for
// use with ScoreAtCursor. Cursors are single-goroutine objects; allocate
// one per concurrent reader. A cursor is bound to the detector's index at
// call time: Compact replaces the index, invalidating prior cursors.
func (d *Detector) NewCursor() index.Cursor { return d.ix.NewCursor() }

// ScoreAt returns the LOF the query point would receive from a full batch
// recomputation over the live points plus q, without inserting it — the
// out-of-sample analogue of Insert followed by LOF and Delete, at a
// fraction of the cost. Uses the detector's internal cursor, so it must
// not run concurrently with mutations or other internal-cursor calls.
func (d *Detector) ScoreAt(q geom.Point) (float64, error) {
	return d.ScoreAtCursor(d.cur, q)
}

// ScoreAtCursor is ScoreAt through a caller-owned cursor (see NewCursor).
// Many goroutines may score concurrently against a quiescent detector,
// each with its own cursor; scoring must not overlap mutations.
//
// The result is bit-identical to what lof.Fit over the live points plus q
// (in live slot order, q last) would report for q, because it is computed
// the way a fitted model scores a query: core.EvalAt over q's probed
// neighborhood and the merged rows matdb.RowBuf.Merge splices q into —
// the detector's maintained neighborhoods standing in for the stored rows
// of a materialization database with K = MinPts.
func (d *Detector) ScoreAtCursor(cur index.Cursor, q geom.Point) (float64, error) {
	if len(q) != d.Dim() {
		return 0, fmt.Errorf("incremental: query has %d dimensions, detector has %d", len(q), d.Dim())
	}
	if !q.Valid() {
		return 0, geom.ErrInvalidCoord
	}
	// qIdx orders q after every slot, exactly where a refit over
	// live ∪ {q} would place it (live slots compact monotonically).
	qIdx := d.ix.Size()
	qRow := matdb.Row{Neighbors: index.KNNWithTiesInto(cur, nil, q, d.minPts, index.ExcludeNone)}
	var buf matdb.RowBuf
	rowOf := func(o int) matdb.Row {
		return buf.Merge(matdb.Row{Neighbors: d.nn[o]}, q, qIdx, d.ix.DistTo(o, q), d.ix.At, d.minPts, d.minPts)
	}
	return core.EvalAt(qIdx, qRow, rowOf, d.minPts), nil
}
