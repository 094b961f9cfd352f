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
// Neighborhood and reverse-neighbor queries run through a dynamic spatial
// index (internal/index/dynamic: immutable k-d tree base plus overlay and
// tombstones), so the cost of one update tracks the size of the affected
// neighborhood rather than the dataset. Reverse k-nearest-neighbor sets
// are found exactly with one range query: every point q with
// d(q,p) ≤ kdist(q) lies within maxKdist of p, where maxKdist is a
// maintained upper bound on all live k-distances, so Range(p, maxKdist)
// plus a per-candidate k-distance check yields the reverse set without a
// linear scan.
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

// boundRecomputeEvery is how many updates may pass before the k-distance
// upper bound is recomputed exactly. Deletions only ever leave the bound
// stale-high (a correct but looser reverse-query radius), so a periodic
// exact pass keeps query cost tight at O(Size/boundRecomputeEvery)
// amortized per update.
const boundRecomputeEvery = 64

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

	// kdistBound is an upper bound on every live point's current
	// k-distance — the reverse-query radius. Raised eagerly whenever a
	// recomputed k-distance exceeds it, tightened exactly every
	// boundRecomputeEvery updates and on every rebuild.
	kdistBound   float64
	updatesSince int

	// scratch stages one neighborhood per recomputeNeighborhood call;
	// rscratch stages reverse-range candidates.
	scratch  []index.Neighbor
	rscratch []index.Neighbor
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

// LastAffected returns how many points the most recent Insert or Delete
// updated (neighborhood, density or LOF) — including the point inserted
// or deleted by that update.
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
	i, err := d.ix.Insert(p)
	if err != nil {
		return 0, err
	}
	d.nn = append(d.nn, nil)
	d.kdist = append(d.kdist, math.Inf(1))
	d.lrd = append(d.lrd, math.Inf(1))
	d.lof = append(d.lof, 1)

	n := d.ix.Len()
	if n <= d.minPts+1 {
		// Not enough points for incremental maintenance: either no
		// MinPts-neighborhood exists yet, or neighborhoods just became
		// defined for everyone. Rebuild (cheap at these sizes).
		d.lastAffected = n
		d.rebuildAll()
		return i, nil
	}

	// 1. The new point's neighborhood.
	d.recomputeNeighborhood(i)

	// 2. Reverse neighbors: points q whose MinPts-distance neighborhood
	// absorbs p (d(q,p) ≤ kdist(q)). Their neighborhoods — and possibly
	// k-distances — change.
	kdistChanged := map[int]bool{i: true}
	neighborhoodChanged := map[int]bool{i: true}
	d.refreshReverse(d.ix.At(i), i, kdistChanged, neighborhoodChanged)
	d.propagate(kdistChanged, neighborhoodChanged)
	d.countUpdate()
	return i, nil
}

// Delete removes point i, updating all affected LOF values. Deleted slots
// keep their index (subsequent points do not shift) and report NaN; the
// raw LOF slot is also set to NaN so no stale pre-delete value survives.
func (d *Detector) Delete(i int) error {
	if i < 0 || i >= d.ix.Size() {
		return fmt.Errorf("incremental: point %d out of range [0, %d)", i, d.ix.Size())
	}
	if d.ix.Deleted(i) {
		return fmt.Errorf("incremental: point %d already deleted", i)
	}
	p := d.ix.At(i).Clone()
	if err := d.ix.Delete(i); err != nil {
		return err
	}
	d.nn[i] = nil
	d.kdist[i] = math.Inf(1)
	d.lrd[i] = math.Inf(1)
	d.lof[i] = math.NaN()

	if d.ix.Len() <= d.minPts+1 {
		d.lastAffected = d.ix.Len() + 1
		d.rebuildAll()
		return nil
	}

	// Points that held i in their neighborhood lose a neighbor; their
	// k-distances can only grow. The candidate range query uses the
	// pre-delete k-distances, which the bound still covers.
	kdistChanged := map[int]bool{}
	neighborhoodChanged := map[int]bool{}
	d.refreshReverse(p, i, kdistChanged, neighborhoodChanged)
	d.propagate(kdistChanged, neighborhoodChanged)
	// Count the removed point itself, mirroring Insert's "including the
	// inserted point" contract.
	d.lastAffected++
	d.countUpdate()
	return nil
}

// refreshReverse recomputes the neighborhood of every live point whose
// neighborhood reaches p — the points o with d(o,p) ≤ kdist(o), judged by
// their k-distances before this call — marking each in
// neighborhoodChanged, and in kdistChanged when its k-distance moved.
// Candidates come from one range query at the k-distance upper bound,
// excluding slot self; the filter applies each point's own k-distance. A
// recompute changes only its own point's k-distance, so later candidates
// are still filtered against their pre-update values.
func (d *Detector) refreshReverse(p geom.Point, self int, kdistChanged, neighborhoodChanged map[int]bool) {
	d.rscratch = d.cur.RangeInto(d.rscratch[:0], p, d.kdistBound, self)
	for _, nb := range d.rscratch {
		o := nb.Index
		if nb.Dist > d.kdist[o] {
			continue
		}
		old := d.kdist[o]
		d.recomputeNeighborhood(o)
		neighborhoodChanged[o] = true
		if d.kdist[o] != old {
			kdistChanged[o] = true
		}
	}
}

// countUpdate ticks the periodic exact recomputation of the k-distance
// upper bound.
func (d *Detector) countUpdate() {
	d.updatesSince++
	if d.updatesSince >= boundRecomputeEvery {
		d.recomputeBound()
	}
}

// recomputeBound tightens kdistBound to the exact maximum live
// k-distance.
func (d *Detector) recomputeBound() {
	d.updatesSince = 0
	bound := 0.0
	for q := 0; q < d.ix.Size(); q++ {
		if !d.ix.Deleted(q) && d.kdist[q] > bound {
			bound = d.kdist[q]
		}
	}
	d.kdistBound = bound
}

// reverseDirty marks every live point whose neighborhood contains c. A
// live point o holds c in its neighborhood exactly when d(o,c) ≤ kdist(o)
// (neighborhoods are maintained as "all live points within the
// k-distance"), so one bounded range query around c plus the
// per-candidate check finds the set without a scan.
func (d *Detector) reverseDirty(c int, mark map[int]bool) {
	d.rscratch = d.cur.RangeInto(d.rscratch[:0], d.ix.At(c), d.kdistBound, c)
	for _, nb := range d.rscratch {
		if nb.Dist <= d.kdist[nb.Index] {
			mark[nb.Index] = true
		}
	}
}

// propagate refreshes densities and LOFs downstream of neighborhood and
// k-distance changes — the shared tail of Insert and Delete.
func (d *Detector) propagate(kdistChanged, neighborhoodChanged map[int]bool) {

	// Densities to refresh: any point whose neighborhood changed, plus
	// any point with a kdist-changed neighbor (its reachability distances
	// shift).
	lrdDirty := map[int]bool{}
	for q := range neighborhoodChanged {
		if !d.ix.Deleted(q) {
			lrdDirty[q] = true
		}
	}
	for c := range kdistChanged {
		if !d.ix.Deleted(c) {
			d.reverseDirty(c, lrdDirty)
		}
	}
	lrdChanged := map[int]bool{}
	for o := range lrdDirty {
		old := d.lrd[o]
		d.lrd[o] = core.LRD(d.nn[o], d.kdist)
		if d.lrd[o] != old {
			lrdChanged[o] = true
		}
	}

	// LOFs to refresh: every density-dirty point, plus points with a
	// density-changed neighbor.
	lofDirty := map[int]bool{}
	for o := range lrdDirty {
		lofDirty[o] = true
	}
	for c := range lrdChanged {
		if !d.ix.Deleted(c) {
			d.reverseDirty(c, lofDirty)
		}
	}
	for x := range lofDirty {
		d.lof[x] = core.LOF(d.nn[x], d.lrd, d.lrd[x])
	}
	d.lastAffected = len(lofDirty)
}

// recomputeNeighborhood rebuilds point q's neighborhood through the
// dynamic index: a kNN-with-ties probe whose cost tracks the neighborhood,
// not the dataset. Candidates are staged in the detector's scratch buffer;
// only the trimmed neighborhood is copied into the retained per-point
// slice.
func (d *Detector) recomputeNeighborhood(q int) {
	ns := index.KNNWithTiesInto(d.cur, d.scratch[:0], d.ix.At(q), d.minPts, q)
	d.scratch = ns[:0]
	row := d.nn[q]
	if cap(row) < len(ns) {
		row = make([]index.Neighbor, len(ns))
	}
	row = row[:len(ns)]
	copy(row, ns)
	d.nn[q] = row
	if len(ns) >= d.minPts {
		d.kdist[q] = ns[d.minPts-1].Dist
	} else if len(ns) > 0 {
		d.kdist[q] = ns[len(ns)-1].Dist
	} else {
		d.kdist[q] = math.Inf(1)
	}
	if d.kdist[q] > d.kdistBound {
		d.kdistBound = d.kdist[q]
	}
}

// rebuildAll recomputes every structure from scratch (used while the
// dataset is still smaller than MinPts+2) and retightens the k-distance
// bound.
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
	d.recomputeBound()
}

// Compact rebuilds the detector over only its live points, dropping every
// tombstoned slot: live points keep their relative order but move to
// dense indices [0, Len). No LOF, density or neighborhood value changes —
// the remapping is monotone, so tie-breaking order (and therefore every
// floating-point sum) is preserved bit for bit. It returns the slot
// remapping: remap[old] is the new index of old's point, or -1 if old was
// deleted.
func (d *Detector) Compact() []int {
	size := d.ix.Size()
	remap := make([]int, size)
	nix := dynamic.New(d.Dim(), d.metric)
	nn := make([][]index.Neighbor, 0, d.ix.Len())
	kdist := make([]float64, 0, d.ix.Len())
	lrd := make([]float64, 0, d.ix.Len())
	lof := make([]float64, 0, d.ix.Len())
	for i := 0; i < size; i++ {
		if d.ix.Deleted(i) {
			remap[i] = -1
			continue
		}
		slot, err := nix.Insert(d.ix.At(i))
		if err != nil {
			// Stored coordinates were validated on their original insert.
			panic(fmt.Sprintf("incremental: compact re-insert: %v", err))
		}
		remap[i] = slot
		nn = append(nn, d.nn[i])
		kdist = append(kdist, d.kdist[i])
		lrd = append(lrd, d.lrd[i])
		lof = append(lof, d.lof[i])
	}
	nix.Rebuild()
	for _, row := range nn {
		for j := range row {
			row[j].Index = remap[row[j].Index]
		}
	}
	d.ix = nix
	d.cur = nix.NewCursor()
	d.nn, d.kdist, d.lrd, d.lof = nn, kdist, lrd, lof
	d.recomputeBound()
	return remap
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
