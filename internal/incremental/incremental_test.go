package incremental

import (
	"math"
	"math/rand"
	"testing"

	"lof/internal/core"
	"lof/internal/dataset"
	"lof/internal/geom"
	"lof/internal/index/linear"
	"lof/internal/matdb"
)

// allPts collects every slot's coordinates (valid for insert-only
// detectors, where all slots are live).
func allPts(t *testing.T, det *Detector) *geom.Points {
	t.Helper()
	pts := geom.NewPoints(det.Dim(), det.Size())
	for i := 0; i < det.Size(); i++ {
		if err := pts.Append(det.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

// batchLOFs computes reference LOF values from scratch.
func batchLOFs(t *testing.T, pts *geom.Points, minPts int) []float64 {
	t.Helper()
	db, err := matdb.Materialize(pts, linear.New(pts, nil), minPts)
	if err != nil {
		t.Fatal(err)
	}
	lofs, err := core.LOFs(db, minPts)
	if err != nil {
		t.Fatal(err)
	}
	return lofs
}

func TestInsertMatchesBatchExactly(t *testing.T) {
	const minPts = 5
	rng := rand.New(rand.NewSource(31))
	det, err := New(2, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 120; step++ {
		var p geom.Point
		switch {
		case step%11 == 10:
			p = geom.Point{rng.NormFloat64()*0.5 + 30, rng.NormFloat64() * 0.5} // second cluster
		case step%17 == 16:
			p = geom.Point{rng.Float64() * 60, 40 + rng.Float64()*10} // scattered noise
		default:
			p = geom.Point{rng.NormFloat64(), rng.NormFloat64()}
		}
		if _, err := det.Insert(p); err != nil {
			t.Fatal(err)
		}
		if det.Len() <= minPts+1 {
			continue
		}
		want := batchLOFs(t, allPts(t, det), minPts)
		got := det.LOFs()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("step %d point %d: incremental=%v batch=%v", step, i, got[i], want[i])
			}
		}
	}
}

func TestInsertWithDuplicatesMatchesBatch(t *testing.T) {
	const minPts = 3
	det, err := New(1, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate-heavy stream: sites 0, 1, 2 plus a straggler.
	stream := []float64{0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 10, 0, 1}
	for s, x := range stream {
		if _, err := det.Insert(geom.Point{x}); err != nil {
			t.Fatal(err)
		}
		if det.Len() <= minPts+1 {
			continue
		}
		want := batchLOFs(t, allPts(t, det), minPts)
		got := det.LOFs()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("step %d point %d: incremental=%v batch=%v", s, i, got[i], want[i])
			}
		}
	}
}

func TestInsertLocality(t *testing.T) {
	const minPts = 5
	rng := rand.New(rand.NewSource(33))
	det, err := New(2, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two well-separated clusters of 200 points each.
	for i := 0; i < 200; i++ {
		if _, err := det.Insert(geom.Point{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
		if _, err := det.Insert(geom.Point{200 + rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	// Inserting into the first cluster must not touch most of the dataset:
	// the affected set is bounded by the local neighborhood structure.
	if _, err := det.Insert(geom.Point{0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	if det.LastAffected() > det.Len()/3 {
		t.Fatalf("insertion affected %d of %d points — not local", det.LastAffected(), det.Len())
	}
	// And the result still matches the batch computation.
	want := batchLOFs(t, allPts(t, det), minPts)
	got := det.LOFs()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("point %d: incremental=%v batch=%v", i, got[i], want[i])
		}
	}
}

func TestSmallStreamAllOnes(t *testing.T) {
	det, err := New(2, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := det.Insert(geom.Point{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	// Fewer than MinPts+1 points: no meaningful neighborhoods; LOFs exist
	// and are finite.
	for i, l := range det.LOFs() {
		if math.IsNaN(l) {
			t.Fatalf("LOF[%d] is NaN", i)
		}
	}
	if det.Len() != 5 {
		t.Fatalf("Len=%d", det.Len())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5, nil); err == nil {
		t.Error("dim=0 accepted")
	}
	if _, err := New(2, 0, nil); err == nil {
		t.Error("MinPts=0 accepted")
	}
}

func TestInsertRejectsBadPoint(t *testing.T) {
	det, err := New(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Insert(geom.Point{1}); err == nil {
		t.Error("wrong dimension accepted")
	}
	if _, err := det.Insert(geom.Point{1, math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
}

func TestLOFAccessor(t *testing.T) {
	det, err := New(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1, 2, 3, 4, 5, 20} {
		if _, err := det.Insert(geom.Point{x}); err != nil {
			t.Fatal(err)
		}
	}
	if det.LOF(6) <= det.LOF(3) {
		t.Fatalf("straggler LOF %v not above interior %v", det.LOF(6), det.LOF(3))
	}
}

func TestDeleteMatchesBatchExactly(t *testing.T) {
	const minPts = 5
	rng := rand.New(rand.NewSource(51))
	det, err := New(2, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		p := geom.Point{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		if i%9 == 8 {
			p = geom.Point{25 + rng.NormFloat64(), rng.NormFloat64()}
		}
		if _, err := det.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a spread of points and compare against a batch computation
	// over the remaining live points after every deletion.
	for _, victim := range []int{3, 17, 17 + 9, 40, 0, 59} {
		if det.Deleted(victim) {
			continue
		}
		if err := det.Delete(victim); err != nil {
			t.Fatal(err)
		}
		// Build the live point set and an index mapping.
		live := geom.NewPoints(2, det.Len())
		var liveIdx []int
		for i := 0; i < det.Size(); i++ {
			if det.Deleted(i) {
				continue
			}
			if err := live.Append(det.At(i)); err != nil {
				t.Fatal(err)
			}
			liveIdx = append(liveIdx, i)
		}
		want := batchLOFs(t, live, minPts)
		for j, i := range liveIdx {
			got := det.LOF(i)
			if math.Float64bits(got) != math.Float64bits(want[j]) {
				t.Fatalf("after deleting %d: point %d incremental=%v batch=%v", victim, i, got, want[j])
			}
		}
	}
}

func TestDeleteValidation(t *testing.T) {
	det, err := New(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Delete(0); err == nil {
		t.Error("out-of-range delete accepted")
	}
	if _, err := det.Insert(geom.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := det.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := det.Delete(0); err == nil {
		t.Error("double delete accepted")
	}
	if !math.IsNaN(det.LOF(0)) {
		t.Error("deleted LOF not NaN")
	}
	if det.Len() != 0 || det.Size() != 1 {
		t.Errorf("Len=%d Size=%d", det.Len(), det.Size())
	}
}

func TestDeleteThenInsertReuse(t *testing.T) {
	const minPts = 4
	rng := rand.New(rand.NewSource(52))
	det, err := New(1, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := det.Insert(geom.Point{rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := det.Delete(5); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Insert(geom.Point{rng.NormFloat64()}); err != nil {
		t.Fatal(err)
	}
	// Live values still match the batch over live points.
	live := geom.NewPoints(1, det.Len())
	var liveIdx []int
	for i := 0; i < det.Size(); i++ {
		if det.Deleted(i) {
			continue
		}
		if err := live.Append(det.At(i)); err != nil {
			t.Fatal(err)
		}
		liveIdx = append(liveIdx, i)
	}
	want := batchLOFs(t, live, minPts)
	for j, i := range liveIdx {
		if math.Float64bits(det.LOF(i)) != math.Float64bits(want[j]) {
			t.Fatalf("point %d: incremental=%v batch=%v", i, det.LOF(i), want[j])
		}
	}
}

func TestAccessorBoundsChecks(t *testing.T) {
	det, err := New(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8; i++ {
		if _, err := det.Insert(geom.Point{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{-1, 8, 1 << 40} {
		if !det.Deleted(i) {
			t.Errorf("Deleted(%d) = false, want true for out-of-range index", i)
		}
		if got := det.LOF(i); !math.IsNaN(got) {
			t.Errorf("LOF(%d) = %v, want NaN", i, got)
		}
		if err := det.Delete(i); err == nil {
			t.Errorf("Delete(%d) succeeded, want out-of-range error", i)
		}
	}
	if det.Deleted(0) {
		t.Error("Deleted(0) = true for a live point")
	}
}

// liveView collects the live points in slot order plus the slot of each
// collected row — the shape a batch refit sees.
func liveView(t *testing.T, det *Detector) (*geom.Points, []int) {
	t.Helper()
	live := geom.NewPoints(det.Dim(), det.Len())
	var liveIdx []int
	for i := 0; i < det.Size(); i++ {
		if det.Deleted(i) {
			continue
		}
		if err := live.Append(det.At(i)); err != nil {
			t.Fatal(err)
		}
		liveIdx = append(liveIdx, i)
	}
	return live, liveIdx
}

// TestInsertDeleteBitIdentical is the strict form of the batch oracle:
// after every insert and delete, each live LOF equals the from-scratch
// batch value bit for bit (Float64bits), not merely within tolerance.
func TestInsertDeleteBitIdentical(t *testing.T) {
	const minPts = 4
	rng := rand.New(rand.NewSource(97))
	det, err := New(2, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var slots []int
	check := func(step int) {
		if det.Len() <= minPts+1 {
			return
		}
		live, liveIdx := liveView(t, det)
		want := batchLOFs(t, live, minPts)
		for j, i := range liveIdx {
			got := det.LOF(i)
			if math.Float64bits(got) != math.Float64bits(want[j]) {
				t.Fatalf("step %d slot %d: incremental=%v batch=%v (bits differ)", step, i, got, want[j])
			}
		}
	}
	for step := 0; step < 250; step++ {
		if len(slots) > minPts+2 && rng.Float64() < 0.35 {
			j := rng.Intn(len(slots))
			if err := det.Delete(slots[j]); err != nil {
				t.Fatal(err)
			}
			slots = append(slots[:j], slots[j+1:]...)
		} else {
			p := geom.Point{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
			if rng.Float64() < 0.15 { // duplicate pocket
				p = geom.Point{2, 2}
			}
			if rng.Float64() < 0.05 { // far outlier: stresses the kdist bound
				p = geom.Point{300 + rng.NormFloat64(), 300}
			}
			s, err := det.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			slots = append(slots, s)
		}
		check(step)
	}
}

// TestDeleteTombstoneHygiene pins the satellite fix: after Delete, the raw
// lof slot holds NaN (not a stale pre-delete value), and the neighborhood
// and density slots are cleared too.
func TestDeleteTombstoneHygiene(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	det, err := New(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := det.Insert(geom.Point{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	if math.IsNaN(det.lof[7]) {
		t.Fatal("live slot holds NaN before delete")
	}
	if err := det.Delete(7); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(det.lof[7]) {
		t.Errorf("raw lof slot after delete = %v, want NaN", det.lof[7])
	}
	if det.nn[7] != nil {
		t.Error("neighborhood not cleared on delete")
	}
	if !math.IsInf(det.kdist[7], 1) || !math.IsInf(det.lrd[7], 1) {
		t.Errorf("kdist=%v lrd=%v after delete, want +Inf", det.kdist[7], det.lrd[7])
	}
	// The rebuild path (shrinking to ≤ MinPts+1 live points) must clear
	// the slot the same way.
	small, err := New(1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := small.Insert(geom.Point{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := small.Delete(2); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(small.lof[2]) {
		t.Errorf("rebuild-path raw lof slot = %v, want NaN", small.lof[2])
	}
}

// TestLastAffectedCountsTheUpdatedPoint pins the unified contract: both
// Insert and Delete count the point being inserted or deleted, so
// LastAffected is always at least 1.
func TestLastAffectedCountsTheUpdatedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	det, err := New(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var slots []int
	for i := 0; i < 40; i++ {
		s, err := det.Insert(geom.Point{rng.NormFloat64(), rng.NormFloat64()})
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
		if det.LastAffected() < 1 {
			t.Fatalf("insert %d: LastAffected=%d, want ≥ 1", i, det.LastAffected())
		}
		if det.LastAffected() > det.Len() {
			t.Fatalf("insert %d: LastAffected=%d exceeds live count %d", i, det.LastAffected(), det.Len())
		}
	}
	for i := 0; i < 30; i++ {
		j := rng.Intn(len(slots))
		if err := det.Delete(slots[j]); err != nil {
			t.Fatal(err)
		}
		slots = append(slots[:j], slots[j+1:]...)
		if det.LastAffected() < 1 {
			t.Fatalf("delete %d: LastAffected=%d, want ≥ 1 (deleted point counts)", i, det.LastAffected())
		}
		if det.LastAffected() > det.Len()+1 {
			t.Fatalf("delete %d: LastAffected=%d exceeds live+deleted %d", i, det.LastAffected(), det.Len()+1)
		}
	}
}

// TestInsertDoesNotRetainCallerBuffer is the satellite regression test:
// mutating the caller's coordinate buffer after Insert must not change any
// maintained score — the detector clones coordinates on append.
func TestInsertDoesNotRetainCallerBuffer(t *testing.T) {
	const minPts = 3
	rng := rand.New(rand.NewSource(101))
	reused, err := New(2, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	cloned, err := New(2, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make(geom.Point, 2) // one buffer, reused for every insert
	for i := 0; i < 30; i++ {
		buf[0], buf[1] = rng.NormFloat64(), rng.NormFloat64()
		if _, err := reused.Insert(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := cloned.Insert(buf.Clone()); err != nil {
			t.Fatal(err)
		}
		buf[0], buf[1] = 1e9, -1e9 // clobber after insert
	}
	a, b := reused.LOFs(), cloned.LOFs()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("slot %d: reused-buffer LOF %v != cloned LOF %v", i, a[i], b[i])
		}
	}
}

// TestScoreAtMatchesRefit pins the out-of-sample contract: ScoreAt(q)
// equals, bit for bit, the LOF a batch fit over live ∪ {q} (q last)
// reports for q.
func TestScoreAtMatchesRefit(t *testing.T) {
	const minPts = 4
	rng := rand.New(rand.NewSource(103))
	det, err := New(2, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var slots []int
	for i := 0; i < 80; i++ {
		p := geom.Point{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		if i%13 == 12 {
			p = geom.Point{40 + rng.NormFloat64(), 40}
		}
		s, err := det.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i := 0; i < 10; i++ { // tombstones in the mix
		if err := det.Delete(slots[i*3]); err != nil {
			t.Fatal(err)
		}
	}
	queries := []geom.Point{
		{0, 0}, {0.5, -0.5}, {40, 40}, {-30, 10},
		det.At(slots[1]).Clone(), // exact duplicate of a live point
	}
	for qi, q := range queries {
		got, err := det.ScoreAt(q)
		if err != nil {
			t.Fatal(err)
		}
		live, _ := liveView(t, det)
		if err := live.Append(q); err != nil {
			t.Fatal(err)
		}
		want := batchLOFs(t, live, minPts)[live.Len()-1]
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d: ScoreAt=%v refit=%v (bits differ)", qi, got, want)
		}
	}
	if _, err := det.ScoreAt(geom.Point{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := det.ScoreAt(geom.Point{math.NaN(), 0}); err == nil {
		t.Error("NaN query accepted")
	}
}

// TestScoreAtEmptyAndTiny covers the degenerate regimes: no live points
// (isolated query scores 1), fewer than MinPts live points, and exactly
// MinPts.
func TestScoreAtEmptyAndTiny(t *testing.T) {
	det, err := New(1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := det.ScoreAt(geom.Point{5})
	if err != nil || got != 1 {
		t.Fatalf("empty detector: ScoreAt=%v err=%v, want 1", got, err)
	}
	for i := 0; i < 2; i++ {
		if _, err := det.Insert(geom.Point{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Below MinPts+1 live points a batch fit is undefined (K > n-1), so
	// the reference is the detector's own dynamic semantics: inserting the
	// query and reading its LOF must agree with ScoreAt.
	got, err = det.ScoreAt(geom.Point{0.5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := det.Insert(geom.Point{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if want := det.LOF(s); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("tiny detector: ScoreAt=%v insert-then-LOF=%v", got, want)
	}
	// Exactly MinPts live points: a batch fit over live ∪ {q} is defined
	// and makes every neighborhood the whole dataset, so q joins every
	// live point's neighborhood however far away it lies.
	for _, q := range []geom.Point{{10}, {-0.5}, {0.75}} {
		got, err := det.ScoreAt(q)
		if err != nil {
			t.Fatal(err)
		}
		live, _ := liveView(t, det)
		if err := live.Append(q); err != nil {
			t.Fatal(err)
		}
		if want := batchLOFs(t, live, 3)[live.Len()-1]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MinPts live points: ScoreAt(%v)=%v, refit=%v (bits differ)", q, got, want)
		}
	}
}

// TestCompactPreservesValues pins Compact: live points move to dense
// indices, every LOF survives bit for bit, and the detector keeps
// answering updates and queries correctly afterwards.
func TestCompactPreservesValues(t *testing.T) {
	const minPts = 4
	rng := rand.New(rand.NewSource(107))
	det, err := New(2, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var slots []int
	for i := 0; i < 90; i++ {
		s, err := det.Insert(geom.Point{rng.NormFloat64(), rng.NormFloat64()})
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i := 0; i < 40; i++ {
		j := rng.Intn(len(slots))
		if err := det.Delete(slots[j]); err != nil {
			t.Fatal(err)
		}
		slots = append(slots[:j], slots[j+1:]...)
	}
	before := map[int]float64{}
	coords := map[int]geom.Point{}
	for _, s := range slots {
		before[s] = det.LOF(s)
		coords[s] = det.At(s).Clone()
	}
	remap := det.Compact()
	if det.Size() != det.Len() {
		t.Fatalf("Size=%d after compact, want Len=%d", det.Size(), det.Len())
	}
	for old, want := range before {
		ns := remap[old]
		if ns < 0 || ns >= det.Len() {
			t.Fatalf("remap[%d]=%d out of [0,%d)", old, ns, det.Len())
		}
		if !det.At(ns).Equal(coords[old]) {
			t.Fatalf("slot %d moved to %d but coordinates changed", old, ns)
		}
		if math.Float64bits(det.LOF(ns)) != math.Float64bits(want) {
			t.Fatalf("slot %d→%d: LOF %v != pre-compact %v", old, ns, det.LOF(ns), want)
		}
	}
	// Post-compact updates still match the batch oracle bit for bit.
	if _, err := det.Insert(geom.Point{0.2, -0.3}); err != nil {
		t.Fatal(err)
	}
	if err := det.Delete(0); err != nil {
		t.Fatal(err)
	}
	live, liveIdx := liveView(t, det)
	want := batchLOFs(t, live, minPts)
	for j, i := range liveIdx {
		if math.Float64bits(det.LOF(i)) != math.Float64bits(want[j]) {
			t.Fatalf("post-compact slot %d: %v != batch %v", i, det.LOF(i), want[j])
		}
	}
}

// TestUpdateAllocs pins that an update allocates almost nothing: the
// reverse-neighbor and dirty-set passes run over flat arrays with
// generation-stamped sets, so what remains is the inserted point's
// neighborhood row, amortized growth of the slot arrays and the dynamic
// index's periodic rebuild.
func TestUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	const window, minPts, pairs = 2000, 10, 400
	src := dataset.RandomClusters(3, window+pairs+1, 4, 5).Points
	det, err := New(4, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < window; i++ {
		if _, err := det.Insert(src.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	next, oldest := window, 0
	allocs := testing.AllocsPerRun(pairs, func() {
		if _, err := det.Insert(src.At(next)); err != nil {
			t.Fatal(err)
		}
		if err := det.Delete(oldest); err != nil {
			t.Fatal(err)
		}
		next++
		oldest++
	})
	if allocs > 5 {
		t.Errorf("%.0f allocations per insert+delete pair, want at most 5", allocs)
	}
}

// TestUpdateBatchAllocs pins that a batch allocates only the new points'
// rows: its sets are generation-stamped and owned by the detector, and
// first comes back by value, so nothing scales with the number of updates
// or the window.
func TestUpdateBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	const window, minPts, batch, rounds = 2000, 10, 32, 60
	src := dataset.RandomClusters(3, window+batch*(rounds+1), 4, 5).Points
	det, err := New(4, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	prime := make([]geom.Point, window)
	for i := range prime {
		prime[i] = src.At(i)
	}
	if _, err := det.Update(prime, nil); err != nil {
		t.Fatal(err)
	}
	inserts := make([]geom.Point, batch)
	deletes := make([]int, batch)
	next, oldest := window, 0
	allocs := testing.AllocsPerRun(rounds, func() {
		for j := range inserts {
			inserts[j] = src.At(next + j)
			deletes[j] = oldest + j
		}
		if _, err := det.Update(inserts, deletes); err != nil {
			t.Fatal(err)
		}
		next += batch
		oldest += batch
	})
	if allocs > batch+4 {
		t.Errorf("%.0f allocations per batch of %d inserts and %d deletes, want at most %d", allocs, batch, batch, batch+4)
	}
}

// TestCompactAllocs pins that Compact builds its index once: the survivors
// are copied into one store and indexed by one k-d tree build.
// Re-inserting them one by one would rebuild the tree along the way, at
// thousands of allocations for these 2,000 live points.
func TestCompactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	const n, minPts = 4000, 10
	src := dataset.RandomClusters(5, n, 4, 5).Points
	det, err := New(4, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	inserts := make([]geom.Point, n)
	deletes := make([]int, 0, n/2)
	for i := range inserts {
		inserts[i] = src.At(i)
		if i%2 == 0 {
			deletes = append(deletes, i)
		}
	}
	if _, err := det.Update(inserts, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Update(nil, deletes); err != nil {
		t.Fatal(err)
	}
	// The warm-up call compacts 2,000 live of 4,000 slots, the measured one
	// the 2,000 dense slots it leaves.
	allocs := testing.AllocsPerRun(1, func() { det.Compact() })
	if allocs > 32 {
		t.Errorf("%.0f allocations per Compact of %d live points, want at most 32", allocs, det.Len())
	}
}

// TestUpdateMatchesRefit drives random batches of 1–300 inserts and deletes
// through Update on tie-heavy lattice data and checks every live LOF
// against a batch fit, bit for bit, after each one. Batches delete slots
// they insert themselves, empty the window, and cross MinPts+1 live points
// in both directions, including from 2..MinPts live points, whose rows are
// not full: there a k-distance says nothing about who a new point joins,
// and the batch must rebuild.
func TestUpdateMatchesRefit(t *testing.T) {
	const minPts = 4
	rng := rand.New(rand.NewSource(109))
	det, err := New(2, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	site := func() geom.Point { return geom.Point{float64(rng.Intn(9)), float64(rng.Intn(9))} }
	var live []int
	crossedUp, crossedDown := 0, 0
	for step := 0; step < 150; step++ {
		var nIns, nDel int
		switch step % 5 {
		case 0: // empty the window, then refill to 0..MinPts points
			nDel, nIns = len(live), rng.Intn(minPts+1)
		case 1: // cross MinPts+1 upward
			nIns = minPts + 2 + rng.Intn(20)
		case 2: // cross MinPts+1 downward when the window is big enough
			if len(live) > minPts+1 {
				nDel = len(live) - minPts + rng.Intn(minPts)
				if nDel > len(live) {
					nDel = len(live)
				}
			}
			nIns = rng.Intn(3)
		default:
			nIns = 1 + rng.Intn(300)
			nDel = rng.Intn(min(len(live), 300) + 1)
		}
		inserts := make([]geom.Point, nIns)
		for j := range inserts {
			inserts[j] = site()
		}
		rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
		deletes := append([]int(nil), live[:nDel]...)
		live = live[nDel:]
		first := det.Size()
		for j := 0; j < nIns; j++ {
			if rng.Intn(8) == 0 { // inserted and deleted by the same batch
				deletes = append(deletes, first+j)
			} else {
				live = append(live, first+j)
			}
		}
		rng.Shuffle(len(deletes), func(a, b int) { deletes[a], deletes[b] = deletes[b], deletes[a] })
		before := det.Len()
		got, err := det.Update(inserts, deletes)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got != first {
			t.Fatalf("step %d: first=%d, want %d", step, got, first)
		}
		if det.Len() != len(live) {
			t.Fatalf("step %d: Len=%d, want %d", step, det.Len(), len(live))
		}
		if before >= 2 && before <= minPts && det.Len() > minPts+1 {
			crossedUp++
		}
		if before > minPts+1 && det.Len() <= minPts+1 {
			crossedDown++
		}
		for _, i := range deletes {
			if !math.IsNaN(det.LOF(i)) {
				t.Fatalf("step %d: deleted slot %d reports %v", step, i, det.LOF(i))
			}
		}
		if det.Len() <= minPts {
			continue
		}
		pts, slots := liveView(t, det)
		want := batchLOFs(t, pts, minPts)
		for j, i := range slots {
			if math.Float64bits(det.LOF(i)) != math.Float64bits(want[j]) {
				t.Fatalf("step %d (%d → %d live): slot %d LOF %v, batch fit %v", step, before, det.Len(), i, det.LOF(i), want[j])
			}
		}
	}
	if crossedUp == 0 || crossedDown == 0 {
		t.Fatalf("crossed MinPts+1 upward from 2..MinPts %d times and downward %d times, want both", crossedUp, crossedDown)
	}
}

// TestUpdateValidatesWholeBatch pins that a rejected batch changes
// nothing: one bad insert or delete anywhere in it refuses all of it.
func TestUpdateValidatesWholeBatch(t *testing.T) {
	det, err := New(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := det.Insert(geom.Point{float64(i), float64(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := det.Delete(4); err != nil {
		t.Fatal(err)
	}
	before := det.LOFs()
	ok := []geom.Point{{0.5, 0.5}, {7, 1}}
	for _, c := range []struct {
		name    string
		inserts []geom.Point
		deletes []int
	}{
		{"wrong dimension", []geom.Point{{1, 1}, {1}}, []int{0}},
		{"non-finite coordinate", []geom.Point{{1, math.Inf(1)}}, nil},
		{"deleted slot", ok, []int{1, 4}},
		{"slot past the batch", ok, []int{12}},
		{"negative slot", ok, []int{-1}},
		{"slot deleted twice", ok, []int{2, 11, 2}},
		{"new slot deleted twice", ok, []int{10, 10}},
	} {
		if _, err := det.Update(c.inserts, c.deletes); err == nil {
			t.Errorf("%s: batch accepted", c.name)
		}
		if det.Size() != 10 || det.Len() != 9 {
			t.Fatalf("%s: Size=%d Len=%d after a rejected batch, want 10 and 9", c.name, det.Size(), det.Len())
		}
		for i, v := range det.LOFs() {
			if math.Float64bits(v) != math.Float64bits(before[i]) {
				t.Fatalf("%s: slot %d LOF %v → %v after a rejected batch", c.name, i, before[i], v)
			}
		}
	}
}
