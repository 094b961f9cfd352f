package incremental

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"lof/internal/dataset"
	"lof/internal/geom"
	"lof/internal/index"
)

// state is a detector's full state with every float as its bits, so that
// equal states are equal bit for bit.
type state struct {
	Size, Len, LastAffected int
	Deleted                 []bool
	Coords                  [][]uint64
	Rows                    [][][2]uint64 // (slot, distance bits) per neighbor
	KDist, LRD, LOF         []uint64
	// KNN is the kNN-with-ties answer from every live slot through the
	// detector's own cursor (nil at deleted slots).
	KNN [][][2]uint64
}

func bits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func neighborBits(ns []index.Neighbor) [][2]uint64 {
	var out [][2]uint64
	for _, nb := range ns {
		out = append(out, [2]uint64{uint64(nb.Index), math.Float64bits(nb.Dist)})
	}
	return out
}

// stateOf deep-copies d's state.
func stateOf(d *Detector) state {
	s := state{Size: d.Size(), Len: d.Len(), LastAffected: d.lastAffected,
		KDist: bits(d.kdist), LRD: bits(d.lrd), LOF: bits(d.lof)}
	for _, row := range d.nn {
		s.Rows = append(s.Rows, neighborBits(row))
	}
	for i := 0; i < d.Size(); i++ {
		s.Deleted = append(s.Deleted, d.Deleted(i))
		s.Coords = append(s.Coords, bits(d.At(i)))
		var knn [][2]uint64
		if !d.Deleted(i) {
			knn = neighborBits(index.KNNWithTiesInto(d.cur, nil, d.At(i), d.minPts, i))
		}
		s.KNN = append(s.KNN, knn)
	}
	return s
}

// diff names the first field and slot where two states differ, or returns
// "" when they are equal.
func diff(got, want state) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for f := 0; f < g.NumField(); f++ {
		gf, wf := g.Field(f), w.Field(f)
		if reflect.DeepEqual(gf.Interface(), wf.Interface()) {
			continue
		}
		name := g.Type().Field(f).Name
		if gf.Kind() != reflect.Slice {
			return fmt.Sprintf("%s %v, want %v", name, gf, wf)
		}
		if gf.Len() != wf.Len() {
			return fmt.Sprintf("%s has %d slots, want %d", name, gf.Len(), wf.Len())
		}
		for i := 0; i < gf.Len(); i++ {
			if !reflect.DeepEqual(gf.Index(i).Interface(), wf.Index(i).Interface()) {
				return fmt.Sprintf("%s[%d] = %v, want %v", name, i, gf.Index(i), wf.Index(i))
			}
		}
	}
	return ""
}

// coverage counts what a mirrored schedule exercised.
type coverage struct {
	rebuilds, compactions, selfDeletes, inserts int
}

// runMirrored drives src with Update (and Compact) and dst with Mirror
// over steps batches drawn from intn, on 1-d integer sites, where ties and
// duplicates are everywhere. After every batch dst must hold src's full
// state bit for bit, and before it mirrors the next one it must still hold
// what it held: a mirror that shared storage with its source would change
// when the source updates.
func runMirrored(t *testing.T, minPts, steps int, intn func(int) int) coverage {
	t.Helper()
	src, err := New(1, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(1, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cov coverage
	var live []int
	prev := stateOf(dst)
	for step := 0; step < steps; step++ {
		var nIns, nDel int
		switch intn(6) {
		case 0: // empty the window, then refill to at most MinPts+1 points
			nDel, nIns = len(live), intn(minPts+2)
		case 1: // fall to MinPts+1 live points or fewer
			if len(live) > minPts+1 {
				nDel = len(live) - minPts - 1 + intn(minPts+2)
			}
			nDel = min(nDel, len(live))
		default:
			nIns, nDel = intn(48), intn(len(live)+1)
		}
		inserts := make([]geom.Point, nIns)
		for j := range inserts {
			inserts[j] = geom.Point{float64(intn(16))}
		}
		for j := len(live) - 1; j > 0; j-- {
			k := intn(j + 1)
			live[j], live[k] = live[k], live[j]
		}
		deletes := append([]int(nil), live[:nDel]...)
		live = live[nDel:]
		first := src.Size()
		for j := range inserts {
			if intn(8) == 0 {
				deletes = append(deletes, first+j)
				cov.selfDeletes++
			} else {
				live = append(live, first+j)
			}
		}
		compact := intn(5) == 0

		before := src.Len()
		if _, err := src.Update(inserts, deletes); err != nil {
			t.Fatalf("step %d: Update: %v", step, err)
		}
		if before <= minPts || src.Len() <= minPts+1 {
			cov.rebuilds++
		}
		if compact {
			remap := src.Compact()
			for j, i := range live {
				live[j] = remap[i]
			}
			cov.compactions++
		}
		cov.inserts += nIns
		if d := diff(stateOf(dst), prev); d != "" {
			t.Fatalf("step %d: the mirror changed when its source updated: %s", step, d)
		}
		if err := dst.Mirror(src, inserts, deletes, compact); err != nil {
			t.Fatalf("step %d: Mirror: %v", step, err)
		}
		prev = stateOf(dst)
		if d := diff(prev, stateOf(src)); d != "" {
			t.Fatalf("step %d (%d inserts, %d deletes, compact %v): mirror %s", step, nIns, len(deletes), compact, d)
		}
		if compact {
			for _, c := range []int{cap(dst.nn), cap(dst.kdist), cap(dst.lrd), cap(dst.lof)} {
				if c != dst.Len() {
					t.Fatalf("step %d: compacted mirror keeps capacity %d for %d live points", step, c, dst.Len())
				}
			}
		}
	}
	return cov
}

// TestMirrorMatchesUpdate holds a detector that only mirrors to one that
// updates, bit for bit, over a fixed schedule that crosses MinPts+1 both
// ways (the rebuildAll path), deletes slots its own batches insert,
// inserts enough to rebuild the index's base many times, and compacts.
func TestMirrorMatchesUpdate(t *testing.T) {
	for minPts := 1; minPts <= 4; minPts++ {
		rng := rand.New(rand.NewSource(int64(113 + minPts)))
		cov := runMirrored(t, minPts, 200, rng.Intn)
		if cov.rebuilds == 0 || cov.compactions == 0 || cov.selfDeletes == 0 || cov.inserts < 1000 {
			t.Fatalf("MinPts %d: schedule covered %+v, want rebuilds, compactions, same-batch deletes and 1000+ inserts", minPts, cov)
		}
	}
}

// TestMirrorRefusesMismatch pins that Mirror refuses a batch its source
// did not apply, or one the destination cannot apply, and changes nothing.
func TestMirrorRefusesMismatch(t *testing.T) {
	src, err := New(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{{0}, {1}, {1}, {3}, {4}}
	if _, err := src.Update(pts, nil); err != nil {
		t.Fatal(err)
	}
	if err := dst.Mirror(src, pts, nil, false); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Update([]geom.Point{{2}}, []int{0}); err != nil {
		t.Fatal(err)
	}
	want := stateOf(dst)
	for _, c := range []struct {
		name    string
		inserts []geom.Point
		deletes []int
		compact bool
	}{
		{"missing delete", []geom.Point{{2}}, nil, false},
		{"extra insert", []geom.Point{{2}, {5}}, []int{0}, false},
		{"compaction the source did not run", []geom.Point{{2}}, []int{0}, true},
		{"invalid delete", []geom.Point{{2}}, []int{9}, false},
	} {
		if err := dst.Mirror(src, c.inserts, c.deletes, c.compact); err == nil {
			t.Errorf("%s: mirrored", c.name)
		}
		if d := diff(stateOf(dst), want); d != "" {
			t.Fatalf("%s: a refused mirror changed the detector: %s", c.name, d)
		}
	}
}

// FuzzDetectorCopy is runMirrored over fuzzed schedules: the first byte
// picks MinPts in 1..4, every later byte one choice.
func FuzzDetectorCopy(f *testing.F) {
	f.Add([]byte{1, 2, 40, 3, 7, 1, 0, 9, 2, 2, 30, 5, 1, 4, 0, 0, 3})
	f.Add([]byte{3, 3, 47, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 0, 1, 0})
	grow := []byte{0, 2, 47}
	for i := 0; i < 47; i++ {
		grow = append(grow, byte(i%16), 1)
	}
	f.Add(append(grow, 0, 0, 3, 1, 1, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		intn := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		minPts := 1 + intn(4)
		runMirrored(t, minPts, min(len(data)/4+1, 64), intn)
	})
}

// TestMirrorAllocs pins the mirror to a memory copy on TestUpdateAllocs'
// shape: mirroring each single-point update allocates no more than the
// update did.
func TestMirrorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	const window, minPts, pairs = 2000, 10, 400
	src := dataset.RandomClusters(3, window+pairs+1, 4, 5).Points
	a, err := New(4, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(4, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	prime := make([]geom.Point, window)
	for i := range prime {
		prime[i] = src.At(i)
	}
	if _, err := a.Update(prime, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Mirror(a, prime, nil, false); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	var updates, mirrors uint64
	ins, del := make([]geom.Point, 1), make([]int, 1)
	step := func(inserts []geom.Point, deletes []int) {
		m0 := mallocs()
		if _, err := a.Update(inserts, deletes); err != nil {
			t.Fatal(err)
		}
		m1 := mallocs()
		if err := b.Mirror(a, inserts, deletes, false); err != nil {
			t.Fatal(err)
		}
		m2 := mallocs()
		updates += m1 - m0
		mirrors += m2 - m1
	}
	for i := 0; i < pairs; i++ {
		ins[0], del[0] = src.At(window+i), i
		step(ins, nil)
		step(nil, del)
	}
	if mirrors > updates {
		t.Errorf("mirrors allocated %d times over %d insert+delete pairs, the updates they mirror %d", mirrors, pairs, updates)
	}
	if perPair := float64(mirrors) / pairs; perPair > 5 {
		t.Errorf("%.1f allocations per mirrored insert+delete pair, want at most 5", perPair)
	}
}
