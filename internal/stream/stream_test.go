package stream_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lof"
	"lof/internal/geom"
	"lof/internal/server"
	"lof/internal/stream"
)

// checkOracle compares the published epoch against from-scratch batch
// fits, Float64bits equality being the acceptance bar for the whole
// pipeline. Three probes — a live point, the midpoint of two live points
// and a far point — must score what a fit over the window plus the probe
// gives it, from live = MinPts on (the smallest window that fit accepts);
// the maintained LOFs must equal a fit over the window once live exceeds
// MinPts+1. A concurrent writer can publish between the reads; then the
// check is skipped rather than compared across epochs (single-writer
// tests never hit this).
func checkOracle(t *testing.T, p *stream.Pipeline) {
	t.Helper()
	data, seq := p.Window()
	if len(data) < p.MinPts() {
		return
	}
	a, b := data[0], data[len(data)/2]
	mid := make(geom.Point, len(a))
	far := make(geom.Point, len(a))
	for d := range a {
		mid[d] = (a[d] + b[d]) / 2
		far[d] = 1e3 + a[d]
	}
	probes := []geom.Point{a, mid, far}
	scores, sseq, err := p.ScoreBatch(probes)
	if err != nil {
		t.Fatal(err)
	}
	if sseq != seq {
		return
	}
	for j, q := range probes {
		if want := refitScore(t, data, q, p.MinPts()); math.Float64bits(scores[j]) != math.Float64bits(want) {
			t.Fatalf("epoch %d: probe %v scored %v, refit with it %v (bits differ)", seq, q, scores[j], want)
		}
	}

	if len(data) <= p.MinPts()+1 {
		return
	}
	want, err := lof.Scores(data, p.MinPts())
	if err != nil {
		t.Fatal(err)
	}
	ids, lofs, lseq := p.LOFs()
	if lseq != seq {
		return
	}
	if len(lofs) != len(want) {
		t.Fatalf("epoch %d: %d live LOFs but %d refit scores", seq, len(lofs), len(want))
	}
	for j := range want {
		if math.Float64bits(lofs[j]) != math.Float64bits(want[j]) {
			t.Fatalf("epoch %d: id %d LOF=%v refit=%v (bits differ)", seq, ids[j], lofs[j], want[j])
		}
	}
}

// refitScore is the out-of-sample oracle: the LOF q receives from a batch
// fit over window ∪ {q}, q last.
func refitScore(t *testing.T, window [][]float64, q geom.Point, minPts int) float64 {
	t.Helper()
	data := append(window[:len(window):len(window)], q)
	scores, err := lof.Scores(data, minPts)
	if err != nil {
		t.Fatal(err)
	}
	return scores[len(scores)-1]
}

// TestOracleRandomOps drives random batched inserts, explicit deletes and
// count-based expiry, checking every published epoch against the batch
// refit bit for bit.
func TestOracleRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	p, err := stream.New(stream.Config{Dim: 2, MinPts: 4, MaxPoints: 60})
	if err != nil {
		t.Fatal(err)
	}
	var live []uint64
	for batch := 0; batch < 60; batch++ {
		var u stream.Update
		for n := rng.Intn(6); n > 0; n-- {
			pt := geom.Point{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
			switch rng.Intn(10) {
			case 0:
				pt = geom.Point{3, 3} // duplicate pocket
			case 1:
				pt = geom.Point{80 + rng.NormFloat64(), -40} // far outlier
			}
			u.Inserts = append(u.Inserts, pt)
		}
		for n := rng.Intn(3); n > 0 && len(live) > 0; n-- {
			j := rng.Intn(len(live))
			u.Deletes = append(u.Deletes, live[j])
			live = append(live[:j], live[j+1:]...)
		}
		res, err := p.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, res.Inserted...)
		dead := map[uint64]bool{}
		for _, id := range res.Expired {
			dead[id] = true
		}
		if len(dead) > 0 {
			kept := live[:0]
			for _, id := range live {
				if !dead[id] {
					kept = append(kept, id)
				}
			}
			live = kept
		}
		if res.Live != len(live) {
			t.Fatalf("batch %d: pipeline live=%d, test tracks %d", batch, res.Live, len(live))
		}
		if res.Live > 60 {
			t.Fatalf("batch %d: window overflow: live=%d > MaxPoints=60", batch, res.Live)
		}
		if res.Seq != p.Seq() {
			t.Fatalf("batch %d: result seq %d != published %d", batch, res.Seq, p.Seq())
		}
		checkOracle(t, p)
	}
	st := p.Stats()
	if st.Inserts == 0 || st.Expired == 0 || st.Deletes == 0 {
		t.Fatalf("stats did not count: %+v", st)
	}
}

// TestConcurrentReadersDuringWrites is the acceptance-criterion test:
// concurrent readers score against published epochs while the writer
// applies batches, under -race, and every published epoch still matches
// the batch refit bit for bit.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	p, err := stream.New(stream.Config{Dim: 2, MinPts: 5, MaxPoints: 120})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var lastSeq uint64
			for !stop.Load() {
				q := geom.Point{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
				vs, seq, err := p.ScoreBatch([]geom.Point{q})
				if err != nil {
					t.Error(err)
					return
				}
				v := vs[0]
				if math.IsNaN(v) {
					t.Errorf("reader got NaN score at epoch %d", seq)
					return
				}
				if seq < lastSeq {
					t.Errorf("epoch went backwards: %d after %d", seq, lastSeq)
					return
				}
				lastSeq = seq
				if rng.Intn(8) == 0 {
					if _, _, err := p.ScoreBatch([]geom.Point{q, {0, 0}}); err != nil {
						t.Error(err)
						return
					}
				}
				if rng.Intn(8) == 0 {
					_, lofs, _ := p.LOFs()
					for _, l := range lofs {
						if math.IsNaN(l) {
							t.Error("NaN LOF served for a live point")
							return
						}
					}
				}
			}
		}(int64(400 + r))
	}
	rng := rand.New(rand.NewSource(399))
	var live []uint64
	for batch := 0; batch < 40; batch++ {
		var u stream.Update
		for n := 3 + rng.Intn(5); n > 0; n-- {
			u.Inserts = append(u.Inserts, geom.Point{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
		}
		for n := rng.Intn(2); n > 0 && len(live) > 5; n-- {
			j := rng.Intn(len(live))
			u.Deletes = append(u.Deletes, live[j])
			live = append(live[:j], live[j+1:]...)
		}
		res, err := p.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, res.Inserted...)
		dead := map[uint64]bool{}
		for _, id := range res.Expired {
			dead[id] = true
		}
		kept := live[:0]
		for _, id := range live {
			if !dead[id] {
				kept = append(kept, id)
			}
		}
		live = kept
		checkOracle(t, p)
	}
	stop.Store(true)
	wg.Wait()
}

// TestScoreMatchesRefitWithQuery pins the served score's contract
// end-to-end: Score(q) equals the LOF q receives from a batch fit over
// window ∪ {q}.
func TestScoreMatchesRefitWithQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	p, err := stream.New(stream.Config{Dim: 2, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	var u stream.Update
	for i := 0; i < 50; i++ {
		u.Inserts = append(u.Inserts, geom.Point{rng.NormFloat64(), rng.NormFloat64()})
	}
	if _, err := p.Apply(u); err != nil {
		t.Fatal(err)
	}
	for _, q := range []geom.Point{{0, 0}, {4, -4}, {0.3, 0.1}} {
		got, _, err := p.ScoreBatch([]geom.Point{q})
		if err != nil {
			t.Fatal(err)
		}
		data, _ := p.Window()
		data = append(data, []float64(q))
		want, err := lof.Scores(data, p.MinPts())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[0]) != math.Float64bits(want[len(want)-1]) {
			t.Fatalf("Score(%v)=%v, refit=%v (bits differ)", q, got[0], want[len(want)-1])
		}
	}
}

// TestExpiryByAge drives a pipeline bounded by MaxAge: points inserted
// more than MaxAge before a batch's Now are expired by that batch.
func TestExpiryByAge(t *testing.T) {
	p, err := stream.New(stream.Config{Dim: 1, MinPts: 2, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1_700_000_000, 0)
	r1, err := p.Apply(stream.Update{
		Inserts: []geom.Point{{0}, {1}, {2}, {3}, {4}, {5}},
		Now:     t0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 30 minutes later: nothing expires.
	r2, err := p.Apply(stream.Update{
		Inserts: []geom.Point{{6}, {7}},
		Now:     t0.Add(30 * time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Expired) != 0 || r2.Live != 8 {
		t.Fatalf("early batch expired %v, live=%d", r2.Expired, r2.Live)
	}
	// 61 minutes after t0: the first batch ages out, the second stays.
	r3, err := p.Apply(stream.Update{Now: t0.Add(61 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Expired) != len(r1.Inserted) {
		t.Fatalf("expired %d ids, want the whole first batch (%d)", len(r3.Expired), len(r1.Inserted))
	}
	if r3.Live != 2 {
		t.Fatalf("live=%d after age expiry, want 2", r3.Live)
	}
	checkOracle(t, p)
}

// TestApplyRejectsBadBatches pins atomic batch semantics: a bad delete or
// insert rejects the whole batch and publishes nothing.
func TestApplyRejectsBadBatches(t *testing.T) {
	p, err := stream.New(stream.Config{Dim: 2, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Apply(stream.Update{Inserts: []geom.Point{{0, 0}, {1, 1}, {2, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	seq := p.Seq()
	if _, err := p.Apply(stream.Update{Deletes: []uint64{999}}); err == nil {
		t.Error("unknown delete id accepted")
	}
	if _, err := p.Apply(stream.Update{
		Inserts: []geom.Point{{1, 2}},
		Deletes: []uint64{res.Inserted[0], res.Inserted[0]},
	}); err == nil {
		t.Error("duplicate delete id accepted")
	}
	if _, err := p.Apply(stream.Update{Inserts: []geom.Point{{1}}}); err == nil {
		t.Error("wrong-dimension insert accepted")
	}
	if _, err := p.Apply(stream.Update{Inserts: []geom.Point{{math.NaN(), 0}}}); err == nil {
		t.Error("NaN insert accepted")
	}
	if p.Seq() != seq {
		t.Errorf("rejected batches advanced the epoch: %d → %d", seq, p.Seq())
	}
	if st := p.Stats(); st.Live != 3 {
		t.Errorf("live=%d after rejected batches, want 3", st.Live)
	}
}

// TestInsertDoesNotRetainCallerBuffer is the satellite regression at the
// pipeline level: reusing one coordinate buffer across batches must not
// change any published score.
func TestInsertDoesNotRetainCallerBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	reused, err := stream.New(stream.Config{Dim: 2, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	cloned, err := stream.New(stream.Config{Dim: 2, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := make(geom.Point, 2)
	for i := 0; i < 25; i++ {
		buf[0], buf[1] = rng.NormFloat64(), rng.NormFloat64()
		if _, err := reused.Apply(stream.Update{Inserts: []geom.Point{buf}}); err != nil {
			t.Fatal(err)
		}
		if _, err := cloned.Apply(stream.Update{Inserts: []geom.Point{buf.Clone()}}); err != nil {
			t.Fatal(err)
		}
		buf[0], buf[1] = -1e12, 1e12
	}
	_, a, _ := reused.LOFs()
	_, b, _ := cloned.LOFs()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("slot %d: reused-buffer LOF %v != cloned %v", i, a[i], b[i])
		}
	}
}

// TestCompactionTriggersAndPreservesScores runs enough churn through a
// small window to cross the compaction floor, then verifies the slot
// count shrank and the oracle still holds.
func TestCompactionTriggersAndPreservesScores(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	p, err := stream.New(stream.Config{Dim: 2, MinPts: 3, MaxPoints: 40})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 60; batch++ {
		var u stream.Update
		for n := 0; n < 12; n++ {
			u.Inserts = append(u.Inserts, geom.Point{rng.NormFloat64(), rng.NormFloat64()})
		}
		if _, err := p.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d inserts in a 40-point window: %+v", st.Inserts, st)
	}
	// Slot growth is bounded by the compaction threshold (the 256-dead
	// floor plus one batch of slack), not by the 720 points ever inserted.
	if st.Slots > st.Live+256+12 {
		t.Fatalf("slots=%d live=%d: compaction is not bounding tombstones", st.Slots, st.Live)
	}
	checkOracle(t, p)
}

// TestConfigValidation covers constructor rejections.
func TestConfigValidation(t *testing.T) {
	bad := []stream.Config{
		{Dim: 0, MinPts: 3},
		{Dim: 2, MinPts: 0},
		{Dim: 2, MinPts: 3, Metric: "nosuch"},
		{Dim: 2, MinPts: 3, MaxPoints: -1},
		{Dim: 2, MinPts: 3, MaxAge: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := stream.New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// FuzzStreamOps drives arbitrary op sequences — batched inserts with
// duplicate-prone coordinates, deletes (including delete-then-reinsert
// patterns), and window shrinkage below MinPts+1 — and checks the refit
// oracle at every epoch.
func FuzzStreamOps(f *testing.F) {
	f.Add([]byte{0x10, 0x21, 0x32, 0x80, 0x43, 0x91, 0x54, 0x65, 0x76, 0x80})
	f.Add([]byte{0x10, 0x10, 0x10, 0x10, 0x80, 0x80, 0x80, 0x10})             // duplicates, shrink to empty
	f.Add([]byte{0x15, 0x26, 0x80, 0x15, 0x80, 0x15})                         // delete-then-reinsert same site
	f.Add([]byte{0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0xc0, 0xc1, 0xc2}) // batch then explicit deletes
	// Two copies of one site, then two of another in one push: the push
	// starts from MinPts live points, whose rows are not full, so their
	// k-distance of 0 must not keep the new points out of them.
	f.Add([]byte("11\x8500"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := stream.New(stream.Config{Dim: 1, MinPts: 2, MaxPoints: 12})
		if err != nil {
			t.Fatal(err)
		}
		var live []uint64
		var u stream.Update
		flush := func() {
			res, err := p.Apply(u)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			u = stream.Update{}
			live = append(live, res.Inserted...)
			dead := map[uint64]bool{}
			for _, id := range res.Expired {
				dead[id] = true
			}
			kept := live[:0]
			for _, id := range live {
				if !dead[id] {
					kept = append(kept, id)
				}
			}
			live = kept
			if res.Live != len(live) {
				t.Fatalf("live=%d, tracked %d", res.Live, len(live))
			}
			checkOracle(t, p)
		}
		for _, b := range data {
			switch {
			case b < 0x80: // stage an insert; low nibble picks a site
				u.Inserts = append(u.Inserts, geom.Point{float64(b & 0x0f)})
			case b < 0xc0: // flush the staged batch
				flush()
			default: // stage a delete of a tracked live id
				if len(live) == 0 {
					continue
				}
				id := live[int(b&0x3f)%len(live)]
				live = append(live[:int(b&0x3f)%len(live)], live[int(b&0x3f)%len(live)+1:]...)
				u.Deletes = append(u.Deletes, id)
			}
		}
		flush()
	})
}

// TestScoreBatchMatchesRefitOnLattice is the out-of-sample oracle on
// tie-heavy data: a 300-point count window on a 12×12 integer lattice, so
// duplicates and equal distances are everywhere, churned by explicit
// deletes, expiry and at least one compaction. Every one of 250 queries —
// lattice points, half-offsets, uniform points and far points — must
// score bit for bit what a batch fit over window ∪ {q} gives q, and what
// the model server.FreezeStream builds from the same epoch scores it.
func TestScoreBatchMatchesRefitOnLattice(t *testing.T) {
	for _, minPts := range []int{3, 5, 10} {
		t.Run(fmt.Sprintf("MinPts=%d", minPts), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(600 + minPts)))
			p, err := stream.New(stream.Config{Dim: 2, MinPts: minPts, MaxPoints: 300})
			if err != nil {
				t.Fatal(err)
			}
			site := func() geom.Point { return geom.Point{float64(rng.Intn(12)), float64(rng.Intn(12))} }
			var live []uint64
			for batch := 0; batch < 30 || p.Stats().Live < 300; batch++ {
				var u stream.Update
				for n := 0; n < 30; n++ {
					u.Inserts = append(u.Inserts, site())
				}
				for n := rng.Intn(4); n > 0 && len(live) > 0; n-- {
					j := rng.Intn(len(live))
					u.Deletes = append(u.Deletes, live[j])
					live = append(live[:j], live[j+1:]...)
				}
				res, err := p.Apply(u)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, res.Inserted...)
				dead := map[uint64]bool{}
				for _, id := range res.Expired {
					dead[id] = true
				}
				kept := live[:0]
				for _, id := range live {
					if !dead[id] {
						kept = append(kept, id)
					}
				}
				live = kept
			}
			if st := p.Stats(); st.Deletes == 0 || st.Expired == 0 || st.Compactions == 0 || st.Live != 300 {
				t.Fatalf("churn did not cover deletes, expiry and compaction: %+v", st)
			}

			queries := make([]geom.Point, 250)
			for i := range queries {
				q := site()
				switch i % 4 {
				case 1:
					q[rng.Intn(2)] += 0.5
				case 2:
					q = geom.Point{rng.Float64()*13 - 0.5, rng.Float64()*13 - 0.5}
				case 3:
					q = geom.Point{q[0] + 100 + rng.Float64()*100, q[1] - 200}
				}
				queries[i] = q
			}
			got, seq, err := p.ScoreBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			data, dseq := p.Window()
			m, mseq, err := server.FreezeStream(p)
			if err != nil {
				t.Fatal(err)
			}
			if dseq != seq || mseq != seq {
				t.Fatalf("epochs differ: score %d, window %d, freeze %d", seq, dseq, mseq)
			}
			rows := make([][]float64, len(queries))
			for i, q := range queries {
				rows[i] = q
			}
			frozen, err := m.ScoreBatch(rows)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				want := refitScore(t, data, q, minPts)
				if math.Float64bits(got[i]) != math.Float64bits(want) || math.Float64bits(frozen[i]) != math.Float64bits(want) {
					t.Fatalf("query %d %v: stream %v, frozen model %v, refit %v (bits differ)", i, q, got[i], frozen[i], want)
				}
			}
		})
	}
}

// TestScoreBatchAllocsPerQuery pins the stream's out-of-sample scoring to
// at most three allocations per query, the budget Model.ScoreBatch keeps.
func TestScoreBatchAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race, so pooled scratch reallocates")
	}
	const perQuery = 3
	rng := rand.New(rand.NewSource(11))
	uniform := func(n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		}
		return pts
	}
	p, err := stream.New(stream.Config{Dim: 4, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply(stream.Update{Inserts: uniform(2000)}); err != nil {
		t.Fatal(err)
	}
	queries := uniform(64)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := p.ScoreBatch(queries); err != nil {
			t.Fatal(err)
		}
	})
	if got := allocs / float64(len(queries)); got > perQuery {
		t.Errorf("%.2f allocations per query, want at most %d", got, perQuery)
	}
}

// TestHugeMinPtsStaysSmall pins that MinPts sizes nothing by itself: the
// dynamic index's kNN heap grows with the candidates it holds, so a score
// against an empty window at MinPts 2^22 allocates kilobytes, not the
// 64 MB a MinPts-sized heap would take, and the largest accepted MinPts,
// 2^31−1 — a 32 GB heap — still pushes and scores. Above it, where the
// evaluators' MinPts arithmetic would overflow, New refuses.
func TestHugeMinPtsStaysSmall(t *testing.T) {
	p, err := stream.New(stream.Config{Dim: 2, MinPts: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scores, _, err := p.ScoreBatch([]geom.Point{{0, 0}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] != 1 {
		t.Errorf("query against an empty window scored %v, want 1", scores[0])
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("one score at MinPts 2^22 allocated %d bytes, want under 64 KB", got)
	}

	p, err = stream.New(stream.Config{Dim: 2, MinPts: math.MaxInt32})
	if err != nil {
		t.Fatal(err)
	}
	if scores, _, err := p.ScoreBatch([]geom.Point{{5, 5}}); err != nil || scores[0] != 1 {
		t.Fatalf("score against an empty window at MinPts 2^31−1: %v, %v", scores, err)
	}
	if _, err := p.Apply(stream.Update{Inserts: []geom.Point{{0, 0}, {1, 0}, {0, 2}}}); err != nil {
		t.Fatal(err)
	}
	if scores, _, err := p.ScoreBatch([]geom.Point{{5, 5}}); err != nil || math.IsNaN(scores[0]) {
		t.Fatalf("score at MinPts 2^31−1: %v, %v", scores, err)
	}

	for _, minPts := range []int{math.MaxInt32 + 1, 1 << 45, math.MaxInt} {
		if _, err := stream.New(stream.Config{Dim: 2, MinPts: minPts}); err == nil {
			t.Errorf("New accepted MinPts %d", minPts)
		}
	}
}
