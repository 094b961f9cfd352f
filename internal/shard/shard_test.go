package shard_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"lof"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/linear"
	"lof/internal/matdb"
	"lof/internal/shard"
)

// fitModel fits a small clustered dataset (plus outliers, plus exact
// duplicates so distinct mode has work to do) and returns the fitted pieces.
func fitModel(t *testing.T, distinct bool) (*lof.Model, *geom.Points, *matdb.DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var data [][]float64
	for c := 0; c < 3; c++ {
		cx, cy := float64(c*10), float64(c*5)
		for i := 0; i < 40; i++ {
			data = append(data, []float64{cx + rng.NormFloat64(), cy + rng.NormFloat64()})
		}
	}
	data = append(data, []float64{50, -40}, []float64{-30, 60})
	// Exact duplicates exercise the distinct-rank machinery.
	for i := 0; i < 6; i++ {
		data = append(data, []float64{1.5, 2.5})
	}
	det, err := lof.New(lof.Config{MinPtsLB: 3, MinPtsUB: 9, Distinct: distinct})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	pts, db := m.Fitted()
	return m, pts, db
}

func testQueries(pts *geom.Points) []geom.Point {
	rng := rand.New(rand.NewSource(11))
	qs := []geom.Point{
		{0, 0}, {10, 5}, {20, 10}, {45, -35}, {1.5, 2.5}, // on a duplicate pile
	}
	for i := 0; i < 10; i++ {
		p := pts.At(rng.Intn(pts.Len()))
		qs = append(qs, geom.Point{p[0] + rng.NormFloat64()*0.3, p[1] + rng.NormFloat64()*0.3})
	}
	return qs
}

func rowsEqual(t *testing.T, ctxt string, got, want matdb.Row) {
	t.Helper()
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("%s: %d neighbors, want %d", ctxt, len(got.Neighbors), len(want.Neighbors))
	}
	for i := range got.Neighbors {
		if got.Neighbors[i] != want.Neighbors[i] {
			t.Fatalf("%s: neighbor %d = %+v, want %+v", ctxt, i, got.Neighbors[i], want.Neighbors[i])
		}
	}
	gr, wr := got.Ranks(), want.Ranks()
	if len(gr) != len(wr) {
		t.Fatalf("%s: %d ranks, want %d", ctxt, len(gr), len(wr))
	}
	for i := range gr {
		if gr[i] != wr[i] {
			t.Fatalf("%s: rank %d = %d, want %d", ctxt, i, gr[i], wr[i])
		}
	}
}

// candidates asks one part for q's candidates through a one-query frame.
func candidates(t *testing.T, p *shard.Part, q geom.Point) *shard.Frame {
	t.Helper()
	out, err := p.Reply(&shard.Frame{Kind: shard.KindCandidatesRequest, Distinct: p.Meta().Distinct, Version: p.Version(), Dim: len(q), Queries: q})
	if err != nil {
		t.Fatalf("candidates: %v", err)
	}
	return out
}

// gatherMerged scatter-gathers q's candidates across the parts and merges
// them with distinct-rank coordinates from the fitted points — the
// coordinator's candidates round, run in-process.
func gatherMerged(t *testing.T, parts []*shard.Part, pts *geom.Points, db *matdb.DB, q geom.Point) matdb.Row {
	t.Helper()
	var cands []index.Neighbor
	for _, p := range parts {
		cands = append(cands, candidates(t, p, q).Entries...)
	}
	row, err := matdb.MergeCandidates(cands, pts.At, db.K, db.IsDistinct())
	if err != nil {
		t.Fatalf("MergeCandidates: %v", err)
	}
	return row
}

func testSplitExact(t *testing.T, distinct bool) {
	_, pts, db := fitModel(t, distinct)
	metric, _ := geom.MetricByName("euclidean")
	ix := linear.New(pts, metric)
	meta := shard.Meta{Metric: "euclidean"}
	for _, n := range []int{1, 2, 3, 5} {
		for _, parter := range []shard.Partitioner{shard.PartitionHash, shard.PartitionRange} {
			parts, err := shard.Split(pts, db, meta, n, parter, 42)
			if err != nil {
				t.Fatalf("Split(n=%d, %v): %v", n, parter, err)
			}
			total := 0
			for _, p := range parts {
				total += p.Len()
				if p.Version() != 42 || p.NumShards() != n {
					t.Fatalf("part metadata: version=%d shards=%d", p.Version(), p.NumShards())
				}
			}
			if total != pts.Len() {
				t.Fatalf("Split(n=%d): parts own %d points, want %d", n, total, pts.Len())
			}
			for _, q := range testQueries(pts) {
				want := db.QueryRow(pts, ix, q)
				got := gatherMerged(t, parts, pts, db, q)
				rowsEqual(t, "merged query row", got, want)
			}
		}
	}
}

func TestSplitExact(t *testing.T)         { testSplitExact(t, false) }
func TestSplitExactDistinct(t *testing.T) { testSplitExact(t, true) }

func TestPartRoundTrip(t *testing.T) {
	for _, distinct := range []bool{false, true} {
		_, pts, db := fitModel(t, distinct)
		parts, err := shard.Split(pts, db, shard.Meta{Metric: "euclidean"}, 3, shard.PartitionHash, 7)
		if err != nil {
			t.Fatalf("Split: %v", err)
		}
		for _, p := range parts {
			enc, err := shard.EncodePart(p)
			if err != nil {
				t.Fatalf("EncodePart: %v", err)
			}
			dec, err := shard.DecodePart(enc)
			if err != nil {
				t.Fatalf("DecodePart: %v", err)
			}
			if dec.Version() != p.Version() || dec.ShardID() != p.ShardID() ||
				dec.NumShards() != p.NumShards() || dec.Len() != p.Len() ||
				dec.Meta().K != p.Meta().K || dec.Meta().Distinct != distinct {
				t.Fatalf("decoded part metadata mismatch: %+v vs %+v", dec.Meta(), p.Meta())
			}
			// The decoded part must serve identical answers.
			for _, q := range testQueries(pts)[:4] {
				a, b := candidates(t, p, q).Encode(), candidates(t, dec, q).Encode()
				if !bytes.Equal(a, b) {
					t.Fatalf("decoded part answers candidates differently")
				}
			}
			// Encoding is deterministic: same part, same bytes.
			enc2, _ := shard.EncodePart(dec)
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("re-encoded part differs from original encoding")
			}
		}
	}
}

func TestEmptyPartition(t *testing.T) {
	// More shards than points: some partitions end up empty and must still
	// round-trip and answer (with nothing).
	data := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {9, 9}}
	det, err := lof.New(lof.Config{MinPtsLB: 2, MinPtsUB: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	pts, db := m.Fitted()
	parts, err := shard.Split(pts, db, shard.Meta{}, 7, shard.PartitionHash, 1)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	sawEmpty := false
	for _, p := range parts {
		if p.Len() == 0 {
			sawEmpty = true
		}
		enc, err := shard.EncodePart(p)
		if err != nil {
			t.Fatalf("EncodePart: %v", err)
		}
		dec, err := shard.DecodePart(enc)
		if err != nil {
			t.Fatalf("DecodePart of %d-point part: %v", p.Len(), err)
		}
		cs := candidates(t, dec, geom.Point{0.5, 0.5})
		if len(cs.Counts) != 1 || p.Len() == 0 && len(cs.Entries) != 0 {
			t.Fatalf("%d-point partition answered counts %v for one query", p.Len(), cs.Counts)
		}
	}
	if !sawEmpty {
		t.Skip("hash assignment left no partition empty; balance test covers distribution")
	}
}

func TestQueryValidation(t *testing.T) {
	_, pts, db := fitModel(t, false)
	parts, err := shard.Split(pts, db, shard.Meta{}, 2, shard.PartitionHash, 1)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	p := parts[0]
	for _, req := range []*shard.Frame{
		{Kind: shard.KindCandidatesRequest, Version: 1, Dim: 1, Queries: []float64{1}},
		{Kind: shard.KindCandidatesRequest, Version: 1, Dim: 2, Queries: []float64{math.NaN(), 0}},
		{Kind: shard.KindCandidatesRequest, Version: 1, Dim: 2, Queries: []float64{0, 0, math.Inf(1), 0}},
		{Kind: shard.KindCandidates, Version: 1, Dim: 2},
	} {
		if _, err := p.Reply(req); err == nil {
			t.Fatalf("%v with queries %v accepted", req.Kind, req.Queries)
		}
	}
}

func TestPartitioner(t *testing.T) {
	for _, parter := range []shard.Partitioner{shard.PartitionHash, shard.PartitionRange} {
		counts := make([]int, 8)
		const total = 10000
		for id := 0; id < total; id++ {
			s := parter.Shard(uint32(id), 8, total)
			if s < 0 || s >= 8 {
				t.Fatalf("%v.Shard(%d) = %d out of range", parter, id, s)
			}
			if s != parter.Shard(uint32(id), 8, total) {
				t.Fatalf("%v.Shard(%d) not deterministic", parter, id)
			}
			counts[s]++
		}
		for s, c := range counts {
			if c < total/8/2 || c > total/8*2 {
				t.Fatalf("%v: shard %d owns %d of %d points — badly unbalanced", parter, s, c, total)
			}
		}
	}
	if _, err := shard.ParsePartitioner("range"); err != nil {
		t.Fatalf("ParsePartitioner(range): %v", err)
	}
	if p, err := shard.ParsePartitioner(""); err != nil || p != shard.PartitionHash {
		t.Fatalf("ParsePartitioner default: %v %v", p, err)
	}
	if _, err := shard.ParsePartitioner("zorder"); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
	if shard.PartitionHash.String() != "hash" || shard.PartitionRange.String() != "range" {
		t.Fatal("partitioner names")
	}
}

func TestSplitValidation(t *testing.T) {
	_, pts, db := fitModel(t, false)
	if _, err := shard.Split(nil, db, shard.Meta{}, 2, shard.PartitionHash, 1); err == nil {
		t.Fatal("nil points accepted")
	}
	if _, err := shard.Split(pts, db, shard.Meta{}, 0, shard.PartitionHash, 1); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := shard.Split(pts, db, shard.Meta{Metric: "warp"}, 2, shard.PartitionHash, 1); err == nil {
		t.Fatal("unknown metric accepted")
	}
}
