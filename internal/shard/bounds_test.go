package shard_test

import (
	"math"
	"math/rand"
	"testing"

	"lof/internal/approx"
	"lof/internal/core"
	"lof/internal/geom"
	"lof/internal/index/kdtree"
	"lof/internal/matdb"
	"lof/internal/shard"
)

// TestKDistsEnvelopeContainsMerged holds the pruned certificate to its
// contract on the data of FuzzQueryBounds' seed cb90fd120c2d7d02: 28
// points at MinPts 12..26 in distinct mode, where 24 stored rows hold
// fewer than 26 distinct positions. For queries of FuzzQueryBounds' kinds:
//
//   - every point's merged k-distances at MinPts lb..ub, read from the row
//     the scorer merges (RowBuf.Merge of db.Row(i) with the query), lie
//     inside its stored envelope [kd_{lb−1}, kd_ub] read from the database
//     (kd_ub is +Inf for a distinct row with fewer than ub distinct
//     positions, which a query at a new position can exceed);
//   - over 1, 2, 3 and 5 shard.Split parts, approx.QueryBounds over
//     summaries of db, on the query row the candidates round merges,
//     equals QueryBounds on the single-node query row, bit for bit:
//     lofcoord's certificate is lofserve's;
//   - that interval contains the exact series.
func TestKDistsEnvelopeContainsMerged(t *testing.T) {
	const lb, ub, num = 12, 26, 28
	rng := rand.New(rand.NewSource(26))
	pts := geom.NewPoints(2, num)
	for i := 0; i < num; i++ { // FuzzQueryBounds' generator
		var p geom.Point
		switch rng.Intn(10) {
		case 0:
			p = geom.Point{rng.Float64()*200 - 100, rng.Float64()*200 - 100}
		case 1:
			p = geom.Point{0, 0}
			if pts.Len() > 0 {
				p = pts.At(rng.Intn(pts.Len())).Clone()
			}
		default:
			c := float64(rng.Intn(3)) * 10
			p = geom.Point{c + rng.NormFloat64(), c + rng.NormFloat64()}
		}
		if err := pts.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	ix := kdtree.New(pts, nil)
	db, err := matdb.Materialize(pts, ix, ub, matdb.Distinct())
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := core.NewScorer(pts, ix, db, geom.Euclidean{}, lb, ub)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := approx.NewSummaries(db, lb, ub, nil)
	if err != nil {
		t.Fatal(err)
	}
	envLo, envHi := make([]float64, num), make([]float64, num)
	for i := range envLo {
		envLo[i], envHi[i] = db.KDistance(i, lb-1), db.KDistance(i, ub)
		if len(db.RanksOf(i)) < ub {
			envHi[i] = math.Inf(1)
		}
	}
	for _, n := range []int{1, 2, 3, 5} {
		parts, err := shard.Split(pts, db, shard.Meta{Metric: "euclidean"}, n, shard.PartitionHash, 1)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			var q geom.Point
			switch trial % 4 { // FuzzQueryBounds' query kinds
			case 0:
				q = pts.At(rng.Intn(num)).Clone()
			case 1:
				b := pts.At(rng.Intn(num))
				q = geom.Point{b[0] + 0.3*rng.NormFloat64(), b[1] + 0.3*rng.NormFloat64()}
			case 2:
				q = geom.Point{rng.Float64()*400 - 200, rng.Float64()*400 - 200}
			default:
				q = geom.Point{rng.Float64()*30 - 5, rng.Float64()*30 - 5}
			}
			var buf matdb.RowBuf
			for i := 0; i < num; i++ {
				merged := buf.Merge(db.Row(i), q, num, geom.Euclidean{}.Distance(pts.At(i), q), pts.At, db.K, ub)
				for m, kd := range merged.AppendKDistances(nil, lb, ub) {
					if kd < envLo[i] || kd > envHi[i] {
						t.Fatalf("shards=%d query %v point %d: merged %d-distance %v outside envelope [%v, %v]", n, q, i, lb+m, kd, envLo[i], envHi[i])
					}
				}
			}
			lower, upper := approx.QueryBounds(sum, gatherMerged(t, parts, pts, db, q))
			wantLower, wantUpper := approx.QueryBounds(sum, scorer.QueryRow(q))
			if math.Float64bits(lower) != math.Float64bits(wantLower) || math.Float64bits(upper) != math.Float64bits(wantUpper) {
				t.Fatalf("shards=%d query %v: the merged row bounds [%v, %v], the single-node row [%v, %v]", n, q, lower, upper, wantLower, wantUpper)
			}
			series, err := scorer.ScoreSeries(q)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range series {
				if math.IsNaN(v) {
					continue
				}
				if v < lower*(1-1e-9)-1e-12 || v > upper*(1+1e-9)+1e-12 {
					t.Fatalf("shards=%d query %v MinPts %d: exact LOF %v outside [%v, %v]", n, q, lb+j, v, lower, upper)
				}
			}
		}
	}
}
