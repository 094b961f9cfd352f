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

// TestKDistsEnvelopeContainsMerged holds the pruned path's k-distance
// envelope to its contract on the data of FuzzQueryBounds' seed
// cb90fd120c2d7d02: 28 points at MinPts 12..26 in distinct mode, where 24
// stored rows hold fewer than 26 distinct positions. For any query and any
// stored point o, Part.KDists(o, lb−1, ub) must bracket o's merged
// k-distances at every MinPts in [lb, ub] — the answer round 3 ships — and
// approx.MergedQueryBounds over those envelopes must contain the exact
// series, over 1, 2, 3 and 5 shards. A clamped stored ceiling breaks both
// for queries beyond a row's farthest distinct position.
//
// lofcoord itself reads first-hop k-distances from merged rows, and on this
// data every point is first-hop, so its own interval was never wrong here;
// the envelope is the part that must hold wherever it is used.
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
	for _, n := range []int{1, 2, 3, 5} {
		parts, err := shard.Split(pts, db, shard.Meta{Metric: "euclidean"}, n, shard.PartitionHash, 1)
		if err != nil {
			t.Fatal(err)
		}
		owner := func(id int) *shard.Part { return parts[shard.PartitionHash.Shard(uint32(id), n, num)] }
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
			env := make(map[int][2]float64, num)
			for i := 0; i < num; i++ {
				p := owner(i)
				lo, hi, err := p.KDists([]uint32{uint32(i)}, lb-1, ub)
				if err != nil {
					t.Fatal(err)
				}
				env[i] = [2]float64{lo[0], hi[0]}
				merged, err := p.Reply(rowFrame(p, shard.KindKDistsRequest, q, lb, ub, uint32(i)))
				if err != nil {
					t.Fatal(err)
				}
				for m, kd := range merged.KDists {
					if kd < lo[0] || kd > hi[0] {
						t.Fatalf("shards=%d query %v point %d: merged %d-distance %v outside envelope [%v, %v]", n, q, i, lb+m, kd, lo[0], hi[0])
					}
				}
			}
			qRow := gatherMerged(t, parts, db, q)
			rows := make(map[int]matdb.Row)
			for _, nb := range qRow.Neighborhood(ub) {
				p := owner(nb.Index)
				f, err := p.Reply(rowFrame(p, shard.KindRowsRequest, q, lb, ub, uint32(nb.Index)))
				if err != nil {
					t.Fatal(err)
				}
				rows[nb.Index] = matdb.NewRow(f.Entries, f.Ranks, true)
			}
			rowOf := func(i int) (matdb.Row, bool) { r, ok := rows[i]; return r, ok }
			kdEnv := func(i int) (lo, hi float64, ok bool) { e, ok := env[i]; return e[0], e[1], ok }
			lower, upper := approx.MergedQueryBounds(qRow, num, rowOf, kdEnv, lb, ub)
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
