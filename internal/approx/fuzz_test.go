package approx

import (
	"math"
	"math/rand"
	"testing"

	"lof/internal/core"
	"lof/internal/geom"
	"lof/internal/index/kdtree"
	"lof/internal/matdb"
)

// FuzzPruneBoundSafety is the safety net under the pruning proof: for
// arbitrary point configurations (clustered, degenerate, duplicate-heavy)
// and arbitrary swept ranges, every point the pruned sweep certifies must
// really have its exact aggregated LOF inside the claimed band, every
// unpruned point must score bit-identically to the full sweep, and the
// Bounds interval must contain the exact LOF at every swept MinPts. A
// violation of any of these means the certificate lies, which is the one
// failure mode the approximate path must never have.
func FuzzPruneBoundSafety(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(5), false)
	f.Add(int64(7), uint8(120), uint8(5), uint8(9), false)
	f.Add(int64(42), uint8(60), uint8(4), uint8(4), true)
	f.Add(int64(99), uint8(200), uint8(10), uint8(20), false)
	f.Add(int64(3), uint8(30), uint8(2), uint8(7), true)
	f.Fuzz(func(t *testing.T, seed int64, n, lbRaw, span uint8, distinct bool) {
		lb := int(lbRaw)%12 + 1
		ub := lb + int(span)%12
		num := int(n)
		if num < ub+2 {
			num = ub + 2
		}
		if num > 300 {
			num = 300
		}
		rng := rand.New(rand.NewSource(seed))
		pts := geom.NewPoints(2, num)
		for i := 0; i < num; i++ {
			var p geom.Point
			switch rng.Intn(10) {
			case 0: // far outlier
				p = geom.Point{rng.Float64()*200 - 100, rng.Float64()*200 - 100}
			case 1: // exact duplicate of an earlier point, when one exists
				p = geom.Point{0, 0}
				if pts.Len() > 0 {
					src := pts.At(rng.Intn(pts.Len()))
					p = geom.Point{src[0], src[1]}
				}
			default: // cluster member
				c := float64(rng.Intn(3)) * 10
				p = geom.Point{c + rng.NormFloat64(), c + rng.NormFloat64()}
			}
			if err := pts.Append(p); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		var opts []matdb.Option
		if distinct {
			opts = append(opts, matdb.Distinct())
		}
		db, err := matdb.Materialize(pts, kdtree.New(pts, nil), ub, opts...)
		if err != nil {
			t.Skip("materialization rejected the configuration")
		}
		lower, upper, err := Bounds(db, lb, ub, nil)
		if err != nil {
			t.Fatalf("Bounds: %v", err)
		}
		sw, err := core.SweepCtx(nil, db, lb, ub, nil, nil)
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		for j := range sw.MinPts {
			for i, v := range sw.Values[j] {
				if math.IsNaN(v) {
					continue
				}
				if v < lower[i]*(1-1e-9)-1e-12 || v > upper[i]*(1+1e-9)+1e-12 {
					t.Fatalf("LOF_%d(%d)=%v outside bound [%v, %v]", sw.MinPts[j], i, v, lower[i], upper[i])
				}
			}
		}
		for _, agg := range []core.Aggregate{core.AggMax, core.AggMean, core.AggMin} {
			res, err := PruneSweep(nil, db, lb, ub, 0, agg, nil)
			if err != nil {
				t.Fatalf("prune sweep: %v", err)
			}
			exact := sw.Aggregate(agg)
			for i, v := range exact {
				if res.Pruned[i] {
					lo, hi := 1/(1+res.Eps), 1+res.Eps
					if !(v >= lo*(1-1e-9) && v <= hi*(1+1e-9)) {
						t.Fatalf("agg %v: pruned point %d has exact score %v outside certified band [%v, %v]",
							agg, i, v, lo, hi)
					}
					if res.Scores[i] != 1 {
						t.Fatalf("agg %v: pruned point %d reported %v, want 1", agg, i, res.Scores[i])
					}
					continue
				}
				if math.Float64bits(res.Scores[i]) != math.Float64bits(v) {
					t.Fatalf("agg %v: frontier point %d diverged: pruned sweep %v, exact %v", agg, i, res.Scores[i], v)
				}
			}
		}
	})
}

// refQueryBounds is QueryBounds as it stood before the summaries: every
// query folds its neighbors' stored rows afresh, reading second-hop
// k-distances from the database. It is the reference the summaries must
// reproduce bit for bit. It takes the k-distance ceiling from kdCeiling,
// the fix FuzzQueryBounds forced for distinct-mode rows with fewer than ub
// distinct positions, where the stored ub-distance used to serve.
func refQueryBounds(db *matdb.DB, qRow matdb.Row, lb, ub int) (lower, upper float64) {
	if len(qRow.Neighborhood(ub)) == 0 {
		return 1, 1
	}
	for si, seg := range segments(lb, ub) {
		segLower, segUpper := refQueryBoundsSegment(db, qRow, seg[0], seg[1])
		if si == 0 {
			lower, upper = segLower, segUpper
			continue
		}
		lower = math.Min(lower, segLower)
		upper = math.Max(upper, segUpper)
	}
	return lower, upper
}

func refQueryBoundsSegment(db *matdb.DB, qRow matdb.Row, lb, ub int) (lower, upper float64) {
	nn := qRow.Neighborhood(ub)
	if len(nn) == 0 {
		return 1, 1
	}
	kdFloor := func(o int) float64 {
		if lb >= 2 {
			return db.KDistance(o, lb-1)
		}
		return 0
	}
	kdqLB, kdqUB := qRow.KDistance(lb), qRow.KDistance(ub)
	direct := newPrefixBracket(len(qRow.Neighborhood(lb)))
	num := newPrefixBracket(len(qRow.Neighborhood(lb)))
	for _, o := range nn {
		direct.add(core.ReachDist(kdFloor(o.Index), o.Dist), core.ReachDist(kdCeiling(db, o.Index, ub), o.Dist))
		oLow, oHigh := refStoredLRDBracket(db, o.Index, core.ReachDist(kdqLB, o.Dist), core.ReachDist(kdqUB, o.Dist), lb, ub, kdFloor)
		num.add(oLow, oHigh)
	}
	meanLow, meanHigh := direct.bounds()
	numLow, numHigh := num.bounds()
	return boundRatio(numLow, numHigh, 1/meanHigh, 1/meanLow)
}

func refStoredLRDBracket(db *matdb.DB, o int, loQ, hiQ float64, lb, ub int, kdFloor func(int) float64) (lrdLow, lrdHigh float64) {
	row := db.Neighborhood(o, ub)
	mnLow, mxHigh := math.Inf(1), math.Inf(-1)
	any := false
	consider := func(lo, hi float64, n int) {
		inv := 1 / float64(n)
		if m := lo * inv; !any || m < mnLow {
			mnLow = m
		}
		if m := hi * inv; !any || m > mxHigh {
			mxHigh = m
		}
		any = true
	}
	var loSum, hiSum float64
	if lb == 1 {
		consider(loQ, hiQ, 1)
	}
	for n, r := range row {
		lo := core.ReachDist(kdFloor(r.Index), r.Dist)
		hi := core.ReachDist(kdCeiling(db, r.Index, ub), r.Dist)
		if n+1 >= lb {
			consider(loSum+lo, hiSum+hi, n+1)
			consider(loSum+loQ, hiSum+hiQ, n+1)
		}
		loSum += lo
		hiSum += hi
	}
	if n := len(row); n+1 >= lb {
		consider(loSum+loQ, hiSum+hiQ, n+1)
	}
	if !any {
		return 0, math.Inf(1)
	}
	return 1 / mxHigh, 1 / mnLow
}

// FuzzQueryBounds checks the out-of-sample certificate on arbitrary small
// datasets (clustered, duplicate-heavy, distinct or not), swept ranges and
// queries: the summaries-based QueryBounds equals the per-query reference
// bit for bit, and the exact score series lies inside [lower, upper].
func FuzzQueryBounds(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(5), false, uint8(0))
	f.Add(int64(7), uint8(120), uint8(9), uint8(30), false, uint8(1))
	f.Add(int64(42), uint8(60), uint8(1), uint8(4), true, uint8(2))
	f.Add(int64(3), uint8(30), uint8(2), uint8(7), true, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, lbRaw, span uint8, distinct bool, qKind uint8) {
		lb := int(lbRaw)%12 + 1
		ub := lb + int(span)%24
		num := int(n)%200 + ub + 2
		rng := rand.New(rand.NewSource(seed))
		pts := geom.NewPoints(2, num)
		for i := 0; i < num; i++ {
			var p geom.Point
			switch rng.Intn(10) {
			case 0: // far outlier
				p = geom.Point{rng.Float64()*200 - 100, rng.Float64()*200 - 100}
			case 1: // exact duplicate of an earlier point, when one exists
				p = geom.Point{0, 0}
				if pts.Len() > 0 {
					p = pts.At(rng.Intn(pts.Len())).Clone()
				}
			default: // cluster member
				c := float64(rng.Intn(3)) * 10
				p = geom.Point{c + rng.NormFloat64(), c + rng.NormFloat64()}
			}
			if err := pts.Append(p); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		var opts []matdb.Option
		if distinct {
			opts = append(opts, matdb.Distinct())
		}
		ix := kdtree.New(pts, nil)
		db, err := matdb.Materialize(pts, ix, ub, opts...)
		if err != nil {
			t.Skip("materialization rejected the configuration")
		}
		sum, err := NewSummaries(db, lb, ub, nil)
		if err != nil {
			t.Fatalf("NewSummaries: %v", err)
		}
		scorer, err := core.NewScorer(pts, ix, db, geom.Euclidean{}, lb, ub)
		if err != nil {
			t.Fatalf("NewScorer: %v", err)
		}
		for trial := 0; trial < 4; trial++ {
			var q geom.Point
			switch (int(qKind) + trial) % 4 {
			case 0: // a fitted point
				q = pts.At(rng.Intn(num)).Clone()
			case 1: // near a fitted point
				base := pts.At(rng.Intn(num))
				q = geom.Point{base[0] + 0.3*rng.NormFloat64(), base[1] + 0.3*rng.NormFloat64()}
			case 2: // far field
				q = geom.Point{rng.Float64()*400 - 200, rng.Float64()*400 - 200}
			default:
				q = geom.Point{rng.Float64()*30 - 5, rng.Float64()*30 - 5}
			}
			qRow := scorer.QueryRow(q)
			lower, upper := QueryBounds(sum, qRow)
			wantLower, wantUpper := refQueryBounds(db, qRow, lb, ub)
			if math.Float64bits(lower) != math.Float64bits(wantLower) || math.Float64bits(upper) != math.Float64bits(wantUpper) {
				t.Fatalf("query %v: summaries give [%v, %v], reference [%v, %v]", q, lower, upper, wantLower, wantUpper)
			}
			series, err := scorer.ScoreSeries(q)
			if err != nil {
				t.Fatalf("ScoreSeries: %v", err)
			}
			for j, v := range series {
				if math.IsNaN(v) {
					continue
				}
				if v < lower*(1-1e-9)-1e-12 || v > upper*(1+1e-9)+1e-12 {
					t.Fatalf("query %v MinPts %d: exact LOF %v outside [%v, %v]", q, lb+j, v, lower, upper)
				}
			}
		}
	})
}
