package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/linear"
	"lof/internal/matdb"
)

// refSeries is the reference the dense closure is checked against: the
// scorer as it stood before EvalRange, building the query's two-hop
// closure of spliced rows in a map and evaluating one MinPts at a time with
// refEvalAt. It also returns the map-backed rowOf, so EvalRange and EvalAt
// can be driven with arbitrary merged rows the way the coordinator drives
// them.
func refSeries(s *Scorer, q geom.Point) (qRow matdb.Row, rowOf func(int) matdb.Row, series []float64) {
	qIdx := s.pts.Len()
	qRow = s.QueryRow(q)
	rows := make(map[int]matdb.Row)
	hop := func(nn []index.Neighbor) []int {
		var added []int
		for _, nb := range nn {
			if _, ok := rows[nb.Index]; nb.Index == qIdx || ok {
				continue
			}
			rows[nb.Index] = s.db.MergedRow(s.pts, nb.Index, q, qIdx, s.kern.Dist(nb.Index, q))
			added = append(added, nb.Index)
		}
		return added
	}
	for _, i := range hop(qRow.Neighborhood(s.ub)) {
		hop(rows[i].Neighborhood(s.ub))
	}
	rowOf = func(i int) matdb.Row {
		if r, ok := rows[i]; ok {
			return r
		}
		return s.db.MergedRow(s.pts, i, q, qIdx, s.kern.Dist(i, q))
	}
	for m := s.lb; m <= s.ub; m++ {
		series = append(series, refEvalAt(qIdx, qRow, rowOf, m))
	}
	return qRow, rowOf, series
}

// refEvalAt is the per-MinPts evaluation EvalRange replaced: Definitions
// 5–7 over merged rows, resolving every neighbor through rowOf.
func refEvalAt(qIdx int, qRow matdb.Row, rowOf func(int) matdb.Row, minPts int) float64 {
	kdistAt := func(i int) float64 {
		if i == qIdx {
			return qRow.KDistance(minPts)
		}
		return rowOf(i).KDistance(minPts)
	}
	lrdOf := func(nn []index.Neighbor) float64 {
		if len(nn) == 0 {
			return math.Inf(1)
		}
		var sum float64
		for _, nb := range nn {
			sum += ReachDist(kdistAt(nb.Index), nb.Dist)
		}
		if sum == 0 {
			return math.Inf(1)
		}
		return float64(len(nn)) / sum
	}
	nq := qRow.Neighborhood(minPts)
	if len(nq) == 0 {
		return 1
	}
	lrdQ := lrdOf(nq)
	var sum float64
	for _, nb := range nq {
		sum += densityRatio(lrdOf(rowOf(nb.Index).Neighborhood(minPts)), lrdQ)
	}
	return sum / float64(len(nq))
}

// closeTo reports whether got matches the refit value want within 1e-9
// (relative beyond magnitude 1), with NaN matching NaN and infinities
// matching exactly.
func closeTo(got, want float64) bool {
	switch {
	case math.IsNaN(want) || math.IsNaN(got):
		return math.IsNaN(want) && math.IsNaN(got)
	case math.IsInf(want, 0) || math.IsInf(got, 0):
		return got == want
	}
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// checkSeries compares the scorer's series for q bit for bit against the
// reference closure, EvalRange and EvalAt over the reference's merged rows
// bit for bit, and everything against a refit on data ∪ {q} within 1e-9.
func checkSeries(t *testing.T, sc *Scorer, metric geom.Metric, distinct bool, q geom.Point, label string) {
	t.Helper()
	got, err := sc.ScoreSeries(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	qRow, rowOf, want := refSeries(sc, q)
	viaRange := make([]float64, sc.ub-sc.lb+1)
	EvalRange(sc.pts.Len(), qRow, rowOf, sc.lb, sc.ub, viaRange)
	refit := refitSeries(t, sc.pts, q, metric, sc.lb, sc.ub, distinct)
	for j := range want {
		m := sc.lb + j
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s MinPts=%d: scorer %v, reference %v (not bit-identical)", label, m, got[j], want[j])
		}
		if math.Float64bits(viaRange[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s MinPts=%d: EvalRange over reference rows %v, reference %v", label, m, viaRange[j], want[j])
		}
		if at := EvalAt(sc.pts.Len(), qRow, rowOf, m); math.Float64bits(at) != math.Float64bits(want[j]) {
			t.Fatalf("%s MinPts=%d: EvalAt %v, reference %v", label, m, at, want[j])
		}
		if !closeTo(got[j], refit[j]) {
			t.Fatalf("%s MinPts=%d: scorer %v, refit %v", label, m, got[j], refit[j])
		}
	}
}

// newScorer materializes pts under metric and returns a scorer for
// [lb, ub].
func newScorer(t *testing.T, pts *geom.Points, metric geom.Metric, lb, ub int, distinct bool) *Scorer {
	t.Helper()
	ix := linear.New(pts, metric)
	var opts []matdb.Option
	if distinct {
		opts = append(opts, matdb.Distinct())
	}
	db, err := matdb.Materialize(pts, ix, ub, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScorer(pts, ix, db, metric, lb, ub)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// latticePoints returns the points of a w×h integer grid, each repeated
// copies times: every distance under Manhattan or Chebyshev is an exact
// small integer, so a query can sit exactly at a neighbor's k-distance.
func latticePoints(w, h, copies int) *geom.Points {
	pts := geom.NewPoints(2, w*h*copies)
	for c := 0; c < copies; c++ {
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				if err := pts.Append(geom.Point{float64(x), float64(y)}); err != nil {
					panic(err)
				}
			}
		}
	}
	return pts
}

// TestScoreSeriesMatchesReference is the differential battery for the
// dense closure: in plain and distinct mode, on clustered, duplicate-heavy
// and lattice data, for generic queries and the edge cases the closure's
// reuse rule must get right, the scorer's series equals the map-closure
// reference bit for bit and a refit within 1e-9.
func TestScoreSeriesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	generic := func(pts *geom.Points) []geom.Point {
		qs := []geom.Point{
			pts.At(0).Clone(),             // equal to a fitted point
			pts.At(pts.Len() / 2).Clone(), // another fitted point
			{1e6, -1e6},                   // far and isolated
		}
		for i := 0; i < 8; i++ {
			base := pts.At(rng.Intn(pts.Len()))
			qs = append(qs, geom.Point{base[0] + 0.5*rng.NormFloat64(), base[1] + 0.5*rng.NormFloat64()})
		}
		return qs
	}
	for _, distinct := range []bool{false, true} {
		mode := map[bool]string{false: "plain", true: "distinct"}[distinct]
		t.Run(mode+"/clustered", func(t *testing.T) {
			pts := scoreTestData(rng, 120, true)
			for _, r := range [][2]int{{3, 12}, {1, 6}, {7, 7}, {1, 1}} {
				sc := newScorer(t, pts, geom.Euclidean{}, r[0], r[1], distinct)
				for qi, q := range generic(pts) {
					checkSeries(t, sc, geom.Euclidean{}, distinct, q, label(distinct, r, qi))
				}
			}
		})
		t.Run(mode+"/duplicate-heavy", func(t *testing.T) {
			// 6 distinct positions, 8 copies each: with MinPtsUB = 9, no
			// stored row in distinct mode reaches MinPtsUB distinct ranks.
			pts := geom.NewPoints(2, 48)
			for i := 0; i < 48; i++ {
				p := geom.Point{float64(i % 6), float64((i % 6) * (i % 6))}
				if err := pts.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range [][2]int{{2, 9}, {1, 9}, {9, 9}} {
				sc := newScorer(t, pts, geom.Euclidean{}, r[0], r[1], distinct)
				if distinct && len(sc.db.Row(0).Ranks()) >= r[1] {
					t.Fatalf("stored row holds %d distinct ranks; the case needs fewer than %d", len(sc.db.Row(0).Ranks()), r[1])
				}
				qs := append(generic(pts), geom.Point{2.5, 5}, geom.Point{6, 36})
				for qi, q := range qs {
					checkSeries(t, sc, geom.Euclidean{}, distinct, q, label(distinct, r, qi))
				}
			}
		})
		t.Run(mode+"/at-ub-distance", func(t *testing.T) {
			copies := 1 // distinct mode gets duplicates to skip over
			if distinct {
				copies = 2
			}
			for _, metric := range []geom.Metric{geom.Chebyshev{}, geom.Manhattan{}} {
				pts := latticePoints(9, 7, copies)
				lb, ub := 2, 6
				sc := newScorer(t, pts, metric, lb, ub, distinct)
				// Off-lattice queries whose distance to a grid point i is
				// exactly i's stored ub-distance: q sits on the boundary
				// and must be spliced into i's row.
				var qs []geom.Point
				for _, i := range []int{0, 20, 31, 62} {
					p, kd := pts.At(i), sc.db.KDistance(i, ub)
					q := geom.Point{p[0] + kd - 0.5, p[1] + 0.5} // Manhattan: (kd − ½) + ½
					if _, cheb := metric.(geom.Chebyshev); cheb {
						q = geom.Point{p[0] + kd, p[1] + 0.5} // Chebyshev: max(kd, ½)
					}
					if d := sc.kern.Dist(i, q); d != kd {
						t.Fatalf("%s: d(%d, q) = %v, want the ub-distance %v", metric.Name(), i, d, kd)
					}
					qs = append(qs, q)
				}
				for qi, q := range qs {
					checkSeries(t, sc, metric, distinct, q, metric.Name()+"/"+label(distinct, [2]int{lb, ub}, qi))
				}
			}
		})
	}
}

func label(distinct bool, r [2]int, qi int) string {
	return fmt.Sprintf("distinct=%v MinPts %d..%d query %d", distinct, r[0], r[1], qi)
}

// FuzzScoreSeries runs the differential comparison on random small
// datasets mixing clusters, exact duplicates and lattice points, with
// random MinPts ranges, duplicate semantics and queries.
func FuzzScoreSeries(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(3), uint8(5), false, uint8(0))
	f.Add(int64(2), uint8(50), uint8(1), uint8(9), true, uint8(1))
	f.Add(int64(3), uint8(20), uint8(4), uint8(0), false, uint8(2))
	f.Add(int64(4), uint8(40), uint8(2), uint8(6), true, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, lbRaw, span uint8, distinct bool, qKind uint8) {
		lb := int(lbRaw)%8 + 1
		ub := lb + int(span)%8
		num := int(n)%60 + ub + 2
		rng := rand.New(rand.NewSource(seed))
		pts := geom.NewPoints(2, num)
		for i := 0; i < num; i++ {
			var p geom.Point
			switch rng.Intn(6) {
			case 0: // exact duplicate of an earlier point
				p = geom.Point{0, 0}
				if pts.Len() > 0 {
					p = pts.At(rng.Intn(pts.Len())).Clone()
				}
			case 1: // lattice point
				p = geom.Point{float64(rng.Intn(5)), float64(rng.Intn(5))}
			default: // cluster member
				c := float64(rng.Intn(2)) * 8
				p = geom.Point{c + rng.NormFloat64(), c + rng.NormFloat64()}
			}
			if err := pts.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		metric := geom.Metric(geom.Euclidean{})
		if qKind%2 == 1 {
			metric = geom.Chebyshev{}
		}
		sc := newScorer(t, pts, metric, lb, ub, distinct)
		var q geom.Point
		switch qKind % 4 {
		case 0: // a fitted point
			q = pts.At(rng.Intn(num)).Clone()
		case 1: // on a fitted point's ub-distance boundary (exact under Chebyshev on the lattice)
			i := rng.Intn(num)
			p := pts.At(i)
			q = geom.Point{p[0] + sc.db.KDistance(i, ub), p[1]}
		case 2: // far away
			q = geom.Point{rng.Float64()*1e4 + 100, -rng.Float64() * 1e4}
		default:
			q = geom.Point{rng.Float64()*12 - 2, rng.Float64()*12 - 2}
		}
		checkSeries(t, sc, metric, distinct, q, "fuzz")
	})
}
