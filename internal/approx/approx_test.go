package approx

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lof/internal/core"
	"lof/internal/dataset"
	"lof/internal/geom"
	"lof/internal/index/kdtree"
	"lof/internal/matdb"
	"lof/internal/pool"
)

// testDB materializes a dataset with the defaults the experiments use.
func testDB(t testing.TB, d *dataset.Dataset, k int) *matdb.DB {
	t.Helper()
	ix := kdtree.New(d.Points, nil)
	db, err := matdb.Materialize(d.Points, ix, k)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return db
}

// clusteredWithOutliers builds a dense-core mixture with planted far
// outliers — the workload pruning is designed for.
func clusteredWithOutliers(seed int64, n int) *dataset.Dataset {
	per := n / 4
	return dataset.Mixture(seed, dataset.MixtureSpec{
		Gaussians: []dataset.GaussianSpec{
			{Center: []float64{0, 0}, Sigma: 1, N: per},
			{Center: []float64{40, 5}, Sigma: 1.5, N: per},
			{Center: []float64{10, 60}, Sigma: 2, N: per},
			{Center: []float64{-35, 30}, Sigma: 1, N: n - 3*per},
		},
		Outliers: []geom.Point{
			{20, 20}, {80, 80}, {-60, -10}, {0, -45}, {55, 55},
		},
	})
}

// within reports |a−b| small relative to the magnitudes, absorbing the
// few-ulp slack between a float mean and the exact min/max brackets the
// bounds are derived from.
func within(a, b, rel float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rel*scale
}

func TestBoundsContainEverySweptLOF(t *testing.T) {
	d := clusteredWithOutliers(1, 400)
	lb, ub := 10, 20
	db := testDB(t, d, ub)
	lower, upper, err := Bounds(db, lb, ub, nil)
	if err != nil {
		t.Fatalf("Bounds: %v", err)
	}
	const slack = 1e-12
	for m := lb; m <= ub; m++ {
		lofs, err := core.LOFs(db, m)
		if err != nil {
			t.Fatalf("LOFs(%d): %v", m, err)
		}
		for i, v := range lofs {
			if v < lower[i] && !within(v, lower[i], slack) {
				t.Fatalf("point %d at MinPts %d: LOF %v below lower bound %v", i, m, v, lower[i])
			}
			if v > upper[i] && !within(v, upper[i], slack) {
				t.Fatalf("point %d at MinPts %d: LOF %v above upper bound %v", i, m, v, upper[i])
			}
		}
	}
}

func TestBoundsValidation(t *testing.T) {
	d := clusteredWithOutliers(2, 100)
	db := testDB(t, d, 20)
	if _, _, err := Bounds(db, 21, 10, nil); err == nil {
		t.Fatal("lb > ub accepted")
	}
	if _, _, err := Bounds(db, 1, 999, nil); err == nil {
		t.Fatal("ub beyond materialized K accepted")
	}
}

// TestPruneSweepOracle is the acceptance-criteria oracle: every unpruned
// (frontier) score is Float64bits-identical to the exact sweep aggregate,
// and every pruned point's exact score lies inside the certified ≈1 band.
func TestPruneSweepOracle(t *testing.T) {
	d := clusteredWithOutliers(3, 600)
	lb, ub := 10, 20
	db := testDB(t, d, ub)
	sw, err := core.Sweep(db, lb, ub)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	for _, agg := range []core.Aggregate{core.AggMax, core.AggMean, core.AggMin} {
		exact := sw.Aggregate(agg)
		res, err := PruneSweep(nil, db, lb, ub, DefaultEps, agg, nil)
		if err != nil {
			t.Fatalf("PruneSweep(%v): %v", agg, err)
		}
		if res.PrunedCount() == 0 {
			t.Fatalf("agg %v: nothing pruned on a dense-core dataset", agg)
		}
		if res.Frontier == 0 {
			t.Fatalf("agg %v: empty frontier despite planted outliers", agg)
		}
		band := 1 + res.Eps
		for i := range exact {
			if res.Pruned[i] {
				if exact[i] > band*(1+1e-12) || exact[i] < (1/band)*(1-1e-12) {
					t.Fatalf("agg %v: pruned point %d has exact score %v outside band [%v, %v]",
						agg, i, exact[i], 1/band, band)
				}
				if res.Scores[i] != 1 {
					t.Fatalf("agg %v: pruned point %d scored %v, want 1", agg, i, res.Scores[i])
				}
				continue
			}
			if math.Float64bits(res.Scores[i]) != math.Float64bits(exact[i]) {
				t.Fatalf("agg %v: frontier point %d: pruned-sweep score %v != exact %v (bit mismatch)",
					agg, i, res.Scores[i], exact[i])
			}
		}
		// The planted outliers all score well above the band, so none may be
		// certified: recall over them is exactly 1.
		for _, o := range d.Outliers {
			if res.Pruned[o] {
				t.Fatalf("agg %v: planted outlier %d (exact %v) was pruned", agg, o, exact[o])
			}
		}
	}
}

func TestPruneSweepParallelMatchesSequential(t *testing.T) {
	d := clusteredWithOutliers(4, 500)
	lb, ub := 8, 16
	db := testDB(t, d, ub)
	seq, err := PruneSweep(nil, db, lb, ub, 0.25, core.AggMax, nil)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := PruneSweep(nil, db, lb, ub, 0.25, core.AggMax, pool.New(4))
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	for i := range seq.Scores {
		if math.Float64bits(seq.Scores[i]) != math.Float64bits(par.Scores[i]) {
			t.Fatalf("point %d: sequential %v != parallel %v", i, seq.Scores[i], par.Scores[i])
		}
		if seq.Pruned[i] != par.Pruned[i] {
			t.Fatalf("point %d: pruned divergence", i)
		}
	}
}

func TestPruneSweepCancelled(t *testing.T) {
	d := clusteredWithOutliers(5, 300)
	db := testDB(t, d, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PruneSweep(ctx, db, 10, 20, 0, core.AggMax, nil); err == nil {
		t.Fatal("cancelled PruneSweep returned no error")
	}
}

func TestPruneSweepDefaultEps(t *testing.T) {
	d := clusteredWithOutliers(6, 200)
	db := testDB(t, d, 20)
	res, err := PruneSweep(nil, db, 10, 20, 0, core.AggMax, nil)
	if err != nil {
		t.Fatalf("PruneSweep: %v", err)
	}
	if res.Eps != DefaultEps {
		t.Fatalf("eps defaulted to %v, want %v", res.Eps, DefaultEps)
	}
}

// TestQueryBoundsContainSeries checks the out-of-sample certificate: for a
// spread of query points, every value of the exact score series lies in
// [lower, upper].
func TestQueryBoundsContainSeries(t *testing.T) {
	d := clusteredWithOutliers(7, 500)
	lb, ub := 10, 20
	db := testDB(t, d, ub)
	ix := kdtree.New(d.Points, nil)
	scorer, err := core.NewScorer(d.Points, ix, db, geom.Euclidean{}, lb, ub)
	if err != nil {
		t.Fatalf("NewScorer: %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	queries := make([]geom.Point, 0, 64)
	for i := 0; i < 40; i++ {
		// Near cluster members (certifiable) ...
		base := d.Points.At(rng.Intn(d.Points.Len()))
		queries = append(queries, geom.Point{base[0] + rng.NormFloat64()*0.3, base[1] + rng.NormFloat64()*0.3})
	}
	for i := 0; i < 24; i++ {
		// ... and far field (outlying).
		queries = append(queries, geom.Point{rng.Float64()*300 - 150, rng.Float64()*300 - 150})
	}
	sum, err := NewSummaries(db, lb, ub, nil)
	if err != nil {
		t.Fatalf("NewSummaries: %v", err)
	}
	const slack = 1e-12
	certified := 0
	for qi, q := range queries {
		qRow := scorer.QueryRow(q)
		lower, upper := QueryBounds(sum, qRow)
		series, err := scorer.ScoreSeries(q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		for j, v := range series {
			if v < lower && !within(v, lower, slack) {
				t.Fatalf("query %d MinPts %d: score %v below lower bound %v", qi, lb+j, v, lower)
			}
			if v > upper && !within(v, upper, slack) {
				t.Fatalf("query %d MinPts %d: score %v above upper bound %v", qi, lb+j, v, upper)
			}
		}
		if Certified(lower, upper, DefaultEps) {
			certified++
		}
	}
	if certified == 0 {
		t.Fatal("no query certified; pruned serving would never fast-path")
	}
}

// TestScoreSeriesFromRowMatchesProbe pins the scorer split: probing first
// and evaluating later is bit-identical to the one-shot path.
func TestScoreSeriesFromRowMatchesProbe(t *testing.T) {
	d := clusteredWithOutliers(8, 300)
	db := testDB(t, d, 20)
	ix := kdtree.New(d.Points, nil)
	scorer, err := core.NewScorer(d.Points, ix, db, geom.Euclidean{}, 10, 20)
	if err != nil {
		t.Fatalf("NewScorer: %v", err)
	}
	q := geom.Point{3.5, -1.25}
	direct, err := scorer.ScoreSeriesCtx(nil, q)
	if err != nil {
		t.Fatalf("ScoreSeriesCtx: %v", err)
	}
	split, err := scorer.ScoreSeriesFromRow(nil, q, scorer.QueryRow(q))
	if err != nil {
		t.Fatalf("ScoreSeriesFromRow: %v", err)
	}
	for j := range direct {
		if math.Float64bits(direct[j]) != math.Float64bits(split[j]) {
			t.Fatalf("MinPts slot %d: %v != %v", j, direct[j], split[j])
		}
	}
}

func TestSensitivityDistribution(t *testing.T) {
	d := clusteredWithOutliers(9, 400)
	db := testDB(t, d, 20)
	q, err := Sensitivity(db, 20)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	var sum float64
	minQ := math.Inf(1)
	for _, v := range q {
		sum += v
		if v < minQ {
			minQ = v
		}
	}
	if !within(sum, 1, 1e-9) {
		t.Fatalf("sensitivity sums to %v, want 1", sum)
	}
	n := float64(db.Len())
	if minQ < sensitivityMix/n*(1-1e-9) {
		t.Fatalf("minimum sensitivity %v below the uniform floor %v", minQ, sensitivityMix/n)
	}
	// A planted far outlier must outweigh a typical cluster member.
	var mean float64
	for _, v := range q {
		mean += v
	}
	mean /= n
	for _, o := range d.Outliers {
		if q[o] <= mean {
			t.Fatalf("outlier %d sensitivity %v not above mean %v", o, q[o], mean)
		}
	}
}

func TestCoresetDeterministic(t *testing.T) {
	d := clusteredWithOutliers(10, 400)
	db := testDB(t, d, 20)
	idx1, err := Coreset(db, 20, 100, 42)
	if err != nil {
		t.Fatalf("Coreset: %v", err)
	}
	idx2, err := Coreset(db, 20, 100, 42)
	if err != nil {
		t.Fatalf("Coreset repeat: %v", err)
	}
	if len(idx1) != 100 {
		t.Fatalf("got %d indices, want 100", len(idx1))
	}
	for j := range idx1 {
		if idx1[j] != idx2[j] {
			t.Fatalf("slot %d: same-seed draws diverge (%d vs %d)", j, idx1[j], idx2[j])
		}
		if j > 0 && idx1[j] <= idx1[j-1] {
			t.Fatalf("indices not strictly ascending at slot %d", j)
		}
	}
	idx3, err := Coreset(db, 20, 100, 43)
	if err != nil {
		t.Fatalf("Coreset reseed: %v", err)
	}
	same := true
	for j := range idx1 {
		if idx1[j] != idx3[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical coresets")
	}
}

func TestCoresetEdgeCases(t *testing.T) {
	d := clusteredWithOutliers(11, 60)
	db := testDB(t, d, 10)
	if _, err := Coreset(db, 10, 0, 1); err == nil {
		t.Fatal("non-positive size accepted")
	}
	idx, err := Coreset(db, 10, db.Len()+50, 1)
	if err != nil {
		t.Fatalf("oversized coreset: %v", err)
	}
	if len(idx) != db.Len() {
		t.Fatalf("oversized coreset returned %d of %d points", len(idx), db.Len())
	}
	for j, i := range idx {
		if i != j {
			t.Fatalf("oversized coreset is not the identity at slot %d", j)
		}
	}
	if _, err := Coreset(db, 9999, 10, 1); err == nil {
		t.Fatal("invalid minPts accepted")
	}
}

// TestCoresetKeepsSparseRegions is the behavioral contrast with stride
// subsampling: sensitivity sampling must retain planted outliers at a rate
// far above their uniform share.
func TestCoresetKeepsSparseRegions(t *testing.T) {
	n := 800
	d := clusteredWithOutliers(12, n)
	db := testDB(t, d, 20)
	kept := 0
	trials := 20
	for s := int64(0); s < int64(trials); s++ {
		idx, err := Coreset(db, 20, 80, s)
		if err != nil {
			t.Fatalf("Coreset: %v", err)
		}
		in := make(map[int]bool, len(idx))
		for _, i := range idx {
			in[i] = true
		}
		for _, o := range d.Outliers {
			if in[o] {
				kept++
			}
		}
	}
	total := trials * len(d.Outliers)
	// Uniform sampling would keep ~10% (80/805); sensitivity must do far
	// better on the points that dominate the k-distance mass.
	if kept*2 < total {
		t.Fatalf("kept %d/%d planted outliers across seeds; sensitivity sampling is not favoring sparse regions", kept, total)
	}
}
