package lof

import (
	"math"
	"math/rand"
	"testing"
)

// clusterPlusOutlier builds a Gaussian blob with one distant point at the
// last index.
func clusterPlusOutlier(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, 0, n+1)
	for i := 0; i < n; i++ {
		data = append(data, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	data = append(data, []float64{25, 25})
	return data
}

func TestNewDefaults(t *testing.T) {
	det, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := det.Config()
	if cfg.MinPtsLB != DefaultMinPtsLB || cfg.MinPtsUB != DefaultMinPtsUB {
		t.Fatalf("defaults=%d..%d", cfg.MinPtsLB, cfg.MinPtsUB)
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{MinPts: -1},
		{MinPts: 5, MinPtsLB: 3},
		{MinPtsLB: -2, MinPtsUB: 5},
		{MinPtsLB: 10, MinPtsUB: 5},
		{Aggregation: Aggregation(9)},
		{Index: IndexKind(42)},
		{Metric: "cosine"},
		{Workers: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestAggregationMatchesCore pins that each public aggregation converts to
// the core aggregate of the same name.
func TestAggregationMatchesCore(t *testing.T) {
	for _, name := range []string{"max", "mean", "min"} {
		a, err := ParseAggregation(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := (Config{Aggregation: a}).coreAggregate().String(); got != name {
			t.Errorf("aggregation %q converts to core %q", name, got)
		}
	}
}

func TestFitFindsPlantedOutlier(t *testing.T) {
	data := clusterPlusOutlier(1, 120)
	det, err := New(Config{MinPtsLB: 10, MinPtsUB: 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 121 {
		t.Fatalf("Len=%d", res.Len())
	}
	top := res.TopN(1)
	if len(top) != 1 || top[0].Index != 120 {
		t.Fatalf("top=%v want index 120", top)
	}
	if top[0].Score < 2 {
		t.Fatalf("outlier score=%v", top[0].Score)
	}
	// Cluster members score near 1.
	scores := res.Scores()
	inliers := 0
	for i := 0; i < 120; i++ {
		if scores[i] < 2 {
			inliers++
		}
	}
	if inliers < 110 {
		t.Fatalf("only %d/120 cluster members below 2", inliers)
	}
}

func TestAllIndexKindsAgree(t *testing.T) {
	data := clusterPlusOutlier(2, 100)
	var want []float64
	for _, kind := range []IndexKind{IndexLinear, IndexGrid, IndexKDTree, IndexXTree, IndexVAFile, IndexAuto} {
		det, err := New(Config{MinPts: 10, Index: kind})
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Fit(data)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		got := res.Scores()
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("%v: score[%d]=%v, linear=%v", kind, i, got[i], want[i])
			}
		}
	}
}

func TestMetricsRun(t *testing.T) {
	data := clusterPlusOutlier(3, 60)
	for _, metric := range []string{"", "euclidean", "manhattan", "chebyshev"} {
		det, err := New(Config{MinPts: 8, Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Fit(data)
		if err != nil {
			t.Fatalf("metric %q: %v", metric, err)
		}
		if res.TopN(1)[0].Index != 60 {
			t.Fatalf("metric %q missed the outlier", metric)
		}
	}
}

func TestFitValidation(t *testing.T) {
	det, err := New(Config{MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Fit(nil); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := det.Fit([][]float64{{}}); err == nil {
		t.Error("zero-dim data accepted")
	}
	if _, err := det.Fit([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged data accepted")
	}
	if _, err := det.Fit([][]float64{{1, 2}, {3, math.NaN()}}); err == nil {
		t.Error("NaN accepted")
	}
	// Too few rows for MinPtsUB.
	few := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	if _, err := det.Fit(few); err == nil {
		t.Error("n <= MinPtsUB accepted")
	}
}

func TestScoresConvenience(t *testing.T) {
	data := clusterPlusOutlier(4, 80)
	scores, err := Scores(data, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 81 {
		t.Fatalf("len=%d", len(scores))
	}
	best, bestIdx := 0.0, -1
	for i, s := range scores {
		if s > best {
			best, bestIdx = s, i
		}
	}
	if bestIdx != 80 {
		t.Fatalf("argmax=%d", bestIdx)
	}
}

func TestResultAccessors(t *testing.T) {
	data := clusterPlusOutlier(5, 90)
	det, err := New(Config{MinPtsLB: 8, MinPtsUB: 12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	lb, ub := res.MinPtsRange()
	if lb != 8 || ub != 12 {
		t.Fatalf("range=%d..%d", lb, ub)
	}
	if s := res.Score(90); s != res.Scores()[90] {
		t.Fatalf("Score(90)=%v", s)
	}
	lofs, err := res.LOFAt(10)
	if err != nil || len(lofs) != 91 {
		t.Fatalf("LOFAt: %v len=%d", err, len(lofs))
	}
	if _, err := res.LOFAt(99); err == nil {
		t.Error("out-of-range LOFAt accepted")
	}
	xs, ys := res.Series(90)
	if len(xs) != 5 || len(ys) != 5 {
		t.Fatalf("series lens=%d,%d", len(xs), len(ys))
	}
	if xs[0] != 8 || xs[4] != 12 {
		t.Fatalf("series x=%v", xs)
	}

	// Bounds bracket the actual LOF at each MinPts.
	for _, minPts := range []int{8, 10, 12} {
		lofsAt, err := res.LOFAt(minPts)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := res.Bounds(90, minPts)
		if err != nil {
			t.Fatal(err)
		}
		if lofsAt[90] < lo-1e-9 || lofsAt[90] > hi+1e-9 {
			t.Fatalf("minPts=%d LOF=%v outside [%v, %v]", minPts, lofsAt[90], lo, hi)
		}
	}

	kd, err := res.KDistance(0, 10)
	if err != nil || !(kd > 0) {
		t.Fatalf("KDistance=%v err=%v", kd, err)
	}
	if _, err := res.KDistance(0, 13); err == nil {
		t.Error("KDistance beyond K accepted")
	}
	nsz, err := res.NeighborhoodSize(0, 10)
	if err != nil || nsz < 10 {
		t.Fatalf("NeighborhoodSize=%d err=%v", nsz, err)
	}
	if _, err := res.NeighborhoodSize(0, 0); err == nil {
		t.Error("NeighborhoodSize(0) accepted")
	}

	lo2, hi2, err := res.PartitionedBounds(90, 10, func(int) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	lo1, hi1, err := res.Bounds(90, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo1-lo2) > 1e-9 || math.Abs(hi1-hi2) > 1e-9 {
		t.Fatalf("corollary 1 violated: [%v,%v] vs [%v,%v]", lo1, hi1, lo2, hi2)
	}
}

func TestOutliersAbove(t *testing.T) {
	data := clusterPlusOutlier(6, 100)
	det, err := New(Config{MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	out := res.OutliersAbove(2)
	if len(out) == 0 || out[0].Index != 100 {
		t.Fatalf("OutliersAbove=%v", out)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Score > out[i-1].Score {
			t.Fatal("not descending")
		}
		if out[i].Score <= 2 {
			t.Fatal("threshold not respected")
		}
	}
	if got := res.OutliersAbove(math.Inf(1)); len(got) != 0 {
		t.Fatalf("OutliersAbove(+Inf)=%v", got)
	}
}

func TestAggregationModes(t *testing.T) {
	data := clusterPlusOutlier(7, 100)
	get := func(agg Aggregation) []float64 {
		det, err := New(Config{MinPtsLB: 8, MinPtsUB: 16, Aggregation: agg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Fit(data)
		if err != nil {
			t.Fatal(err)
		}
		return res.Scores()
	}
	maxS, meanS, minS := get(AggregateMax), get(AggregateMean), get(AggregateMin)
	for i := range maxS {
		if !(minS[i] <= meanS[i]+1e-12 && meanS[i] <= maxS[i]+1e-12) {
			t.Fatalf("point %d: min=%v mean=%v max=%v", i, minS[i], meanS[i], maxS[i])
		}
	}
}

func TestDistinctConfig(t *testing.T) {
	// 30 duplicate rows + a shifted blob: plain config yields Inf-free
	// scores of 1 for duplicates; distinct handles them finitely too.
	data := make([][]float64, 0, 61)
	for i := 0; i < 30; i++ {
		data = append(data, []float64{0, 0})
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 31; i++ {
		data = append(data, []float64{5 + rng.NormFloat64(), 5 + rng.NormFloat64()})
	}
	det, err := New(Config{MinPts: 10, Distinct: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Scores() {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("score[%d]=%v", i, s)
		}
	}
}

func TestWorkersMatchSequential(t *testing.T) {
	data := clusterPlusOutlier(9, 150)
	run := func(workers int) []float64 {
		det, err := New(Config{MinPts: 12, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Fit(data)
		if err != nil {
			t.Fatal(err)
		}
		return res.Scores()
	}
	seq, par := run(0), run(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("score[%d] differs: %v vs %v", i, seq[i], par[i])
		}
	}
}

func TestIndexKindString(t *testing.T) {
	names := map[IndexKind]string{
		IndexAuto: "auto", IndexLinear: "linear", IndexGrid: "grid",
		IndexKDTree: "kdtree", IndexXTree: "xtree", IndexVAFile: "vafile",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String()=%q want %q", int(k), got, want)
		}
	}
	if IndexKind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestVAFileFallbackOnHighDim(t *testing.T) {
	// 20-d data routes to the VA-file under IndexAuto; results must match
	// the linear scan.
	rng := rand.New(rand.NewSource(10))
	data := make([][]float64, 60)
	for i := range data {
		row := make([]float64, 20)
		for d := range row {
			row[d] = rng.NormFloat64()
		}
		data[i] = row
	}
	auto, err := New(Config{MinPts: 5, Index: IndexAuto})
	if err != nil {
		t.Fatal(err)
	}
	lin, err := New(Config{MinPts: 5, Index: IndexLinear})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := auto.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := lin.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	sa, sl := ra.Scores(), rl.Scores()
	for i := range sa {
		if math.Abs(sa[i]-sl[i]) > 1e-9 {
			t.Fatalf("score[%d]: auto=%v linear=%v", i, sa[i], sl[i])
		}
	}
}

func TestWeightedConfig(t *testing.T) {
	// A cluster spread along x with an outlier displaced only in y: with
	// x effectively ignored (tiny weight), the y-displaced point dominates.
	rng := rand.New(rand.NewSource(12))
	data := make([][]float64, 0, 121)
	for i := 0; i < 120; i++ {
		data = append(data, []float64{rng.Float64() * 1000, rng.NormFloat64()})
	}
	data = append(data, []float64{500, 12})
	det, err := New(Config{MinPts: 10, Weights: []float64{0.000001, 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	if top := res.TopN(1); top[0].Index != 120 {
		t.Fatalf("top=%v want 120", top)
	}

	// Validation paths.
	if _, err := New(Config{MinPts: 5, Weights: []float64{1}, Metric: "manhattan"}); err == nil {
		t.Error("weights with manhattan accepted")
	}
	if _, err := New(Config{MinPts: 5, Weights: []float64{-1}}); err == nil {
		t.Error("negative weight accepted")
	}
	detBad, err := New(Config{MinPts: 5, Weights: []float64{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detBad.Fit(data); err == nil {
		t.Error("dimension-mismatched weights accepted at Fit")
	}
}

func TestWeightedMatchesPrescaledData(t *testing.T) {
	// Weighted Euclidean with weights w must equal plain Euclidean on data
	// scaled by sqrt(w) per column.
	rng := rand.New(rand.NewSource(13))
	w := []float64{4, 0.25}
	var raw, scaled [][]float64
	for i := 0; i < 80; i++ {
		x, y := rng.NormFloat64()*3, rng.NormFloat64()*3
		raw = append(raw, []float64{x, y})
		scaled = append(scaled, []float64{2 * x, 0.5 * y})
	}
	dw, err := New(Config{MinPts: 8, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := dw.Fit(raw)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(Config{MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Fit(scaled)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rw.Scores(), rp.Scores()
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("point %d: weighted=%v prescaled=%v", i, a[i], b[i])
		}
	}
}
