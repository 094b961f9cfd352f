package lof

import (
	"math"
	"math/rand"
	"testing"
)

// approxTestData builds clustered data with a few far outliers — the
// dense-core workload the pruned paths are designed to certify.
func approxTestData(rng *rand.Rand, n int) [][]float64 {
	data := make([][]float64, 0, n+4)
	for i := 0; i < n; i++ {
		c := float64(i%3) * 15
		data = append(data, []float64{c + rng.NormFloat64(), c + rng.NormFloat64()})
	}
	data = append(data,
		[]float64{60, -40}, []float64{-35, 55}, []float64{100, 100}, []float64{-60, -60})
	return data
}

// TestFitPrunedOracle: a pruned fit must agree with the exact fit on every
// unpruned object at the Float64bits level, and every pruned object's exact
// score must lie inside the certified band. On clustered data a meaningful
// fraction must actually be pruned and the planted outliers never.
func TestFitPrunedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := approxTestData(rng, 600)
	for _, agg := range []Aggregation{AggregateMax, AggregateMean, AggregateMin} {
		cfg := Config{Aggregation: agg, Workers: 1}
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		exactRes, err := det.Fit(data)
		if err != nil {
			t.Fatal(err)
		}
		exact := exactRes.Scores()
		pr, err := det.FitPruned(data, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Eps != DefaultPruneEps {
			t.Fatalf("eps = %v, want default %v", pr.Eps, DefaultPruneEps)
		}
		if pr.PrunedCount() < len(data)/2 {
			t.Fatalf("agg %v: only %d of %d pruned on a dense-core dataset", agg, pr.PrunedCount(), len(data))
		}
		lo, hi := 1/(1+pr.Eps), 1+pr.Eps
		for i, v := range exact {
			if pr.Pruned[i] {
				if v < lo*(1-1e-12) || v > hi*(1+1e-12) {
					t.Fatalf("agg %v: pruned object %d has exact score %v outside [%v, %v]", agg, i, v, lo, hi)
				}
				if pr.Scores[i] != 1 {
					t.Fatalf("agg %v: pruned object %d reported %v", agg, i, pr.Scores[i])
				}
				continue
			}
			if math.Float64bits(pr.Scores[i]) != math.Float64bits(v) {
				t.Fatalf("agg %v: frontier object %d diverged: %v vs exact %v", agg, i, pr.Scores[i], v)
			}
		}
		for i := len(data) - 4; i < len(data); i++ {
			if pr.Pruned[i] {
				t.Fatalf("agg %v: planted outlier %d (exact %v) was pruned", agg, i, exact[i])
			}
		}
		if pr.Model() == nil {
			t.Fatal("pruned fit returned no model")
		}
	}
}

// TestScoreBatchPrunedOracle: certified queries really have out-of-sample
// scores in the band, uncertain ones are bit-identical to ScoreBatch, and
// near-cluster queries do take the fast path.
func TestScoreBatchPrunedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	data := approxTestData(rng, 500)
	det, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 0, 48)
	for i := 0; i < 40; i++ {
		base := data[rng.Intn(500)]
		queries = append(queries, []float64{base[0] + rng.NormFloat64()*0.2, base[1] + rng.NormFloat64()*0.2})
	}
	for i := 0; i < 8; i++ {
		queries = append(queries, []float64{rng.Float64()*300 - 150, rng.Float64()*300 - 150})
	}
	exact, err := m.ScoreBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := m.ScoreBatchPruned(queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Certified == 0 {
		t.Fatal("no query certified; the pruned serving path would never fast-path")
	}
	lo, hi := 1/(1+pb.Eps), 1+pb.Eps
	for i, v := range exact {
		if pb.Pruned[i] {
			if v < lo*(1-1e-12) || v > hi*(1+1e-12) {
				t.Fatalf("query %d certified but exact score %v outside [%v, %v]", i, v, lo, hi)
			}
			if pb.Scores[i] != 1 {
				t.Fatalf("certified query %d reported %v", i, pb.Scores[i])
			}
			continue
		}
		if math.Float64bits(pb.Scores[i]) != math.Float64bits(v) {
			t.Fatalf("uncertain query %d diverged: %v vs %v", i, pb.Scores[i], v)
		}
	}
	var n int
	for _, p := range pb.Pruned {
		if p {
			n++
		}
	}
	if n != pb.Certified {
		t.Fatalf("Certified=%d but %d marks set", pb.Certified, n)
	}
}

// TestCoresetModel: the coreset refit is deterministic, respects the
// MinPtsUB floor, retains planted outlier regions, and carries the metric
// configuration (including feature weights) into the derived model.
func TestCoresetModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := approxTestData(rng, 400)
	det, err := New(Config{Weights: []float64{1, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Coreset(m.Config().MinPtsUB); err == nil {
		t.Fatal("coreset at MinPtsUB should be rejected")
	}
	if cm, err := m.Coreset(m.Len() + 5); err != nil || cm != m {
		t.Fatalf("oversized coreset should return the receiver, got %v (%v)", cm, err)
	}
	cm, err := m.Coreset(120)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Len() != 120 {
		t.Fatalf("coreset model has %d points, want 120", cm.Len())
	}
	if w := cm.Config().Weights; len(w) != 2 || w[0] != 1 || w[1] != 2.5 {
		t.Fatalf("coreset dropped metric weights: %v", w)
	}
	cm2, err := m.Coreset(120)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q := []float64{rng.Float64() * 40, rng.Float64() * 40}
		a, errA := cm.Score(q)
		b, errB := cm2.Score(q)
		if errA != nil || errB != nil || math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("coreset draw not deterministic: %v (%v) vs %v (%v)", a, errA, b, errB)
		}
	}
	// An outlier far from every cluster must still look outlying to the
	// coreset model: sensitivity sampling keeps the sparse regions that give
	// the score its contrast.
	score, err := cm.Score([]float64{200, 200})
	if err != nil {
		t.Fatal(err)
	}
	if score < 1.5 {
		t.Fatalf("coreset model scores a far outlier %v; sparse regions were lost", score)
	}
}
