package lof

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"lof/internal/approx"
)

// TestScoreBatchWorkersBitIdentical pins the scoring fan-out: ScoreBatch
// parallelizes across queries only, so any pool width returns the
// single-worker scores bit for bit, in plain and distinct mode, including
// for a query that duplicates a fitted point.
func TestScoreBatchWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, distinct := range []bool{false, true} {
		data := modelTestData(rng, 200, true)
		det, err := New(Config{MinPtsLB: 4, MinPtsUB: 20, Distinct: distinct})
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
		queries := [][]float64{append([]float64(nil), data[0]...)} // duplicate of the cloned block
		for len(queries) < 50 {
			queries = append(queries, []float64{rng.Float64()*24 - 2, rng.Float64()*24 - 2})
		}
		want, err := m.WithWorkers(1).ScoreBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, err := m.WithWorkers(workers).ScoreBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("distinct=%v workers=%d query %d: %v, single worker %v (not bit-identical)",
						distinct, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScoreBatchAllocsPerQuery bounds ScoreBatch's allocations per query
// by a constant that does not grow with MinPtsUB: a query's probed row and
// closure tables live in pooled scratch — in distinct mode its spliced
// rows' ranks too — so only its series is allocated.
func TestScoreBatchAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race, so pooled scratch reallocates")
	}
	const perQuery = 3
	rng := rand.New(rand.NewSource(3))
	data := modelTestData(rng, 600, false)
	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = []float64{rng.Float64()*25 - 5, rng.Float64()*25 - 5}
	}
	for _, distinct := range []bool{false, true} {
		fit, qs := data, queries
		if distinct {
			// A duplicate pile, and a query on it, give the distinct ranks
			// work to do.
			fit = append([][]float64(nil), data...)
			for i := 1; i < 8; i++ {
				fit[i] = data[0]
			}
			qs = append(queries[:len(queries):len(queries)], data[0])
		}
		for _, ub := range []int{20, 60} {
			det, err := New(Config{MinPtsLB: 10, MinPtsUB: ub, Workers: 2, Distinct: distinct})
			if err != nil {
				t.Fatal(err)
			}
			res, err := det.Fit(fit)
			if err != nil {
				t.Fatal(err)
			}
			m, err := res.Model()
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := m.ScoreBatch(qs); err != nil {
					t.Fatal(err)
				}
			})
			if got := allocs / float64(len(qs)); got > perQuery {
				t.Errorf("distinct=%v MinPtsUB=%d: %.2f allocations per query, want at most %d", distinct, ub, got, perQuery)
			}
		}
	}
}

// TestPruningSummariesBuiltOnce checks the lazy summaries: a model that
// only scores exactly never builds them, and concurrent first pruned
// requests through the model and its WithWorkers/WithTrace copies share
// one build.
func TestPruningSummariesBuiltOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := modelTestData(rng, 300, false)
	det, err := New(Config{MinPtsLB: 5, MinPtsUB: 15})
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
	queries := make([][]float64, 24)
	for i := range queries {
		queries[i] = []float64{rng.Float64()*14 - 1, rng.Float64()*14 - 1}
	}
	if _, err := m.ScoreBatch(queries); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WithWorkers(2).Score(queries[0]); err != nil {
		t.Fatal(err)
	}
	if m.bounds.sum != nil {
		t.Fatal("exact scoring built the pruning summaries")
	}

	copies := []*Model{m, m.WithWorkers(1), m.WithWorkers(3), m.WithTrace(), m.WithTrace().WithWorkers(2)}
	got := make([]*approx.Summaries, 4*len(copies))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mc := copies[g%len(copies)]
			if _, err := mc.ScoreBatchPruned(queries, 0); err != nil {
				t.Error(err)
				return
			}
			got[g], _ = mc.summaries()
		}(g)
	}
	wg.Wait()
	for g, s := range got {
		if s == nil || s != got[0] {
			t.Fatalf("request %d saw summaries %p, request 0 saw %p; want one shared build", g, s, got[0])
		}
	}
}
