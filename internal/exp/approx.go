package exp

import (
	"fmt"

	"lof"
	"lof/internal/core"
	"lof/internal/dataset"
)

// ApproxRow is one dataset's recall@n-vs-speedup measurement of the
// approximate serving paths against exact LOF.
type ApproxRow struct {
	Dataset string
	N       int
	TopN    int
	// CertifiedFrac is the fraction of fitted points the pruning pass
	// certified as LOF≈1 without exact evaluation.
	CertifiedFrac float64
	// Fit wall clocks: the exact MinPts sweep vs the pruned sweep over the
	// same materialized database.
	FitExactMS, FitPrunedMS float64
	// Score wall clocks for re-scoring every point out-of-sample through
	// the three serving paths.
	ScoreExactMS, ScorePrunedMS, ScoreCoresetMS float64
	// Recall@TopN of each approximate ranking against the exact one.
	PrunedRecall, CoresetRecall float64
	// CoresetM is the coreset size used.
	CoresetM int
}

// ApproxResult is the recall@n-vs-speedup table of the approximate fast
// path (pruning + sensitivity coresets) over the evaluation datasets.
type ApproxResult struct {
	Eps  float64
	Rows []ApproxRow
}

// recallAt computes |topN(exact) ∩ topN(approx)| / n — the fraction of the
// true top-n outliers the approximate ranking recovers.
func recallAt(exact, approx []float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	want := make(map[int]bool, n)
	for _, r := range core.TopN(exact, n) {
		want[r.Index] = true
	}
	hit := 0
	for _, r := range core.TopN(approx, n) {
		if want[r.Index] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// runApproxDataset measures one dataset: exact fit vs pruned fit, then the
// exact, pruned, and coreset scoring paths over all points as out-of-sample
// queries.
func runApproxDataset(name string, data [][]float64, lb, ub, topn, coresetM int, eps float64) (ApproxRow, error) {
	row := ApproxRow{Dataset: name, N: len(data), TopN: topn, CoresetM: coresetM}
	cfg := lof.Config{MinPtsLB: lb, MinPtsUB: ub}
	det, err := lof.New(cfg)
	if err != nil {
		return row, err
	}

	var res *lof.Result
	dFit, err := timed(func() error {
		res, err = det.Fit(data)
		if err != nil {
			return err
		}
		_ = res.Scores() // force the lazy aggregate inside the timing
		return nil
	})
	if err != nil {
		return row, err
	}
	row.FitExactMS = float64(dFit.Microseconds()) / 1000
	model, err := res.Model()
	if err != nil {
		return row, err
	}

	detP, err := lof.New(cfg)
	if err != nil {
		return row, err
	}
	var pruned *lof.PrunedResult
	dPruned, err := timed(func() error {
		pruned, err = detP.FitPruned(data, eps)
		return err
	})
	if err != nil {
		return row, err
	}
	row.FitPrunedMS = float64(dPruned.Microseconds()) / 1000
	row.CertifiedFrac = float64(pruned.PrunedCount()) / float64(len(data))

	// Score paths: every point re-scored out-of-sample. The pruned path
	// answers certified queries from the bound alone; the coreset path
	// scores against the sensitivity-sampled model.
	var exactQ []float64
	dScore, err := timed(func() error {
		exactQ, err = model.ScoreBatch(data)
		return err
	})
	if err != nil {
		return row, err
	}
	row.ScoreExactMS = float64(dScore.Microseconds()) / 1000

	var prunedQ *lof.PrunedBatch
	dScoreP, err := timed(func() error {
		prunedQ, err = model.ScoreBatchPruned(data, eps)
		return err
	})
	if err != nil {
		return row, err
	}
	row.ScorePrunedMS = float64(dScoreP.Microseconds()) / 1000
	row.PrunedRecall = recallAt(exactQ, prunedQ.Scores, topn)

	coreset, err := model.Coreset(coresetM)
	if err != nil {
		return row, err
	}
	var coresetQ []float64
	dScoreC, err := timed(func() error {
		coresetQ, err = coreset.ScoreBatch(data)
		return err
	})
	if err != nil {
		return row, err
	}
	row.ScoreCoresetMS = float64(dScoreC.Microseconds()) / 1000
	row.CoresetRecall = recallAt(exactQ, coresetQ, topn)
	return row, nil
}

// approxSynthetic builds the fixed-seed synthetic workload for the recall
// gate: clusters of varied density whose exact top-n ranking is the ground
// truth.
func approxSynthetic(seed int64, n int) [][]float64 {
	d := dataset.RandomClusters(seed, n, 2, 5)
	data := make([][]float64, d.Len())
	for i := range data {
		data[i] = d.Points.At(i)
	}
	return data
}

// RunApprox produces the recall@n-vs-speedup table over the hockey and
// soccer leagues plus the synthetic cluster workload.
func RunApprox(seed int64, quick bool) (*ApproxResult, error) {
	res := &ApproxResult{Eps: lof.DefaultPruneEps}
	synN := 20000
	if quick {
		synN = 2000
	}

	hockey := dataset.Hockey(seed).Test1()
	hockeyData := make([][]float64, hockey.Len())
	for i := range hockeyData {
		hockeyData[i] = hockey.Points.At(i)
	}
	soccer := dataset.Soccer(seed).Dataset()
	soccerData := make([][]float64, soccer.Len())
	for i := range soccerData {
		soccerData[i] = soccer.Points.At(i)
	}

	for _, spec := range []struct {
		name           string
		data           [][]float64
		lb, ub         int
		topn, coresetM int
	}{
		{"hockey1", hockeyData, 30, 50, 10, len(hockeyData) / 4},
		{"soccer", soccerData, 30, 50, 10, len(soccerData) / 4},
		{"synthetic", approxSynthetic(seed, synN), 10, 40, 50, 2048},
	} {
		row, err := runApproxDataset(spec.name, spec.data, spec.lb, spec.ub, spec.topn, spec.coresetM, res.Eps)
		if err != nil {
			return nil, fmt.Errorf("exp: approx %s: %w", spec.name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the recall/speedup comparison.
func (r *ApproxResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Approximate fast path: recall@n vs speedup (eps=%.2f)", r.Eps),
		Header: []string{"dataset", "n", "top-n", "certified%", "fit-x", "score-x(pruned)",
			"recall(pruned)", "coreset-m", "score-x(coreset)", "recall(coreset)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, fmt.Sprintf("%d", row.N), fmt.Sprintf("%d", row.TopN),
			fmt.Sprintf("%.1f", 100*row.CertifiedFrac),
			fmt.Sprintf("%.2fx", row.FitExactMS/row.FitPrunedMS),
			fmt.Sprintf("%.2fx", row.ScoreExactMS/row.ScorePrunedMS),
			f(row.PrunedRecall),
			fmt.Sprintf("%d", row.CoresetM),
			fmt.Sprintf("%.2fx", row.ScoreExactMS/row.ScoreCoresetMS),
			f(row.CoresetRecall))
	}
	return t
}

// ApproxGateResult is the CI recall-gate measurement on the fixed-seed
// synthetic dataset.
type ApproxGateResult struct {
	N, TopN                     int
	Eps                         float64
	CertifiedFrac               float64
	PrunedRecall, CoresetRecall float64
	// PrunedSpeedup is the out-of-sample scoring speedup of the pruned
	// path over exact; FitSpeedup compares the pruned sweep to the exact
	// sweep (materialization included in both).
	PrunedSpeedup, CoresetSpeedup, FitSpeedup float64
	// ExactUSPerQuery and PrunedUSPerQuery are the two sides of
	// PrunedSpeedup: wall-clock µs per re-scored point.
	ExactUSPerQuery, PrunedUSPerQuery float64
}

// RunApproxGate runs the recall gate workload: the synthetic cluster
// dataset at a fixed seed, exact vs pruned vs coreset, reporting the
// numbers scripts/approx_gate.sh asserts on.
func RunApproxGate(seed int64, n int) (*ApproxGateResult, error) {
	const topn = 50
	row, err := runApproxDataset("gate", approxSynthetic(seed, n), 10, 40, topn, 2048, lof.DefaultPruneEps)
	if err != nil {
		return nil, err
	}
	return &ApproxGateResult{
		N: row.N, TopN: topn, Eps: lof.DefaultPruneEps,
		CertifiedFrac:    row.CertifiedFrac,
		PrunedRecall:     row.PrunedRecall,
		CoresetRecall:    row.CoresetRecall,
		PrunedSpeedup:    row.ScoreExactMS / row.ScorePrunedMS,
		CoresetSpeedup:   row.ScoreExactMS / row.ScoreCoresetMS,
		FitSpeedup:       row.FitExactMS / row.FitPrunedMS,
		ExactUSPerQuery:  1000 * row.ScoreExactMS / float64(row.N),
		PrunedUSPerQuery: 1000 * row.ScorePrunedMS / float64(row.N),
	}, nil
}

// Table renders the gate result, ending with the machine-parseable GATE
// line scripts/approx_gate.sh greps.
func (r *ApproxGateResult) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Approx recall gate: n=%d top-%d eps=%.2f", r.N, r.TopN, r.Eps),
		Header: []string{"metric", "value"},
	}
	t.AddRow("certified%", fmt.Sprintf("%.1f", 100*r.CertifiedFrac))
	t.AddRow("pruned recall@50", f(r.PrunedRecall))
	t.AddRow("pruned score speedup", fmt.Sprintf("%.2fx", r.PrunedSpeedup))
	t.AddRow("exact µs/query", fmt.Sprintf("%.1f", r.ExactUSPerQuery))
	t.AddRow("pruned µs/query", fmt.Sprintf("%.1f", r.PrunedUSPerQuery))
	t.AddRow("coreset recall@50", f(r.CoresetRecall))
	t.AddRow("coreset score speedup", fmt.Sprintf("%.2fx", r.CoresetSpeedup))
	t.AddRow("fit speedup", fmt.Sprintf("%.2fx", r.FitSpeedup))
	return t
}

// GateLine is the single parseable line the gate script consumes.
func (r *ApproxGateResult) GateLine() string {
	return fmt.Sprintf("GATE pruned_recall@%d=%.4f pruned_speedup=%.2fx coreset_recall@%d=%.4f coreset_speedup=%.2fx fit_speedup=%.2fx certified=%.4f",
		r.TopN, r.PrunedRecall, r.PrunedSpeedup, r.TopN, r.CoresetRecall, r.CoresetSpeedup, r.FitSpeedup, r.CertifiedFrac)
}
