// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablation benches DESIGN.md calls out. Each benchmark
// runs the same code path as the corresponding lofexp experiment; custom
// metrics report the headline quantities (LOF values, ranks) so a bench run
// doubles as a regression check of the reproduced results.
//
//	go test -bench=. -benchmem
package lof_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"lof"
	"lof/internal/core"
	"lof/internal/dataset"
	"lof/internal/exp"
	"lof/internal/index"
	"lof/internal/index/kdtree"
	"lof/internal/index/linear"
	"lof/internal/matdb"
)

const benchSeed = 42

// BenchmarkFig1DS1 regenerates the figure 1 experiment: LOF isolates o1 and
// o2 on DS1 while the DB(pct,dmin) sweep cannot isolate o2.
func BenchmarkFig1DS1(b *testing.B) {
	var r *exp.DS1Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunDS1(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.LOFO1, "LOF(o1)")
	b.ReportMetric(r.LOFO2, "LOF(o2)")
	b.ReportMetric(float64(r.RankO2+1), "rank(o2)")
}

// BenchmarkFig3Theorem1 regenerates the theorem 1 bound demonstration.
func BenchmarkFig3Theorem1(b *testing.B) {
	var r *exp.Thm1DemoResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunThm1Demo(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Lower, "LOF-lower")
	b.ReportMetric(r.Upper, "LOF-upper")
	b.ReportMetric(r.Actual, "LOF-actual")
}

// BenchmarkFig4BoundSpread regenerates the analytic bound-spread series.
func BenchmarkFig4BoundSpread(b *testing.B) {
	var r *exp.Fig4Result
	for i := 0; i < b.N; i++ {
		r = exp.RunFig4()
	}
	last := len(r.Ratios) - 1
	b.ReportMetric(r.LOFMax[2][last]-r.LOFMin[2][last], "spread@pct10-ratio10")
}

// BenchmarkFig5RelativeSpan regenerates the closed-form relative-span curve.
func BenchmarkFig5RelativeSpan(b *testing.B) {
	var r *exp.Fig5Result
	for i := 0; i < b.N; i++ {
		r = exp.RunFig5()
	}
	b.ReportMetric(r.Spans[len(r.Spans)-1], "span@pct99")
}

// BenchmarkFig6Theorem2 regenerates the multi-cluster bound demonstration.
func BenchmarkFig6Theorem2(b *testing.B) {
	var r *exp.Thm2DemoResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunThm2Demo(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Thm1Upper-r.Thm1Lower, "thm1-spread")
	b.ReportMetric(r.Thm2Upper-r.Thm2Lower, "thm2-spread")
}

// BenchmarkFig7GaussianSweep regenerates the LOF-fluctuation experiment
// (MinPts 2..50 inside one Gaussian cluster).
func BenchmarkFig7GaussianSweep(b *testing.B) {
	var r *exp.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunFig7(benchSeed, 500)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Max[0], "maxLOF@MinPts2")
	b.ReportMetric(r.Max[len(r.Max)-1], "maxLOF@MinPts50")
}

// BenchmarkFig8Ranges regenerates the LOF-vs-MinPts curves for the three
// cluster sizes (10/35/500).
func BenchmarkFig8Ranges(b *testing.B) {
	var r *exp.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunFig8(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MaxS1, "maxLOF-S1")
	b.ReportMetric(r.MaxS2, "maxLOF-S2")
	b.ReportMetric(r.MaxS3, "maxLOF-S3")
}

// BenchmarkFig9Surface regenerates the LOF surface of the four-cluster
// dataset at MinPts=40.
func BenchmarkFig9Surface(b *testing.B) {
	var r *exp.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunFig9(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MinOutlierLOF, "min-outlier-LOF")
	b.ReportMetric(r.UniformMax, "uniform-max-LOF")
}

// BenchmarkHockeyTest1 regenerates section 7.2 test 1 (points, plus-minus,
// penalty minutes).
func BenchmarkHockeyTest1(b *testing.B) {
	var r *exp.HockeyResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunHockey(benchSeed, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.RankOf["Vladimir Konstantinov"]), "rank-konstantinov")
	b.ReportMetric(float64(r.RankOf["Matthew Barnaby"]), "rank-barnaby")
}

// BenchmarkHockeyTest2 regenerates section 7.2 test 2 (games, goals,
// shooting percentage).
func BenchmarkHockeyTest2(b *testing.B) {
	var r *exp.HockeyResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunHockey(benchSeed, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.RankOf["Chris Osgood"]), "rank-osgood")
	b.ReportMetric(float64(r.RankOf["Mario Lemieux"]), "rank-lemieux")
	b.ReportMetric(float64(r.RankOf["Steve Poapst"]), "rank-poapst")
}

// BenchmarkTable3Soccer regenerates the Table 3 soccer experiment.
func BenchmarkTable3Soccer(b *testing.B) {
	var r *exp.SoccerResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunSoccer(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Outliers)), "outliers>1.5")
	if len(r.Outliers) > 0 {
		b.ReportMetric(r.Outliers[0].Score, "top-LOF")
	}
}

// BenchmarkHighDim64 regenerates the 64-dimensional color-histogram
// experiment.
func BenchmarkHighDim64(b *testing.B) {
	var r *exp.HighDimResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunHighDim(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MaxOutlierLOF, "max-outlier-LOF")
	b.ReportMetric(float64(r.PlantedInTop), "planted-in-top")
}

// BenchmarkFig10Materialization measures step 1 (index build + kNN
// materialization, MinPtsUB=50) across the paper's dimensionalities. The
// per-op time is the figure's y value; sweep n via -bench and compare.
func BenchmarkFig10Materialization(b *testing.B) {
	for _, dim := range []int{2, 5, 10, 20} {
		for _, n := range []int{2000, 8000} {
			b.Run(fmt.Sprintf("d=%d/n=%d", dim, n), func(b *testing.B) {
				d := dataset.RandomClusters(benchSeed, n, dim, 10)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ix := kdtree.New(d.Points, nil)
					if _, err := matdb.Materialize(d.Points, ix, 50); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig11LOFStep measures step 2 (two scans per MinPts in 10..50
// over the materialization database) — the paper shows it is linear in n.
func BenchmarkFig11LOFStep(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := dataset.RandomClusters(benchSeed, n, 2, 10)
			ix := kdtree.New(d.Points, nil)
			db, err := matdb.Materialize(d.Points, ix, 50)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Sweep(db, 10, 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIndexes compares the materialization cost under each
// index structure on one workload (the IndexAuto design choice).
func BenchmarkAblationIndexes(b *testing.B) {
	d := dataset.RandomClusters(benchSeed, 4000, 5, 10)
	for _, kind := range []lof.IndexKind{lof.IndexLinear, lof.IndexGrid, lof.IndexKDTree, lof.IndexXTree, lof.IndexVAFile} {
		b.Run(kind.String(), func(b *testing.B) {
			rows := make([][]float64, d.Len())
			for i := range rows {
				rows[i] = d.Points.At(i)
			}
			det, err := lof.New(lof.Config{MinPts: 20, Index: kind})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Fit(rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMaterialization contrasts the paper's two-step algorithm
// with naive per-MinPts recomputation over the index.
func BenchmarkAblationMaterialization(b *testing.B) {
	const lb, ub = 10, 30
	d := dataset.RandomClusters(benchSeed, 1500, 2, 5)
	ix := kdtree.New(d.Points, nil)
	b.Run("two-step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, err := matdb.Materialize(d.Points, ix, ub)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Sweep(db, lb, ub); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for minPts := lb; minPts <= ub; minPts++ {
				core.NaiveLOFs(ix, func(j int) []index.Neighbor {
					return index.KNNWithTiesInto(ix.NewCursor(), nil, d.Points.At(j), minPts, j)
				}, minPts)
			}
		}
	})
}

// BenchmarkAblationReachVsRaw quantifies the reach-dist smoothing design
// choice: LOF standard deviation inside a uniform cluster with and without
// Definition 5's smoothing.
func BenchmarkAblationReachVsRaw(b *testing.B) {
	var r *exp.AblationReachResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunAblationReach(benchSeed, 1000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ReachStd, "reach-std")
	b.ReportMetric(r.RawStd, "raw-std")
}

// BenchmarkAblationAggregators compares max/mean/min aggregation over the
// MinPts range (the Sec. 6.2 heuristic).
func BenchmarkAblationAggregators(b *testing.B) {
	var r *exp.AblationAggregatesResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunAblationAggregates(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MaxScore, "max-agg-score")
	b.ReportMetric(r.MinScore, "min-agg-score")
}

// BenchmarkQualityComparison regenerates the detection-quality study: LOF
// vs the global rankings on planted local+global outliers.
func BenchmarkQualityComparison(b *testing.B) {
	var r *exp.QualityResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunQuality(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Methods[0].AUC, "LOF-AUC")
	b.ReportMetric(r.Methods[1].AUC, "kNN-AUC")
	b.ReportMetric(float64(r.LocalFoundLOF), "locals-found-LOF")
	b.ReportMetric(float64(r.LocalFoundKNN), "locals-found-kNN")
}

// BenchmarkNoiseVsLOF regenerates the clustering-noise comparison on the
// figure 9 dataset.
func BenchmarkNoiseVsLOF(b *testing.B) {
	var r *exp.NoiseVsLOFResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.RunNoiseVsLOF(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.NoiseSize), "noise-size")
	b.ReportMetric(r.AUCLOF, "LOF-AUC")
}

// BenchmarkStreamInsert measures the incremental detector's per-insertion
// cost on a growing two-cluster stream (the "improve performance" ongoing-
// work direction).
func BenchmarkStreamInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	s, err := lof.NewStream(2, 10, "")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := s.Insert([]float64{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Insert([]float64{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreLOFSingle measures one two-scan LOF computation (MinPts=20)
// in isolation, the unit cost behind figure 11.
func BenchmarkCoreLOFSingle(b *testing.B) {
	d := dataset.RandomClusters(benchSeed, 5000, 2, 8)
	db, err := matdb.Materialize(d.Points, linear.New(d.Points, nil), 20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LOFs(db, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPI measures the full facade path (auto index, default
// MinPts range) on a mid-sized 2-d workload.
func BenchmarkPublicAPI(b *testing.B) {
	d := dataset.RandomClusters(benchSeed, 3000, 2, 6)
	rows := make([][]float64, d.Len())
	for i := range rows {
		rows[i] = d.Points.At(i)
	}
	det, err := lof.New(lof.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Fit(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFit measures the full fit pipeline (materialization + MinPts
// sweep) on a 10k-point dataset across worker-pool widths. Results are
// bit-identical at every width; only wall-clock changes.
func BenchmarkFit(b *testing.B) {
	d := dataset.RandomClusters(benchSeed, 10000, 2, 10)
	rows := make([][]float64, d.Len())
	for i := range rows {
		rows[i] = d.Points.At(i)
	}
	widths := []int{1, 2, 4}
	if ncpu := runtime.NumCPU(); ncpu != 1 && ncpu != 2 && ncpu != 4 {
		widths = append(widths, ncpu)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			det, err := lof.New(lof.Config{MinPtsLB: 10, MinPtsUB: 20, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Fit(rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScoreBatch measures out-of-sample inference throughput across
// batch sizes and worker-pool widths against a fixed 3000-point model.
func BenchmarkScoreBatch(b *testing.B) {
	d := dataset.RandomClusters(benchSeed, 3000, 2, 6)
	rows := make([][]float64, d.Len())
	for i := range rows {
		rows[i] = d.Points.At(i)
	}
	rng := rand.New(rand.NewSource(benchSeed + 1))
	for _, workers := range []int{1, 4, 8} {
		det, err := lof.New(lof.Config{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := det.Fit(rows); err != nil {
			b.Fatal(err)
		}
		for _, batch := range []int{1, 64, 1024} {
			queries := make([][]float64, batch)
			for i := range queries {
				queries[i] = []float64{4 * rng.NormFloat64(), 4 * rng.NormFloat64()}
			}
			b.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := det.ScoreBatch(queries); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
			})
		}
	}
}

// BenchmarkApproxFit compares the exact MinPts sweep against the pruned
// sweep (bound certification + exact frontier) on the recall-gate workload
// shape. The certified fraction is reported so a bound regression that
// silently certifies less shows up next to the timing.
func BenchmarkApproxFit(b *testing.B) {
	d := dataset.RandomClusters(benchSeed, 10000, 2, 5)
	rows := make([][]float64, d.Len())
	for i := range rows {
		rows[i] = d.Points.At(i)
	}
	cfg := lof.Config{MinPtsLB: 10, MinPtsUB: 40}
	b.Run("exact", func(b *testing.B) {
		det, err := lof.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := det.Fit(rows)
			if err != nil {
				b.Fatal(err)
			}
			_ = res.Scores()
		}
	})
	b.Run("pruned", func(b *testing.B) {
		det, err := lof.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var pruned *lof.PrunedResult
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pruned, err = det.FitPruned(rows, lof.DefaultPruneEps)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(pruned.PrunedCount())/float64(len(rows)), "certified-frac")
	})
}

// BenchmarkApproxScore measures out-of-sample scoring throughput of the
// three serving paths — exact, pruned, and coreset — against the same
// fitted model, re-scoring every fitted point as a query.
func BenchmarkApproxScore(b *testing.B) {
	d := dataset.RandomClusters(benchSeed, 10000, 2, 5)
	rows := make([][]float64, d.Len())
	for i := range rows {
		rows[i] = d.Points.At(i)
	}
	det, err := lof.New(lof.Config{MinPtsLB: 10, MinPtsUB: 40})
	if err != nil {
		b.Fatal(err)
	}
	res, err := det.Fit(rows)
	if err != nil {
		b.Fatal(err)
	}
	model, err := res.Model()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := model.ScoreBatch(rows); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
	b.Run("pruned", func(b *testing.B) {
		var batch *lof.PrunedBatch
		for i := 0; i < b.N; i++ {
			batch, err = model.ScoreBatchPruned(rows, lof.DefaultPruneEps)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		b.ReportMetric(float64(batch.Certified)/float64(len(rows)), "certified-frac")
	})
	coreset, err := model.Coreset(2048)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("coreset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := coreset.ScoreBatch(rows); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
}

// BenchmarkFitTraceOverhead compares a plain fit against the same fit with
// Config.Trace enabled. The disabled-tracer path is the default and is
// guarded separately by the deterministic zero-allocation test in
// internal/obs; this benchmark makes the enabled-path cost visible so a
// regression that slips timestamping into a hot loop shows up as a gap
// between the two sub-benchmarks (expected: well under 1%, since spans
// wrap whole phases, never per-point work).
func BenchmarkFitTraceOverhead(b *testing.B) {
	d := dataset.RandomClusters(benchSeed, 5000, 2, 8)
	rows := make([][]float64, d.Len())
	for i := range rows {
		rows[i] = d.Points.At(i)
	}
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("traced=%v", traced), func(b *testing.B) {
			det, err := lof.New(lof.Config{MinPtsLB: 10, MinPtsUB: 20, Trace: traced})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Fit(rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}
