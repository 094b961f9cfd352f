package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"lof"
	"lof/internal/core"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/kdtree"
	"lof/internal/matdb"
	"lof/internal/pool"
)

// layerUnits lists every per-layer metric the traced run reports, with its
// unit. Layers a workload does not run report 0: the layer did no work.
var layerUnits = map[string]string{
	"index.build_ms":              "ms",
	"index.knn_us":                "us",
	"index.knn_probes":            "count",
	"matdb.query_row_us":          "us",
	"matdb.merged_rows_us":        "us",
	"matdb.closure_rows":          "count",
	"matdb.materialize_ms":        "ms",
	"core.eval_us":                "us",
	"core.score_series_us":        "us",
	"core.sweep_ms":               "ms",
	"lof.score_batch_ms":          "ms",
	"lof.score_batch_1w_ms":       "ms",
	"lof.allocs_per_query":        "count",
	"lof.fit_ms":                  "ms",
	"lof.snapshot_open_ms":        "ms",
	"server.handler_ms":           "ms",
	"server.push_handler_ms":      "ms",
	"server.rejected":             "count",
	"client.call_ms":              "ms",
	"client.self_ms":              "ms",
	"client.attempts_per_call":    "count",
	"client.bytes_per_call":       "B",
	"http.transport_ms":           "ms",
	"coord.score_ms":              "ms",
	"coord.self_ms":               "ms",
	"coord.rpc_candidates_ms":     "ms",
	"coord.rpc_rows_ms":           "ms",
	"coord.rpc_network_ms":        "ms",
	"coord.rpcs_per_request":      "count",
	"coord.rpc_bytes_per_request": "B",
	"coord.shard_handler_ms":      "ms",
	"stream.plan_ms":              "ms",
	"stream.apply_ms":             "ms",
	"stream.drain_ms":             "ms",
	"stream.replay_ms":            "ms",
	"stream.score_batch_ms":       "ms",
	"stream.compactions":          "count",
	"stream.inserts_per_s":        "1/s",
	"stream.insert_p50_ms":        "ms",
	"stream.insert_p99_ms":        "ms",
	"trace.untraced_qps":          "1/s",
	"trace.traced_qps":            "1/s",
	"trace.overhead_frac":         "ratio",
	"unattributed_frac":           "ratio",
}

// zeroLayers sets every per-layer metric to 0 before a traced run fills in
// the layers its workload runs.
func zeroLayers(res *result) {
	for name, unit := range layerUnits {
		res.set(name, 0, unit)
	}
}

// setLayer reports a per-layer metric under its registered unit.
func setLayer(res *result, name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("lofbench: unregistered layer metric " + name)
	}
	res.set(name, v, unit)
}

// newIndex builds the index lof.Detector's automatic choice uses for the
// benchmark's data: a k-d tree, since every workload is 4- or 5-dimensional.
func newIndex(pts *geom.Points) index.Index { return kdtree.New(pts, geom.Euclidean{}) }

// fitLayers times the paper's two steps one layer at a time on pts, the
// way Detector.Fit runs them: index construction, kNN materialization on a
// pool of GOMAXPROCS workers, and the MinPts sweep. It also counts the
// index probes the materialization issues.
func fitLayers(res *result, tr *recorder, pts *geom.Points, lb, ub, reps int) time.Duration {
	p := pool.New(runtime.GOMAXPROCS(0))
	var build, mat, sweep []time.Duration
	for rep := 0; rep < reps; rep++ {
		req := "fit-layers-" + strconv.Itoa(rep)
		var ix index.Index
		build = append(build, tr.timed("index.build", req, 0, func() { ix = newIndex(pts) }))
		var db *matdb.DB
		mat = append(mat, tr.timed("matdb.materialize", req, 0, func() {
			db, _ = matdb.Materialize(pts, ix, ub, matdb.WithPool(p))
		}))
		sweep = append(sweep, tr.timed("core.sweep", req, 0, func() { _, _ = core.SweepPool(db, lb, ub, p) }))
	}
	counting := index.NewCounting(newIndex(pts))
	if _, err := matdb.Materialize(pts, counting, ub, matdb.WithPool(p)); err == nil {
		setLayer(res, "index.knn_probes", float64(counting.KNNQueries()))
	}
	b, m, s := median(ms(build)), median(ms(mat)), median(ms(sweep))
	setLayer(res, "index.build_ms", b)
	setLayer(res, "matdb.materialize_ms", m)
	setLayer(res, "core.sweep_ms", s)
	return time.Duration((b + m + s) * float64(time.Millisecond))
}

// scoringLayers times the out-of-sample scoring path of m one layer at a
// time, for every query of the pool: the kNN probe, the query's
// merged row, the two-hop merged-row closure, the per-MinPts evaluation,
// and the scorer running closure plus evaluation itself. Each query's
// closure and evaluation are the same arithmetic the scorer runs, so their
// aggregate must equal the expected score; a mismatch counts as a failure.
// It returns, per pool batch, the evaluation time of the batch's queries
// (the coordinator's share of a sharded request).
func scoringLayers(res *result, tr *recorder, m *lof.Model, queries [][]float64, expected []float64, batch int) []time.Duration {
	pts, db := m.Fitted()
	cfg := m.Config()
	lb, ub := cfg.MinPtsLB, cfg.MinPtsUB
	ix := newIndex(pts)
	kern := geom.NewKernel(pts, geom.Euclidean{})
	scorer, err := core.NewScorer(pts, ix, db, geom.Euclidean{}, lb, ub)
	if err != nil {
		res.count(1, 1, fmt.Errorf("building a scorer for the layer timings: %w", err))
		return make([]time.Duration, len(queries)/batch)
	}
	cur := index.NewCursor(ix)
	qIdx := pts.Len()
	var knn, qrow, closure, eval, series []time.Duration
	var closureRows []float64
	evalBatch := make([]time.Duration, len(queries)/batch)
	var dst []index.Neighbor
	var failed int64
	var firstErr error
	for i, q := range queries {
		q := geom.Point(q)
		req := "q" + strconv.Itoa(i)
		knn = append(knn, tr.timed("index.knn", req, 0, func() { dst = cur.KNNInto(dst[:0], q, ub, index.ExcludeNone) }))
		var row matdb.Row
		qrow = append(qrow, tr.timed("matdb.query_row", req, 0, func() { row = db.QueryRowCursor(pts, cur, q) }))
		var rows map[int]matdb.Row
		closure = append(closure, tr.timed("matdb.merged_rows", req, 0, func() { rows = mergedRows(db, pts, &kern, q, qIdx, row, ub) }))
		closureRows = append(closureRows, float64(len(rows)))
		lofs := make([]float64, 0, ub-lb+1)
		d := tr.timed("core.eval", req, 0, func() {
			rowOf := func(j int) matdb.Row {
				if r, ok := rows[j]; ok {
					return r
				}
				return db.MergedRow(pts, j, q, qIdx, kern.Dist(j, q))
			}
			for k := lb; k <= ub; k++ {
				lofs = append(lofs, core.EvalAt(qIdx, row, rowOf, k))
			}
		})
		eval = append(eval, d)
		evalBatch[i/batch] += d
		if got := core.ScoreAggregate(lofs, core.AggMax); math.Float64bits(got) != math.Float64bits(expected[i]) {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("layer-by-layer score of query %d is %v, want %v", i, got, expected[i])
			}
		}
		series = append(series, tr.timed("core.score_series", req, 0, func() { _, _ = scorer.ScoreSeriesFromRow(nil, q, row) }))
	}
	res.count(int64(len(queries)), failed, firstErr)
	setLayer(res, "index.knn_us", median(us(knn)))
	setLayer(res, "matdb.query_row_us", median(us(qrow)))
	setLayer(res, "matdb.merged_rows_us", median(us(closure)))
	setLayer(res, "matdb.closure_rows", median(closureRows))
	setLayer(res, "core.eval_us", median(us(eval)))
	setLayer(res, "core.score_series_us", median(us(series)))
	return evalBatch
}

// mergedRows builds a query's two-hop merged-row closure the way the
// scorer does: the merged rows of its ub-neighbors, then of theirs.
func mergedRows(db *matdb.DB, pts *geom.Points, kern *geom.Kernel, q geom.Point, qIdx int, qRow matdb.Row, ub int) map[int]matdb.Row {
	rows := make(map[int]matdb.Row, 2*(ub+2))
	hop := func(nn []index.Neighbor) []int {
		var added []int
		for _, nb := range nn {
			if _, ok := rows[nb.Index]; nb.Index == qIdx || ok {
				continue
			}
			rows[nb.Index] = db.MergedRowInto(nil, pts, nb.Index, q, qIdx, kern.Dist(nb.Index, q))
			added = append(added, nb.Index)
		}
		return added
	}
	for _, i := range hop(qRow.Neighborhood(ub)) {
		hop(rows[i].Neighborhood(ub))
	}
	return rows
}

// batchLayers times Model.ScoreBatch on every pool batch, once on the
// model's own pool as served and once on a single worker (what each of two
// concurrent requests gets on two cores), and counts the allocations per
// query of the served path. It returns the single-worker time per batch.
func batchLayers(res *result, tr *recorder, m *lof.Model, queries [][]float64, batch int) []time.Duration {
	one := m.WithWorkers(1)
	nb := len(queries) / batch
	served := make([]time.Duration, nb)
	single := make([]time.Duration, nb)
	for b := 0; b < nb; b++ {
		qs := queries[b*batch : (b+1)*batch]
		req := "b" + strconv.Itoa(b)
		served[b] = tr.timed("lof.score_batch", req, 0, func() { _, _ = m.ScoreBatch(qs) })
		single[b] = tr.timed("lof.score_batch_1w", req, 0, func() { _, _ = one.ScoreBatch(qs) })
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := 0; b < nb; b++ {
		_, _ = m.ScoreBatch(queries[b*batch : (b+1)*batch])
	}
	runtime.ReadMemStats(&after)
	setLayer(res, "lof.allocs_per_query", ratio(float64(after.Mallocs-before.Mallocs), float64(nb*batch)))
	setLayer(res, "lof.score_batch_ms", median(ms(served)))
	setLayer(res, "lof.score_batch_1w_ms", median(ms(single)))
	return single
}
