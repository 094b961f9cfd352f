package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/matdb"
	"lof/internal/obs"
)

// Scorer computes out-of-sample LOF values against a fitted model: the
// LOF a query point would receive from a full recomputation on
// data ∪ {q}, per Definitions 5–7, without mutating or refitting the
// model. Inserting q can shrink the k-distances (and hence change the
// reachability distances and local densities) of points near q, so the
// scorer re-derives the affected quantities from merged rows — the stored
// neighborhoods with q spliced in — rather than reusing the fitted lrds.
// All state is read-only after construction; a Scorer is safe for
// concurrent use. One query runs on one goroutine: callers scoring many
// queries parallelize across queries (Model.ScoreBatch).
type Scorer struct {
	pts    *geom.Points
	ix     index.Index
	db     *matdb.DB
	metric geom.Metric
	// kern is the resolved distance kernel over pts; merged-row distances
	// go through it instead of per-call metric dispatch.
	kern   geom.Kernel
	lb, ub int
	// tr, when non-nil, records score phases; nil is a no-op.
	tr *obs.Tracer
	// cursors recycles index cursors across ScoreSeries calls, so each
	// query's kNN probe reuses heap and traversal scratch instead of
	// allocating. Held by pointer so WithTracer copies share it.
	cursors *sync.Pool
}

// NewScorer validates the model pieces and returns a Scorer for the
// MinPts range [lb, ub].
func NewScorer(pts *geom.Points, ix index.Index, db *matdb.DB, metric geom.Metric, lb, ub int) (*Scorer, error) {
	if pts == nil || ix == nil || db == nil || metric == nil {
		return nil, fmt.Errorf("core: scorer needs points, index, database and metric")
	}
	if pts.Len() != db.Len() {
		return nil, fmt.Errorf("core: %d points but %d materialized rows", pts.Len(), db.Len())
	}
	if lb > ub {
		return nil, fmt.Errorf("core: MinPtsLB=%d exceeds MinPtsUB=%d", lb, ub)
	}
	if err := db.CheckMinPts(lb); err != nil {
		return nil, err
	}
	if err := db.CheckMinPts(ub); err != nil {
		return nil, err
	}
	return &Scorer{
		pts: pts, ix: ix, db: db, metric: metric, kern: geom.NewKernel(pts, metric), lb: lb, ub: ub,
		cursors: &sync.Pool{New: func() interface{} { return index.NewCursor(ix) }},
	}, nil
}

// MinPtsRange returns the swept [lb, ub].
func (s *Scorer) MinPtsRange() (lb, ub int) { return s.lb, s.ub }

// WithTracer returns a copy of the scorer that records score phases on t.
// A nil t disables recording; the scores themselves are unaffected.
func (s *Scorer) WithTracer(t *obs.Tracer) *Scorer {
	c := *s
	c.tr = t
	return &c
}

// ScoreSeries returns the query point's LOF at every MinPts value in the
// scorer's range, in ascending MinPts order — the out-of-sample analogue
// of Sweep restricted to one point. q must have the model's
// dimensionality; coordinate validation is the caller's concern.
func (s *Scorer) ScoreSeries(q geom.Point) ([]float64, error) {
	return s.ScoreSeriesCtx(nil, q)
}

// ScoreSeriesCtx is ScoreSeries under cooperative cancellation: ctx is
// polled before the kNN probe and again before the closure is built and
// evaluated, and a cancelled query returns ctx's error with no series. A
// nil ctx disables cancellation; an uncancelled query is bit-identical to
// ScoreSeries.
func (s *Scorer) ScoreSeriesCtx(ctx context.Context, q geom.Point) ([]float64, error) {
	if len(q) != s.pts.Dim() {
		return nil, fmt.Errorf("core: query has %d dimensions, model has %d", len(q), s.pts.Dim())
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	tr := obs.Resolve(s.tr)
	total := tr.Phase(obs.PhaseScore)
	total.AddItems(1)
	sc := scratchPool.Get().(*evalScratch)
	sp := tr.Phase(obs.PhaseScoreKNN)
	cur := s.cursors.Get().(index.Cursor)
	qRow := s.db.QueryRowInto(&sc.query, s.pts, cur, q)
	s.cursors.Put(cur)
	sp.End()
	out, err := s.series(ctx, tr, sc, q, qRow)
	scratchPool.Put(sc)
	total.End()
	return out, err
}

// QueryRow probes the row q would occupy in data ∪ {q} — the query's
// merged neighborhood — through the scorer's recycled cursors. The row is
// the input both to bound certification (approx.QueryBounds) and to full
// evaluation (ScoreSeriesFromRow), so the pruned serving path probes once
// and decides afterwards how much more to compute.
func (s *Scorer) QueryRow(q geom.Point) matdb.Row {
	cur := s.cursors.Get().(index.Cursor)
	qRow := s.db.QueryRowCursor(s.pts, cur, q)
	s.cursors.Put(cur)
	return qRow
}

// ScoreSeriesFromRow is ScoreSeriesCtx for a caller that already probed
// the query's merged row with QueryRow (e.g. to test pruning bounds before
// committing to a full evaluation): the kNN probe is skipped, everything
// downstream — merged-row closure and evaluation — is identical, so the
// series is bit-identical to ScoreSeriesCtx on the same q.
func (s *Scorer) ScoreSeriesFromRow(ctx context.Context, q geom.Point, qRow matdb.Row) ([]float64, error) {
	if len(q) != s.pts.Dim() {
		return nil, fmt.Errorf("core: query has %d dimensions, model has %d", len(q), s.pts.Dim())
	}
	tr := obs.Resolve(s.tr)
	total := tr.Phase(obs.PhaseScore)
	total.AddItems(1)
	sc := scratchPool.Get().(*evalScratch)
	out, err := s.series(ctx, tr, sc, q, qRow)
	scratchPool.Put(sc)
	total.End()
	return out, err
}

// series runs the post-probe pipeline shared by ScoreSeriesCtx and
// ScoreSeriesFromRow: EvalRange over the query's two-hop closure, whose
// rows and k-distances come from RowBuf.Merge — the stored row wherever q
// cannot change it, a splice into sc's buffer otherwise — which is the
// helper a shard answers the coordinator's row rounds with.
func (s *Scorer) series(ctx context.Context, tr *obs.Tracer, sc *evalScratch, q geom.Point, qRow matdb.Row) ([]float64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	qIdx := s.pts.Len() // the row number q would receive in a refit
	rowOf := func(i int) matdb.Row {
		return sc.splice.Merge(s.db.Row(i), q, qIdx, s.kern.Dist(i, q), s.pts.At, s.db.K, s.ub)
	}
	kdOf := func(i int, dst []float64) []float64 {
		return rowOf(i).AppendKDistances(dst, s.lb, s.ub)
	}
	out := make([]float64, s.ub-s.lb+1)
	sc.evalRange(tr, qIdx, qRow, rowOf, kdOf, s.lb, s.ub, out)
	return out, nil
}

// EvalRange computes the LOF of a query point at every MinPts in [lb, ub]
// into out (which must have ub−lb+1 slots) from its merged two-hop closure:
// qRow is the row the query occupies in data ∪ {q}, qIdx is its virtual
// index (larger than every stored index), rowOf resolves the merged row of
// each point in the query's ub-neighborhood (the first hop), and kdOf
// appends to dst the ub−lb+1 merged k-distances at MinPts lb..ub of every
// other point the first-hop rows reach (the second hop). A second-hop
// point enters the LOF only through reach-dist(o, p) = max(k-distance(p),
// d(o, p)) (Definitions 5–6), and d(o, p) is already in o's row, so its
// k-distances are all the evaluation needs of it. Neither resolver is asked
// for qIdx; each is called once per point of its hop, and a row rowOf
// returns is consumed before the next call, so it may be backed by one
// reused buffer.
//
// This is the single out-of-sample evaluation: the in-process scorer's
// resolvers read the database, the scatter-gather coordinator's read rows
// and k-distances fetched from shards, and the streaming detector's
// (through EvalAt) read its maintained neighborhoods, so distributed and
// stream scores are bit-identical to a single-node one by construction. The closure is laid
// out densely — local ids, one flat table of merged k-distances for MinPts
// lb..ub — and one pass evaluates the whole range with Definitions 5–7's
// arithmetic in the order a per-MinPts evaluation would use, so every value
// is bit-identical to EvalAt at that MinPts.
func EvalRange(qIdx int, qRow matdb.Row, rowOf func(int) matdb.Row, kdOf func(i int, dst []float64) []float64, lb, ub int, out []float64) {
	sc := scratchPool.Get().(*evalScratch)
	sc.evalRange(nil, qIdx, qRow, rowOf, kdOf, lb, ub, out)
	scratchPool.Put(sc)
}

// EvalAt computes the LOF of a query point at one MinPts value from merged
// rows alone; it is EvalRange over the one-value range [minPts, minPts],
// reading second-hop k-distances from the rows rowOf returns.
func EvalAt(qIdx int, qRow matdb.Row, rowOf func(int) matdb.Row, minPts int) float64 {
	var out [1]float64
	kdOf := func(i int, dst []float64) []float64 {
		return rowOf(i).AppendKDistances(dst, minPts, minPts)
	}
	EvalRange(qIdx, qRow, rowOf, kdOf, minPts, minPts, out[:])
	return out[0]
}

// scratchPool recycles evaluation scratch across queries, so a worker
// scoring query after query reuses one set of closure tables.
var scratchPool = sync.Pool{New: func() interface{} { return new(evalScratch) }}

// evalScratch is one goroutine's working memory for EvalRange: a query's
// two-hop closure in dense form. Local id 0 is the query, ids 1..h its
// ub-neighbors in row order (the first hop), and the rest the second hop.
type evalScratch struct {
	// stamps maps a stored index to its local id for the current query:
	// an entry is valid only when its epoch equals the scratch's, so
	// starting a query is one increment rather than a clear.
	stamps []stamp
	epoch  uint32
	// ids is the stored index of each local id (qIdx for local 0).
	ids []int
	// kd[l*w+j] is the merged (lb+j)-distance of local l.
	kd []float64
	// Rows 0..h — the query and its first hop — keep their merged
	// ub-neighborhoods: row r's entries are ents[offs[r]:offs[r+1]], and
	// its (lb+j)-neighborhood is the prefix of nlen[r*w+j] entries.
	ents []localNeighbor
	offs []int32
	nlen []int32
	// lrd[r*w+j] is row r's density at MinPts lb+j; acc holds w running
	// sums.
	lrd, acc []float64
	// query backs the scorer's probed query row, splice the closure rows it
	// splices q into.
	query, splice matdb.RowBuf
}

type stamp struct {
	epoch uint32
	local int32
}

// localNeighbor is one closure-row entry: the neighbor's local id and its
// distance.
type localNeighbor struct {
	local int32
	dist  float64
}

// evalRange is EvalRange on this scratch, recording the closure build as
// score/merge and the evaluation pass as score/eval on tr (nil-safe).
func (sc *evalScratch) evalRange(tr *obs.Tracer, qIdx int, qRow matdb.Row, rowOf func(int) matdb.Row, kdOf func(int, []float64) []float64, lb, ub int, out []float64) {
	w := ub - lb + 1
	sp := tr.Phase(obs.PhaseScoreMerge)
	sc.reset(qIdx)
	sc.ids = append(sc.ids, qIdx)
	sc.kd = qRow.AppendKDistances(sc.kd, lb, ub)
	sc.addRow(qIdx, qRow, lb, ub)
	h := len(sc.ids) - 1
	for l := 1; l <= h; l++ {
		row := rowOf(sc.ids[l])
		sc.kd = row.AppendKDistances(sc.kd, lb, ub)
		sc.addRow(qIdx, row, lb, ub)
	}
	for _, i := range sc.ids[h+1:] {
		sc.kd = kdOf(i, sc.kd)
	}
	sp.End()
	sp = tr.Phase(obs.PhaseScoreEval)
	sc.eval(h, w, out)
	sp.End()
}

// reset starts a new closure over stored indices below n.
func (sc *evalScratch) reset(n int) {
	if len(sc.stamps) < n {
		sc.stamps = make([]stamp, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide, so clear them
		clear(sc.stamps)
		sc.epoch = 1
	}
	sc.ids = sc.ids[:0]
	sc.kd = sc.kd[:0]
	sc.ents = sc.ents[:0]
	sc.offs = append(sc.offs[:0], 0)
	sc.nlen = sc.nlen[:0]
}

// local returns i's local id, assigning the next one on first sight. The
// query's own index is always local 0. An index outside the stored range
// (possible only in rows from a faulty peer) gets a fresh id each time;
// rowOf then reports it missing.
func (sc *evalScratch) local(qIdx, i int) int32 {
	if i == qIdx {
		return 0
	}
	if uint(i) >= uint(len(sc.stamps)) {
		sc.ids = append(sc.ids, i)
		return int32(len(sc.ids) - 1)
	}
	st := &sc.stamps[i]
	if st.epoch != sc.epoch {
		st.epoch = sc.epoch
		st.local = int32(len(sc.ids))
		sc.ids = append(sc.ids, i)
	}
	return st.local
}

// addRow appends row's ub-neighborhood with local ids (assigning ids to
// points first seen here) and its neighborhood sizes at MinPts lb..ub.
func (sc *evalScratch) addRow(qIdx int, row matdb.Row, lb, ub int) {
	for _, nb := range row.Neighborhood(ub) {
		sc.ents = append(sc.ents, localNeighbor{local: sc.local(qIdx, nb.Index), dist: nb.Dist})
	}
	sc.offs = append(sc.offs, int32(len(sc.ents)))
	for m := lb; m <= ub; m++ {
		sc.nlen = append(sc.nlen, int32(len(row.Neighborhood(m))))
	}
}

// eval runs Definitions 6 and 7 over the closure for every MinPts at once.
// Neighborhoods grow with MinPts, so entry t of a row belongs to the
// (lb+j)-neighborhood exactly for j ≥ the first j whose size exceeds t;
// walking entries in row order and adding each into every such j's running
// sum performs, per MinPts, the same additions in the same order as a
// single-MinPts evaluation.
func (sc *evalScratch) eval(h, w int, out []float64) {
	sc.lrd = grow(sc.lrd, (h+1)*w)
	sc.acc = grow(sc.acc, w)
	acc := sc.acc
	for r := 0; r <= h; r++ {
		nl := sc.nlen[r*w : r*w+w]
		clear(acc)
		j0 := 0
		for t, e := range sc.ents[sc.offs[r]:sc.offs[r+1]] {
			for int(nl[j0]) <= t {
				j0++
			}
			kd := sc.kd[int(e.local)*w : int(e.local)*w+w]
			for j := j0; j < w; j++ {
				acc[j] += ReachDist(kd[j], e.dist)
			}
		}
		lrd := sc.lrd[r*w : r*w+w]
		for j := range lrd {
			switch {
			case nl[j] == 0, acc[j] == 0:
				lrd[j] = math.Inf(1)
			default:
				lrd[j] = float64(nl[j]) / acc[j]
			}
		}
	}
	nq := sc.nlen[:w]
	lrdQ := sc.lrd[:w]
	clear(acc)
	j0 := 0
	for t, e := range sc.ents[:sc.offs[1]] {
		for int(nq[j0]) <= t {
			j0++
		}
		lrd := sc.lrd[int(e.local)*w : int(e.local)*w+w]
		for j := j0; j < w; j++ {
			acc[j] += densityRatio(lrd[j], lrdQ[j])
		}
	}
	for j := range out[:w] {
		if nq[j] == 0 {
			out[j] = 1 // isolated by construction
			continue
		}
		out[j] = acc[j] / float64(nq[j])
	}
}

// grow returns s resized to n, reallocating only when its capacity is short.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ScoreAggregate folds a ScoreSeries into one score with the given
// aggregate, matching SweepResult.Aggregate.
func ScoreAggregate(series []float64, agg Aggregate) float64 {
	if len(series) == 0 {
		return math.NaN()
	}
	switch agg {
	case AggMin:
		out := math.Inf(1)
		for _, v := range series {
			if v < out {
				out = v
			}
		}
		return out
	case AggMean:
		var sum float64
		for _, v := range series {
			sum += v
		}
		return sum / float64(len(series))
	default: // AggMax
		out := math.Inf(-1)
		for _, v := range series {
			if v > out {
				out = v
			}
		}
		return out
	}
}
