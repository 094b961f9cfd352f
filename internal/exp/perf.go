package exp

import (
	"fmt"
	"math"
	"time"

	"lof/internal/core"
	"lof/internal/dataset"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/grid"
	"lof/internal/index/kdtree"
	"lof/internal/index/linear"
	"lof/internal/index/vafile"
	"lof/internal/index/xtree"
	"lof/internal/matdb"
	"lof/internal/stats"
)

// buildIndex constructs the named index over pts; it mirrors the public
// facade's choices but is usable directly by the harness.
func buildIndex(kind string, pts *geom.Points) (index.Index, error) {
	switch kind {
	case "linear":
		return linear.New(pts, nil), nil
	case "grid":
		return grid.New(pts, nil), nil
	case "kdtree":
		return kdtree.New(pts, nil), nil
	case "xtree":
		return xtree.New(pts, nil), nil
	case "xtree-bulk":
		return xtree.BulkLoad(pts, nil), nil
	case "vafile":
		return vafile.New(pts, nil, 0)
	default:
		return nil, fmt.Errorf("exp: unknown index kind %q", kind)
	}
}

// Fig10Row is one (n, d) measurement of the materialization step.
type Fig10Row struct {
	N, Dim     int
	Index      string
	BuildTime  time.Duration // index construction, included as in the paper
	Materialze time.Duration
}

// Fig10Result is the materialization-time experiment of figure 10.
type Fig10Result struct {
	MinPtsUB int
	Rows     []Fig10Row
}

// RunFig10 reproduces figure 10: wall-clock time of the materialization
// step (including index construction, as the paper notes) for several
// dataset sizes and dimensionalities, with MinPtsUB = 50. The sizes are
// scaled down from the paper's hardware but span a full decade so the
// scaling shape (near-linear for low d, degenerating for high d) is
// visible.
func RunFig10(seed int64, sizes []int, dims []int, kind string) (*Fig10Result, error) {
	const minPtsUB = 50
	res := &Fig10Result{MinPtsUB: minPtsUB}
	for _, dim := range dims {
		for _, n := range sizes {
			d := dataset.RandomClusters(seed, n, dim, 10)
			var ix index.Index
			buildTime, err := timed(func() error {
				var err error
				ix, err = buildIndex(kind, d.Points)
				return err
			})
			if err != nil {
				return nil, err
			}
			matTime, err := timed(func() error {
				_, err := matdb.Materialize(d.Points, ix, minPtsUB)
				return err
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Fig10Row{
				N: d.Len(), Dim: dim, Index: kind,
				BuildTime: buildTime, Materialze: matTime,
			})
		}
	}
	return res, nil
}

// Table renders the figure 10 measurements.
func (r *Fig10Result) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 10: materialization time (MinPtsUB=%d), index build included", r.MinPtsUB),
		Header: []string{"dim", "n", "index", "build ms", "materialize ms", "total ms"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Dim), fmt.Sprintf("%d", row.N), row.Index,
			ms(row.BuildTime), ms(row.Materialze), ms(row.BuildTime+row.Materialze))
	}
	return t
}

// Fig11Row is one LOF-step measurement.
type Fig11Row struct {
	N    int
	Time time.Duration
}

// Fig11Result is the second-step experiment of figure 11.
type Fig11Result struct {
	MinPtsLB, MinPtsUB int
	Rows               []Fig11Row
}

// RunFig11 reproduces figure 11: wall-clock time of the LOF computation
// step (two scans of M per MinPts in 10..50) as a function of n. The paper
// shows this step is linear in n regardless of dimensionality, because it
// only reads the materialization database.
func RunFig11(seed int64, sizes []int) (*Fig11Result, error) {
	const lb, ub = 10, 50
	res := &Fig11Result{MinPtsLB: lb, MinPtsUB: ub}
	for _, n := range sizes {
		d := dataset.RandomClusters(seed, n, 2, 10)
		ix := kdtree.New(d.Points, nil)
		db, err := matdb.Materialize(d.Points, ix, ub)
		if err != nil {
			return nil, err
		}
		elapsed, err := timed(func() error {
			_, err := core.Sweep(db, lb, ub)
			return err
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig11Row{N: d.Len(), Time: elapsed})
	}
	return res, nil
}

// Table renders the figure 11 measurements.
func (r *Fig11Result) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 11: LOF computation time, MinPts %d..%d", r.MinPtsLB, r.MinPtsUB),
		Header: []string{"n", "lof step ms", "ms per 1000 objects"},
	}
	for _, row := range r.Rows {
		perK := float64(row.Time.Microseconds()) / 1000 / float64(row.N) * 1000
		t.AddRow(fmt.Sprintf("%d", row.N), ms(row.Time), fmt.Sprintf("%.2f", perK))
	}
	return t
}

// AblationIndexesResult compares materialization cost across index
// structures on the same workload.
type AblationIndexesResult struct {
	N, Dim int
	Rows   []Fig10Row
}

// RunAblationIndexes measures materialization (build + queries) under every
// index structure on one workload — the design-choice study behind the
// facade's IndexAuto policy.
func RunAblationIndexes(seed int64, n, dim int) (*AblationIndexesResult, error) {
	res := &AblationIndexesResult{N: n, Dim: dim}
	for _, kind := range []string{"linear", "grid", "kdtree", "xtree", "xtree-bulk", "vafile"} {
		sub, err := RunFig10(seed, []int{n}, []int{dim}, kind)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, sub.Rows...)
	}
	return res, nil
}

// Table renders the index ablation.
func (r *AblationIndexesResult) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: index choice for materialization (n=%d, d=%d, MinPtsUB=50)", r.N, r.Dim),
		Header: []string{"index", "build ms", "materialize ms", "total ms"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Index, ms(row.BuildTime), ms(row.Materialze), ms(row.BuildTime+row.Materialze))
	}
	return t
}

// AblationMaterializationResult compares the two-step algorithm with naive
// recomputation.
type AblationMaterializationResult struct {
	N, MinPtsLB, MinPtsUB int
	TwoStep, Naive        time.Duration
	MaxDiff               float64
}

// RunAblationMaterialization measures the paper's two-step algorithm
// against recomputing neighborhoods from the index for every MinPts value,
// verifying both produce identical LOF values.
func RunAblationMaterialization(seed int64, n int) (*AblationMaterializationResult, error) {
	const lb, ub = 10, 30
	d := dataset.RandomClusters(seed, n, 2, 5)
	ix := kdtree.New(d.Points, nil)
	res := &AblationMaterializationResult{N: d.Len(), MinPtsLB: lb, MinPtsUB: ub}

	var sweep *core.SweepResult
	var err error
	res.TwoStep, err = timed(func() error {
		db, err := matdb.Materialize(d.Points, ix, ub)
		if err != nil {
			return err
		}
		sweep, err = core.Sweep(db, lb, ub)
		return err
	})
	if err != nil {
		return nil, err
	}

	naive := make([][]float64, 0, ub-lb+1)
	res.Naive, err = timed(func() error {
		cur := ix.NewCursor()
		for minPts := lb; minPts <= ub; minPts++ {
			naive = append(naive, core.NaiveLOFs(ix, func(i int) []index.Neighbor {
				return index.KNNWithTiesInto(cur, nil, d.Points.At(i), minPts, i)
			}, minPts))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for m := range naive {
		for i := range naive[m] {
			diff := math.Abs(naive[m][i] - sweep.Values[m][i])
			if diff > res.MaxDiff {
				res.MaxDiff = diff
			}
		}
	}
	return res, nil
}

// Table renders the materialization ablation.
func (r *AblationMaterializationResult) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: two-step vs naive recomputation (n=%d, MinPts %d..%d)", r.N, r.MinPtsLB, r.MinPtsUB),
		Header: []string{"algorithm", "time ms", "max |ΔLOF|"},
	}
	t.AddRow("two-step (materialized)", ms(r.TwoStep), "0")
	t.AddRow("naive recomputation", ms(r.Naive), fmt.Sprintf("%.2e", r.MaxDiff))
	return t
}

// AblationReachResult quantifies the smoothing effect of reach-dist.
type AblationReachResult struct {
	MinPts           int
	ReachStd, RawStd float64
	ReachMax, RawMax float64
}

// RunAblationReach compares LOF computed with reachability distances
// against LOF computed with raw distances inside one uniform cluster: the
// paper introduces reach-dist precisely to suppress statistical
// fluctuation, so the raw variant must fluctuate more.
func RunAblationReach(seed int64, n int) (*AblationReachResult, error) {
	const minPts = 10
	d := dataset.UniformBox(seed, geom.Point{0, 0}, geom.Point{10, 10}, n)
	ix := kdtree.New(d.Points, nil)
	db, err := matdb.Materialize(d.Points, ix, minPts)
	if err != nil {
		return nil, err
	}
	reachLRD, err := core.LRDs(db, minPts)
	if err != nil {
		return nil, err
	}
	rawLRD, err := core.LRDsRaw(db, minPts)
	if err != nil {
		return nil, err
	}
	reachLOF, err := core.LOFsFromLRDs(db, minPts, reachLRD)
	if err != nil {
		return nil, err
	}
	rawLOF, err := core.LOFsFromLRDs(db, minPts, rawLRD)
	if err != nil {
		return nil, err
	}
	var reach, raw stats.Running
	for i := range reachLOF {
		reach.Add(reachLOF[i])
		raw.Add(rawLOF[i])
	}
	return &AblationReachResult{
		MinPts:   minPts,
		ReachStd: reach.Std(), RawStd: raw.Std(),
		ReachMax: reach.Max(), RawMax: raw.Max(),
	}, nil
}

// Table renders the reach-dist ablation.
func (r *AblationReachResult) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: reach-dist smoothing vs raw distances (uniform cluster, MinPts=%d)", r.MinPts),
		Header: []string{"variant", "LOF std", "LOF max"},
	}
	t.AddRow("reach-dist (Definition 5)", f(r.ReachStd), f(r.ReachMax))
	t.AddRow("raw distance", f(r.RawStd), f(r.RawMax))
	return t
}

// AblationAggregatesResult compares the Sec. 6.2 aggregation choices.
type AblationAggregatesResult struct {
	// OutlierRank[agg] is the planted outlier's rank under each aggregate.
	MaxRank, MeanRank, MinRank int
	// OutlierScore[agg] is its score under each aggregate.
	MaxScore, MeanScore, MinScore float64
}

// RunAblationAggregates demonstrates the paper's argument for max
// aggregation: on a dataset where an object is only outlying for part of
// the MinPts range, min (and to a lesser degree mean) dilute or erase its
// outlier-ness while max preserves it.
func RunAblationAggregates(seed int64) (*AblationAggregatesResult, error) {
	// A small 12-object cluster next to a large one: its members (and a
	// point on its far edge) are outlying only once MinPts exceeds the
	// small cluster's size — exactly the figure 8 effect.
	d := dataset.Mixture(seed, dataset.MixtureSpec{
		Name: "agg-ablation",
		Gaussians: []dataset.GaussianSpec{
			{Center: geom.Point{0, 0}, Sigma: 0.3, N: 12},
			{Center: geom.Point{20, 0}, Sigma: 2.5, N: 400},
		},
		Outliers: []geom.Point{{2.5, 0}},
	})
	_, sw, err := sweepDataset(d, 5, 30)
	if err != nil {
		return nil, err
	}
	p := d.Outliers[0]
	res := &AblationAggregatesResult{}
	rankOf := func(scores []float64) int {
		for pos, r := range core.Rank(scores) {
			if r.Index == p {
				return pos + 1
			}
		}
		return -1
	}
	maxS := sw.Aggregate(core.AggMax)
	meanS := sw.Aggregate(core.AggMean)
	minS := sw.Aggregate(core.AggMin)
	res.MaxRank, res.MaxScore = rankOf(maxS), maxS[p]
	res.MeanRank, res.MeanScore = rankOf(meanS), meanS[p]
	res.MinRank, res.MinScore = rankOf(minS), minS[p]
	return res, nil
}

// Table renders the aggregation ablation.
func (r *AblationAggregatesResult) Table() *Table {
	t := &Table{
		Title:  "Ablation: aggregation over the MinPts range (planted outlier beside a 12-object cluster)",
		Header: []string{"aggregate", "outlier score", "outlier rank"},
	}
	t.AddRow("max (paper)", f(r.MaxScore), fmt.Sprintf("%d", r.MaxRank))
	t.AddRow("mean", f(r.MeanScore), fmt.Sprintf("%d", r.MeanRank))
	t.AddRow("min", f(r.MinScore), fmt.Sprintf("%d", r.MinRank))
	return t
}
