package exp

import (
	"fmt"
	"math"

	"lof/internal/core"
	"lof/internal/dataset"
	"lof/internal/dbscan"
	"lof/internal/eval"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/kdtree"
	"lof/internal/knnout"
	"lof/internal/matdb"
	"lof/internal/stats"
)

// MethodQuality is one detector's ranking quality on a planted-outlier
// workload.
type MethodQuality struct {
	Method    string
	AUC       float64
	AvgPrec   float64
	PrecAtP   float64 // precision at |planted|
	RecallAtP float64
}

// QualityResult compares LOF against the global baselines on a
// multi-density workload with planted local and global outliers.
type QualityResult struct {
	N           int
	LocalCount  int
	GlobalCount int
	Methods     []MethodQuality
	// LocalFoundLOF / LocalFoundKNN count planted *local* outliers
	// appearing in each method's top-|planted| — the paper's headline
	// difference.
	LocalFoundLOF, LocalFoundKNN int
}

// RunQuality builds the section 3 situation at benchmark scale — clusters
// of very different densities plus planted local outliers (adjacent to the
// dense cluster) and global outliers (far from everything) — and scores
// LOF, the k-distance ranking of [17], and a DB(pct,dmin)-style
// neighbor-count ranking with ROC-AUC, average precision and
// precision/recall at the planted count.
func RunQuality(seed int64) (*QualityResult, error) {
	const (
		minPts  = 15
		nLocal  = 5
		nGlobal = 5
	)
	spec := dataset.MixtureSpec{
		Name: "quality",
		Gaussians: []dataset.GaussianSpec{
			{Center: geom.Point{0, 0}, Sigma: 0.3, N: 500}, // dense
			{Center: geom.Point{100, 0}, Sigma: 6, N: 500}, // sparse
		},
	}
	// Local outliers: well outside the dense cluster (≥ 8σ) yet closer to
	// it than typical sparse-cluster spacing — invisible to global
	// rankings.
	for i := 0; i < nLocal; i++ {
		angle := float64(i) / nLocal * 2 * math.Pi
		spec.Outliers = append(spec.Outliers, geom.Point{
			3 * math.Cos(angle), 3 * math.Sin(angle),
		})
	}
	// Global outliers: far from both clusters.
	for i := 0; i < nGlobal; i++ {
		spec.Outliers = append(spec.Outliers, geom.Point{
			50, 60 + 12*float64(i),
		})
	}
	d := dataset.Mixture(seed, spec)
	planted := map[int]bool{}
	localSet := map[int]bool{}
	for j, o := range d.Outliers {
		planted[o] = true
		if j < nLocal {
			localSet[o] = true
		}
	}

	ix := kdtree.New(d.Points, nil)
	db, err := matdb.Materialize(d.Points, ix, minPts)
	if err != nil {
		return nil, err
	}
	lofScores, err := core.LOFs(db, minPts)
	if err != nil {
		return nil, err
	}
	knnScores, err := knnout.Scores(d.Points, ix, minPts)
	if err != nil {
		return nil, err
	}
	// DB(pct,dmin)-style ranking: objects with fewer neighbors within dmin
	// are more outlying. dmin is set to twice the median MinPts-distance,
	// a neutral data-driven choice.
	kdists := make([]float64, d.Len())
	for i := range kdists {
		kdists[i] = db.KDistance(i, minPts)
	}
	med, err := stats.Quantile(kdists, 0.5)
	if err != nil {
		return nil, err
	}
	dmin := 2 * med
	dbScores := make([]float64, d.Len())
	cur := ix.NewCursor()
	var nn []index.Neighbor
	for i := 0; i < d.Len(); i++ {
		nn = cur.RangeInto(nn[:0], d.Points.At(i), dmin, i)
		dbScores[i] = -float64(len(nn)) // fewer neighbors = higher score
	}

	res := &QualityResult{N: d.Len(), LocalCount: nLocal, GlobalCount: nGlobal}
	add := func(name string, scores []float64) (eval.Confusion, error) {
		auc, err := eval.ROCAUC(scores, planted)
		if err != nil {
			return eval.Confusion{}, err
		}
		ap, err := eval.AveragePrecision(scores, planted)
		if err != nil {
			return eval.Confusion{}, err
		}
		c, err := eval.AtTopK(scores, planted, nLocal+nGlobal)
		if err != nil {
			return eval.Confusion{}, err
		}
		res.Methods = append(res.Methods, MethodQuality{
			Method: name, AUC: auc, AvgPrec: ap,
			PrecAtP: c.Precision(), RecallAtP: c.Recall(),
		})
		return c, nil
	}
	if _, err := add("LOF", lofScores); err != nil {
		return nil, err
	}
	if _, err := add("kNN-distance [17]", knnScores); err != nil {
		return nil, err
	}
	if _, err := add("DB(pct,dmin) count [13]", dbScores); err != nil {
		return nil, err
	}

	countLocalsInTop := func(scores []float64) int {
		found := 0
		for _, r := range core.TopN(scores, nLocal+nGlobal) {
			if localSet[r.Index] {
				found++
			}
		}
		return found
	}
	res.LocalFoundLOF = countLocalsInTop(lofScores)
	res.LocalFoundKNN = countLocalsInTop(knnScores)
	return res, nil
}

// Table renders the quality comparison.
func (r *QualityResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Detection quality: %d objects, %d local + %d global planted outliers",
			r.N, r.LocalCount, r.GlobalCount),
		Header: []string{"method", "ROC-AUC", "avg precision", "prec@planted", "recall@planted"},
	}
	for _, m := range r.Methods {
		t.AddRow(m.Method, f(m.AUC), f(m.AvgPrec), f(m.PrecAtP), f(m.RecallAtP))
	}
	t.AddRow("local outliers in LOF top ranks", fmt.Sprintf("%d/%d", r.LocalFoundLOF, r.LocalCount), "", "", "")
	t.AddRow("local outliers in kNN top ranks", fmt.Sprintf("%d/%d", r.LocalFoundKNN, r.LocalCount), "", "", "")
	return t
}

// NoiseVsLOFResult contrasts DBSCAN's binary noise set with LOF degrees on
// the figure 9 dataset.
type NoiseVsLOFResult struct {
	NoiseSize int
	// PlantedInNoise counts the seven planted outliers DBSCAN labels noise.
	PlantedInNoise int
	Planted        int
	// NoiseLOFMin/Max show the degree spread LOF assigns within DBSCAN's
	// undifferentiated noise set.
	NoiseLOFMin, NoiseLOFMax float64
	// AUCNoise and AUCLOF score both as outlier rankings of the planted
	// outliers (binary noise membership vs graded LOF).
	AUCNoise, AUCLOF float64
}

// RunNoiseVsLOF runs DBSCAN on the figure 9 dataset and compares its binary
// noise set with LOF values at MinPts 40 — the related-work argument that
// clustering "noise" carries no degrees.
func RunNoiseVsLOF(seed int64) (*NoiseVsLOFResult, error) {
	d := dataset.Fig9Dataset(seed)
	const minPts = 40
	ix := kdtree.New(d.Points, nil)
	db, err := matdb.Materialize(d.Points, ix, minPts)
	if err != nil {
		return nil, err
	}
	lofScores, err := core.LOFs(db, minPts)
	if err != nil {
		return nil, err
	}
	// DBSCAN with a data-driven eps (twice the median 10-distance): the
	// conventional heuristic.
	kdists := make([]float64, d.Len())
	for i := range kdists {
		kdists[i] = db.KDistance(i, 10)
	}
	med, err := stats.Quantile(kdists, 0.5)
	if err != nil {
		return nil, err
	}
	cl, err := dbscan.Run(d.Points, ix, dbscan.Params{Eps: 2 * med, MinPts: 10})
	if err != nil {
		return nil, err
	}

	res := &NoiseVsLOFResult{Planted: len(d.Outliers)}
	planted := map[int]bool{}
	for _, o := range d.Outliers {
		planted[o] = true
	}
	res.NoiseLOFMin, res.NoiseLOFMax = math.Inf(1), math.Inf(-1)
	noiseScores := make([]float64, d.Len())
	for i, l := range cl.Labels {
		if l != dbscan.Noise {
			continue
		}
		res.NoiseSize++
		if planted[i] {
			res.PlantedInNoise++
		}
		noiseScores[i] = 1
		res.NoiseLOFMin = math.Min(res.NoiseLOFMin, lofScores[i])
		res.NoiseLOFMax = math.Max(res.NoiseLOFMax, lofScores[i])
	}
	if res.AUCNoise, err = eval.ROCAUC(noiseScores, planted); err != nil {
		return nil, err
	}
	if res.AUCLOF, err = eval.ROCAUC(lofScores, planted); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the noise-vs-LOF comparison.
func (r *NoiseVsLOFResult) Table() *Table {
	t := &Table{
		Title:  "DBSCAN noise (binary) vs LOF degrees on the figure 9 dataset",
		Header: []string{"quantity", "value"},
	}
	t.AddRow("DBSCAN noise points", fmt.Sprintf("%d", r.NoiseSize))
	t.AddRow("planted outliers in noise", fmt.Sprintf("%d/%d", r.PlantedInNoise, r.Planted))
	t.AddRow("LOF range within the noise set", fmt.Sprintf("%s .. %s", f2(r.NoiseLOFMin), f2(r.NoiseLOFMax)))
	t.AddRow("ROC-AUC of noise membership as a ranking", f(r.AUCNoise))
	t.AddRow("ROC-AUC of LOF as a ranking", f(r.AUCLOF))
	return t
}
