// Command lofcli computes local outlier factors for CSV input and prints a
// ranked outlier report.
//
// Usage:
//
//	lofcli -in data.csv -minpts-lb 10 -minpts-ub 20 -top 10
//	lofcli -in players.csv -header -label-col 0 -threshold 1.5
//	cat data.csv | lofcli -top 5
//
// Every non-label column must be numeric. Scores aggregate the LOF over the
// MinPts range with the configured aggregate (max by default, following the
// paper's Sec. 6.2 heuristic).
//
// A fit can be frozen into a model snapshot with -save-model, and the
// score subcommand scores new CSV points against such a snapshot without
// refitting (out-of-sample inference):
//
//	lofcli -in data.csv -minpts 10 -save-model model.bin
//	lofcli score -model model.bin -in queries.csv
//
// -save-model replaces an existing file by rename, never by rewriting it
// in place, so a server already serving that file by mmap keeps its
// answers. Snapshots in the retired streamed formats 1 and 2 no longer
// load; the migrate subcommand converts one once. It refits the stored
// configuration and coordinates, checks that the refit's materialization
// database equals the stored one entry for entry, and only then writes
// format 3:
//
//	lofcli migrate -in old.bin -out model.bin
//
// -approx switches fit and score to the pruned fast path: dense-core
// points are certified as LOF ≈ 1 from k-distance bounds and only the
// uncertain frontier is evaluated exactly (bit-identical to the exact
// path). -approx-eps widens or narrows the certification band:
//
//	lofcli -in data.csv -approx -top 10
//	lofcli score -model model.bin -in queries.csv -approx
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"lof"
	"lof/internal/dataset"
)

func main() {
	if len(os.Args) > 1 {
		sub := map[string]func([]string, io.Writer) error{"score": runScoreCmd, "migrate": runMigrateCmd}[os.Args[1]]
		if sub != nil {
			if err := sub(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "lofcli %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	var (
		in        = flag.String("in", "", "input CSV path ('-' or empty for stdin)")
		header    = flag.Bool("header", false, "input has a header row")
		labelCol  = flag.Int("label-col", -1, "index of a non-numeric label column, -1 for none")
		minPts    = flag.Int("minpts", 0, "single MinPts value (overrides the range)")
		minPtsLB  = flag.Int("minpts-lb", lof.DefaultMinPtsLB, "lower bound of the MinPts range")
		minPtsUB  = flag.Int("minpts-ub", lof.DefaultMinPtsUB, "upper bound of the MinPts range")
		agg       = flag.String("agg", "max", "aggregate over the MinPts range: max, mean or min")
		metric    = flag.String("metric", "euclidean", "distance: euclidean, manhattan or chebyshev")
		indexKind = flag.String("index", "auto", "knn index: auto, linear, grid, kdtree, xtree or vafile")
		top       = flag.Int("top", 10, "print the top N outliers (0 disables)")
		threshold = flag.Float64("threshold", 0, "also print all objects with score above this (0 disables)")
		distinct  = flag.Bool("distinct", false, "use k-distinct-distance neighborhoods (duplicate handling)")
		allScores = flag.Bool("scores", false, "print every object's score instead of a ranking")
		explain   = flag.Bool("explain", false, "print per-dimension deviation profiles for the top outliers")
		weights   = flag.String("weights", "", "comma-separated per-column weights for a weighted euclidean distance")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		saveModel = flag.String("save-model", "", "write a binary model snapshot for out-of-sample scoring")
		workers   = flag.Int("workers", 0, "worker pool width for fit and scoring (0 = all CPUs, 1 = sequential)")
		stats     = flag.Bool("stats", false, "trace the fit and print a per-phase timing breakdown")
		approx    = flag.Bool("approx", false, "pruned fast path: certify dense-core points as LOF≈1, evaluate only the frontier")
		approxEps = flag.Float64("approx-eps", 0, "certification half-width for -approx (0 = default)")
	)
	flag.Parse()

	opts := options{
		in: *in, header: *header, labelCol: *labelCol,
		minPts: *minPts, minPtsLB: *minPtsLB, minPtsUB: *minPtsUB,
		agg: *agg, metric: *metric, indexKind: *indexKind,
		top: *top, threshold: *threshold,
		distinct: *distinct, allScores: *allScores, explain: *explain,
		weights: *weights, jsonOut: *jsonOut, saveModel: *saveModel,
		workers: *workers, stats: *stats,
		approx: *approx, approxEps: *approxEps,
	}
	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintf(os.Stderr, "lofcli: %v\n", err)
		os.Exit(1)
	}
}

// options carries the parsed flag values; run is separated from main so
// tests can drive it.
type options struct {
	in                 string
	header             bool
	labelCol           int
	minPts             int
	minPtsLB, minPtsUB int
	agg, metric        string
	indexKind          string
	top                int
	threshold          float64
	distinct           bool
	allScores          bool
	explain            bool
	weights            string
	jsonOut            bool
	saveModel          string
	workers            int
	stats              bool
	approx             bool
	approxEps          float64
}

func run(w io.Writer, o options) error {
	in := o.in
	header, labelCol := o.header, o.labelCol
	minPts, minPtsLB, minPtsUB := o.minPts, o.minPtsLB, o.minPtsUB
	agg, metric, indexKind := o.agg, o.metric, o.indexKind
	top, threshold := o.top, o.threshold
	distinct, allScores := o.distinct, o.allScores

	var r io.Reader = os.Stdin
	name := "stdin"
	if in != "" && in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
		name = in
	}
	d, err := dataset.ReadCSV(r, name, dataset.CSVOptions{Header: header, LabelColumn: labelCol})
	if err != nil {
		return err
	}

	cfg := lof.Config{Metric: metric, Distinct: distinct, Workers: o.workers, Trace: o.stats}
	if o.weights != "" {
		ws, err := parseWeights(o.weights)
		if err != nil {
			return err
		}
		cfg.Weights = ws
	}
	if minPts != 0 {
		cfg.MinPts = minPts
	} else {
		cfg.MinPtsLB, cfg.MinPtsUB = minPtsLB, minPtsUB
	}
	if cfg.Aggregation, err = lof.ParseAggregation(agg); err != nil {
		return err
	}
	if cfg.Index, err = lof.ParseIndexKind(indexKind); err != nil {
		return err
	}

	det, err := lof.New(cfg)
	if err != nil {
		return err
	}
	rows := make([][]float64, d.Len())
	for i := range rows {
		rows[i] = d.Points.At(i)
	}
	if o.approx {
		return runApproxFit(w, d, det, rows, o)
	}
	fitStart := time.Now()
	res, err := det.Fit(rows)
	if err != nil {
		return err
	}
	fitWall := time.Since(fitStart)

	if o.saveModel != "" {
		m, err := res.Model()
		if err != nil {
			return err
		}
		if err := m.WriteFile(o.saveModel); err != nil {
			return err
		}
	}

	if o.jsonOut {
		return writeJSON(w, d, res, top, threshold, o.stats, fitWall)
	}
	if allScores {
		for i, s := range res.Scores() {
			fmt.Fprintf(w, "%s,%.6f\n", d.Label(i), s)
		}
		if o.stats {
			return writeStats(w, res, fitWall)
		}
		return nil
	}
	lb, ub := res.MinPtsRange()
	fmt.Fprintf(w, "# %d objects, %d dims, MinPts %d..%d, %s aggregate\n", d.Len(), d.Dim(), lb, ub, agg)
	if top > 0 {
		fmt.Fprintf(w, "top %d outliers:\n", top)
		for rank, ol := range res.TopN(top) {
			fmt.Fprintf(w, "%4d  %8.3f  %s\n", rank+1, ol.Score, d.Label(ol.Index))
			if o.explain {
				prof, err := res.ExplainDimensions(ol.Index, lb)
				if err != nil {
					return err
				}
				for _, c := range prof {
					fmt.Fprintf(w, "          dim %d: z=%.2f delta=%+.3f\n", c.Dim, c.ZScore, c.Delta)
				}
			}
		}
	}
	if threshold > 0 {
		out := res.OutliersAbove(threshold)
		fmt.Fprintf(w, "objects with score > %g: %d\n", threshold, len(out))
		for _, o := range out {
			fmt.Fprintf(w, "      %8.3f  %s\n", o.Score, d.Label(o.Index))
		}
	}
	if o.stats {
		return writeStats(w, res, fitWall)
	}
	return nil
}

// runApproxFit runs the pruned fast path and prints the same ranked report
// from its scores: frontier scores are bit-identical to the exact fit,
// certified points report 1. The explain/save-model/stats/json machinery is
// wired to the exact Result type and is rejected rather than silently
// degraded.
func runApproxFit(w io.Writer, d *dataset.Dataset, det *lof.Detector, rows [][]float64, o options) error {
	for flag, set := range map[string]bool{
		"-explain": o.explain, "-save-model": o.saveModel != "",
		"-stats": o.stats, "-json": o.jsonOut,
	} {
		if set {
			return fmt.Errorf("%s is not supported with -approx", flag)
		}
	}
	fitStart := time.Now()
	pruned, err := det.FitPruned(rows, o.approxEps)
	if err != nil {
		return err
	}
	fitWall := time.Since(fitStart)
	if o.allScores {
		for i, s := range pruned.Scores {
			fmt.Fprintf(w, "%s,%.6f\n", d.Label(i), s)
		}
		return nil
	}
	fmt.Fprintf(w, "# %d objects, %d dims, approx fit in %v: %d certified LOF≈1 (eps=%.2f), %d evaluated exactly\n",
		d.Len(), d.Dim(), fitWall, pruned.PrunedCount(), pruned.Eps, pruned.Frontier)
	order := make([]int, len(pruned.Scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pruned.Scores[order[a]] > pruned.Scores[order[b]] })
	if o.top > 0 {
		n := o.top
		if n > len(order) {
			n = len(order)
		}
		fmt.Fprintf(w, "top %d outliers:\n", n)
		for rank := 0; rank < n; rank++ {
			i := order[rank]
			fmt.Fprintf(w, "%4d  %8.3f  %s\n", rank+1, pruned.Scores[i], d.Label(i))
		}
	}
	if o.threshold > 0 {
		flagged := 0
		for _, i := range order {
			if pruned.Scores[i] > o.threshold {
				flagged++
			}
		}
		fmt.Fprintf(w, "objects with score > %g: %d\n", o.threshold, flagged)
		for _, i := range order {
			if pruned.Scores[i] > o.threshold {
				fmt.Fprintf(w, "      %8.3f  %s\n", pruned.Scores[i], d.Label(i))
			}
		}
	}
	return nil
}

// writeStats prints the traced fit's phase breakdown after the report.
// Scores() runs the aggregate phase, so the table is rendered after the
// report has forced it.
func writeStats(w io.Writer, res *lof.Result, fitWall time.Duration) error {
	if _, err := fmt.Fprintf(w, "\nfit wall clock: %v\n", fitWall); err != nil {
		return err
	}
	return res.Stats().WriteTable(w)
}

// runScoreCmd implements the score subcommand: load a model snapshot and
// score a CSV of query points through the out-of-sample path.
func runScoreCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lofcli score", flag.ContinueOnError)
	var (
		modelPath = fs.String("model", "", "model snapshot written by -save-model (required)")
		in        = fs.String("in", "", "query CSV path ('-' or empty for stdin)")
		header    = fs.Bool("header", false, "input has a header row")
		labelCol  = fs.Int("label-col", -1, "index of a non-numeric label column, -1 for none")
		jsonOut   = fs.Bool("json", false, "emit scores as JSON")
		workers   = fs.Int("workers", 0, "worker pool width for scoring (0 = all CPUs, 1 = sequential)")
		approx    = fs.Bool("approx", false, "pruned fast path: certify dense-core queries as LOF≈1 instead of evaluating them")
		approxEps = fs.Float64("approx-eps", 0, "certification half-width for -approx (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("-model is required")
	}
	mf, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	model, err := lof.LoadModel(mf)
	mf.Close()
	if err != nil {
		return fmt.Errorf("loading %s: %w", *modelPath, err)
	}
	if *workers > 0 {
		model = model.WithWorkers(*workers)
	}

	var r io.Reader = os.Stdin
	name := "stdin"
	if *in != "" && *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
		name = *in
	}
	d, err := dataset.ReadCSV(r, name, dataset.CSVOptions{Header: *header, LabelColumn: *labelCol})
	if err != nil {
		return err
	}
	if d.Dim() != model.Dim() {
		return fmt.Errorf("queries have %d columns, model expects %d", d.Dim(), model.Dim())
	}
	queries := make([][]float64, d.Len())
	for i := range queries {
		queries[i] = d.Points.At(i)
	}
	var scores []float64
	var certified []bool
	if *approx {
		batch, err := model.ScoreBatchPruned(queries, *approxEps)
		if err != nil {
			return err
		}
		scores, certified = batch.Scores, batch.Pruned
	} else {
		if scores, err = model.ScoreBatch(queries); err != nil {
			return err
		}
	}
	if *jsonOut {
		out := make([]jsonOutlier, len(scores))
		for i, s := range scores {
			out[i] = jsonOutlier{Index: i, Label: d.Label(i), Score: s}
			if certified != nil {
				out[i].Certified = certified[i]
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	for i, s := range scores {
		fmt.Fprintf(w, "%s,%.6f\n", d.Label(i), s)
	}
	return nil
}

// parseWeights parses a comma-separated weight list.
func parseWeights(spec string) ([]float64, error) {
	parts := strings.Split(spec, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("weight %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// jsonReport is the machine-readable output shape of -json.
type jsonReport struct {
	Objects   int           `json:"objects"`
	Dims      int           `json:"dims"`
	MinPtsLB  int           `json:"minPtsLB"`
	MinPtsUB  int           `json:"minPtsUB"`
	Top       []jsonOutlier `json:"top,omitempty"`
	Threshold float64       `json:"threshold,omitempty"`
	Flagged   []jsonOutlier `json:"flagged,omitempty"`
	FitNS     int64         `json:"fitNS,omitempty"`
	Stats     *lof.RunStats `json:"stats,omitempty"`
}

type jsonOutlier struct {
	Index int     `json:"index"`
	Label string  `json:"label"`
	Score float64 `json:"score"`
	// Certified marks scores answered from the pruning bound (score
	// subcommand with -approx only).
	Certified bool `json:"certified,omitempty"`
}

func writeJSON(w io.Writer, d *dataset.Dataset, res *lof.Result, top int, threshold float64, stats bool, fitWall time.Duration) error {
	lb, ub := res.MinPtsRange()
	rep := jsonReport{Objects: d.Len(), Dims: d.Dim(), MinPtsLB: lb, MinPtsUB: ub}
	for _, o := range res.TopN(top) {
		rep.Top = append(rep.Top, jsonOutlier{Index: o.Index, Label: d.Label(o.Index), Score: o.Score})
	}
	if threshold > 0 {
		rep.Threshold = threshold
		for _, o := range res.OutliersAbove(threshold) {
			rep.Flagged = append(rep.Flagged, jsonOutlier{Index: o.Index, Label: d.Label(o.Index), Score: o.Score})
		}
	}
	if stats {
		rep.FitNS = int64(fitWall)
		rep.Stats = res.Stats()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
