// Command lofbench is the benchmark of the LOF system. One run drives one
// workload in a single process over loopback HTTP and checks every answer
// bit for bit against the library:
//
//	lofbench --workload serve-exact --seed 1 --seconds 10 --trace 0
//
// The workloads are serve-exact, serve-sharded, stream-churn and fit-batch
// (README.md says what each one runs and why). With --trace 0 the run
// measures the end-to-end metrics; with --trace 1 it is the separate traced
// run that reports per-layer metrics, records spans from the benchmark's own
// wrappers and writes them under --spans when it ends. Either way the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// deadline bounds a whole run, setup included, so a hang surfaces as a
// failed run instead of an unbounded one.
const deadline = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 10, "measured duration of the run, in seconds")
		traced   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
		workdir  = flag.String("workdir", ".bench_build/work", "directory for model snapshots")
		spans    = flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "lofbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		run:      time.Duration(*seconds) * time.Second,
		trace:    *traced == 1,
		workdir:  *workdir,
		spans:    *spans,
		sz:       fullSizes(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lofbench:", err)
		cancel()
		os.Exit(1)
	}
	if err := emit(os.Stdout, cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "lofbench:", err)
		cancel()
		os.Exit(1)
	}
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	run      time.Duration // measured duration
	trace    bool
	workdir  string // model snapshots; created if missing, emptied of this run's files
	spans    string // where the traced run writes spans; "" writes none
	sz       sizes
	// perturb flips one bit of one expected answer, so a run must report a
	// failure. The tests use it to show the answer checks are not vacuous.
	perturb bool
}

// sizes are the workload dimensions. fullSizes is what the command runs;
// the tests shrink them.
type sizes struct {
	points, dim, clusters int // serve-* model data
	lb, ub                int // MinPts range of serve-* and fit-batch
	pool, batch           int // query pool and score batch size
	shards                int // serve-sharded shard count
	window, streamDim     int // stream-churn window
	streamMinPts          int
	pushBatch, primeBatch int // stream-churn push and priming batch sizes
	fitPoints, fitDim     int // fit-batch data
	setupReps             int // set-ups per timed run; setup_s is their median
	streamSetupReps       int // the same for stream-churn, whose priming is slow
	warmup                time.Duration
}

func fullSizes() sizes {
	return sizes{
		points: 10000, dim: 4, clusters: 8,
		lb: 10, ub: 30,
		pool: 1024, batch: 16,
		shards: 3,
		window: 2000, streamDim: 4, streamMinPts: 10,
		pushBatch: 32, primeBatch: 250,
		fitPoints: 20000, fitDim: 5,
		setupReps: 5, streamSetupReps: 3,
		warmup: time.Second,
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run reports. Metrics go into the JSON line; notes are
// figures printed only in the readable summary above it (sample counts,
// workload-specific rates, the failure share).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     map[string]metric
	firstErr  string
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, notes: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string)  { r.Metrics[name] = metric{v, unit} }
func (r *result) note(name string, v float64, unit string) { r.notes[name] = metric{v, unit} }

// count adds n attempted operations of which failed failed, keeping the
// first failure's message for the summary.
func (r *result) count(attempted, failed int64, err error) {
	r.Attempted += attempted
	r.Failed += failed
	if err != nil && r.firstErr == "" {
		r.firstErr = err.Error()
	}
}

// emit prints the readable summary, then the JSON result as the last line.
func emit(w io.Writer, cfg config, res *result) error {
	mode := "timed"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# lofbench %s seed=%d seconds=%g run=%s\n", cfg.workload, cfg.seed, cfg.run.Seconds(), mode)
	for _, set := range []map[string]metric{res.Metrics, res.notes} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-28s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	if res.firstErr != "" {
		fmt.Fprintf(w, "# first failure: %s\n", res.firstErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

var workloadNames = []string{"serve-exact", "serve-sharded", "stream-churn", "fit-batch"}

// run executes one workload run.
func run(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	var (
		res *result
		err error
	)
	switch cfg.workload {
	case "serve-exact":
		res, err = runServe(ctx, cfg, false)
	case "serve-sharded":
		res, err = runServe(ctx, cfg, true)
	case "stream-churn":
		res, err = runStream(ctx, cfg)
	case "fit-batch":
		res, err = runFit(ctx, cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q; want one of %v", cfg.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run did not finish in time: %w", err)
	}
	res.Correct = res.Failed == 0
	res.note("failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	if !cfg.trace {
		res.note("rss_peak_mb", peakRSSMB(), "MB")
	}
	return res, nil
}
