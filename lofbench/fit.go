package main

import (
	"context"
	"runtime"
	"time"

	"lof"
	"lof/internal/dataset"
)

// fitEnv is fit-batch's data and detector, with the first fit's scores
// every later fit must reproduce bit for bit.
type fitEnv struct {
	rows [][]float64
	det  *lof.Detector
	ref  *lof.Model
	want []float64
}

// setupFit generates the data, builds the detector and runs the first,
// reference fit.
func setupFit(cfg config) (*fitEnv, error) {
	sz := cfg.sz
	env := &fitEnv{rows: rowsOf(dataset.RandomClusters(cfg.seed, sz.fitPoints, sz.fitDim, sz.clusters))}
	var err error
	env.det, err = lof.New(lof.Config{MinPtsLB: sz.lb, MinPtsUB: sz.ub, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, err
	}
	first, err := env.det.Fit(env.rows)
	if err != nil {
		return nil, err
	}
	if env.ref, err = first.Model(); err != nil {
		return nil, err
	}
	env.want = first.Scores()
	if cfg.perturb {
		env.want[0] = flipLowBit(env.want[0])
	}
	return env, nil
}

// fitOp fits the data once and checks the scores against the first fit.
func (e *fitEnv) fitOp(tr *recorder) op {
	return func(ctx context.Context) (int, error) {
		_, end := tr.call(ctx, "lof.fit", -1)
		res, err := e.det.FitContext(ctx, e.rows)
		end()
		if err != nil {
			return 0, err
		}
		return len(e.rows), sameBits(res.Scores(), e.want)
	}
}

// runFit runs fit-batch: Detector.Fit back to back in one goroutine.
func runFit(ctx context.Context, cfg config) (*result, error) {
	sz := cfg.sz
	res := newResult()
	reps := sz.setupReps
	if cfg.trace {
		reps = 1
	}
	var env *fitEnv
	setup, err := timeSetups(reps, func() (err error) {
		env, err = setupFit(cfg)
		return err
	}, func() error { env = nil; return nil })
	if err != nil {
		return nil, err
	}
	closedLoop(ctx, sz.warmup, env.fitOp(nil))

	if !cfg.trace {
		res.set("setup_s", setup, "s")
		st := closedLoop(ctx, cfg.run, env.fitOp(nil))
		st.report(res, "throughput_qps", "1/s", "latency")
		res.note("fit_points_per_s", st.rate(), "1/s")
		// The detector, its data and the reference model are the system
		// under test; keep them live through the measurement.
		res.set("heap_live_mb", liveHeapMB(), "MB")
		runtime.KeepAlive(env)
		return res, nil
	}

	tr := newRecorder()
	zeroLayers(res)
	untraced := closedLoop(ctx, cfg.run/2, env.fitOp(tr))
	tr.on.Store(true)
	traced := closedLoop(ctx, cfg.run/2, env.fitOp(tr))
	res.count(untraced.attempted+traced.attempted, untraced.failed+traced.failed, firstOf(untraced.firstErr, traced.firstErr))
	overhead(res, untraced, traced)
	steps := fitLayers(res, tr, pointsOf(env.ref), sz.lb, sz.ub, 3)
	tr.on.Store(false)

	// The ledger of one fit: the paper's two steps as timed directly,
	// against the whole Detector.Fit call.
	x := tr.index()
	fit := median(ms(durs(x.named("lof.fit", ""))))
	setLayer(res, "lof.fit_ms", fit)
	setLayer(res, "unattributed_frac", 1-ratio(float64(steps)/float64(time.Millisecond), fit))
	return res, tr.write(cfg.spans, cfg.workload, cfg.seed)
}
