package lof

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func ctxTestData(rng *rand.Rand, n int) [][]float64 {
	data := make([][]float64, n)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return data
}

// TestFitContextBitIdentical: an uncancelled FitContext is the same
// computation as Fit — score-for-score identical, not just approximately.
func TestFitContextBitIdentical(t *testing.T) {
	data := ctxTestData(rand.New(rand.NewSource(3)), 400)
	cfg := Config{MinPtsLB: 4, MinPtsUB: 12, Workers: 4}
	det1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := det1.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := det2.FitContext(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := res1.Scores(), res2.Scores()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("score %d: Fit=%v FitContext=%v — not bit-identical", i, s1[i], s2[i])
		}
	}
}

// TestFitContextPreCancelled: an already-cancelled context never starts
// the fit; the error wraps context.Canceled and no result escapes.
func TestFitContextPreCancelled(t *testing.T) {
	det, err := New(Config{MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := det.FitContext(ctx, ctxTestData(rand.New(rand.NewSource(4)), 100))
	if res != nil {
		t.Fatal("cancelled fit returned a partial result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled in the chain", err)
	}
}

// TestFitContextCancelMidFlight: cancelling during the materialization
// scan aborts the fit promptly — no partial result, no stuck workers.
func TestFitContextCancelMidFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// Large enough that the fit takes well over the cancellation delay
	// on any machine; the kNN materialization alone is tens of ms.
	data := ctxTestData(rand.New(rand.NewSource(5)), 6000)
	det, err := New(Config{MinPtsLB: 5, MinPtsUB: 30, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res *Result
	var fitErr error
	start := time.Now()
	go func() {
		defer close(done)
		res, fitErr = det.FitContext(ctx, data)
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled fit did not return within 10s")
	}
	elapsed := time.Since(start)
	if fitErr == nil {
		t.Fatalf("fit completed in %v despite cancellation at 2ms — dataset too small for the race, or cancellation is not checked", elapsed)
	}
	if !errors.Is(fitErr, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled in the chain", fitErr)
	}
	if res != nil {
		t.Fatal("cancelled fit returned a partial result")
	}
	// The pool workers must be idle again: no goroutine may still be
	// chewing on the abandoned scan.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine count %d did not settle to baseline %d", runtime.NumGoroutine(), baseline)
}

// TestScoreBatchContextCancelled: a cancelled batch returns the context
// error and no scores.
func TestScoreBatchContextCancelled(t *testing.T) {
	det, err := New(Config{MinPtsLB: 3, MinPtsUB: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(ctxTestData(rand.New(rand.NewSource(6)), 200))
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scores, err := m.ScoreBatchContext(ctx, ctxTestData(rand.New(rand.NewSource(7)), 50))
	if scores != nil {
		t.Fatal("cancelled batch returned scores")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled in the chain", err)
	}
}
