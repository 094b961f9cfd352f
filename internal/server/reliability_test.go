package server

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lof"
)

// fitModel builds a model over two clusters for direct SetModel installs.
func fitModel(t *testing.T, n int) *lof.Model {
	t.Helper()
	det, err := lof.New(lof.Config{MinPtsLB: 3, MinPtsUB: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(testData(rand.New(rand.NewSource(9)), n))
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// holdFirstScore installs a score-start hook that blocks only the first
// request through it: the returned entered channel closes once that
// request is inside the handler, and it stays there until release is
// closed. Later requests pass straight through.
func holdFirstScore(t *testing.T) (entered, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	testHookScoreStart = func() {
		first := false
		once.Do(func() { first = true })
		if first {
			close(entered)
			<-release
		}
	}
	t.Cleanup(func() { testHookScoreStart = nil })
	return entered, release
}

// TestDegradedMode covers the graceful-degradation path: opt-in
// approximate scoring, reserve admission when the main limiter is full,
// Retry-After on sheds, and the degraded mode count.
func TestDegradedMode(t *testing.T) {
	srv := New(Config{MaxInFlight: 1, CoresetSample: 32})
	srv.SetModel(fitModel(t, 200))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	scoreBody := map[string]interface{}{"queries": [][]float64{{0.2, -0.1}}}

	// Unknown modes are rejected outright.
	resp, body := postJSON(t, client, ts.URL+"/v1/score?mode=bogus", scoreBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mode=bogus: status %d body %s", resp.StatusCode, body)
	}

	// Unsaturated degraded request: served, and labeled as degraded.
	resp, body = postJSON(t, client, ts.URL+"/v1/score?mode=degraded", scoreBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded score: status %d body %s", resp.StatusCode, body)
	}
	var out struct {
		Scores []float64 `json:"scores"`
		Mode   string    `json:"mode"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != "degraded" || len(out.Scores) != 1 {
		t.Fatalf("degraded response = %+v, want mode=degraded with 1 score", out)
	}

	// Full-mode responses must NOT carry the mode marker.
	resp, body = postJSON(t, client, ts.URL+"/v1/score", scoreBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full score: status %d body %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), `"mode"`) {
		t.Fatalf("full-mode response leaked a mode field: %s", body)
	}

	// Saturate the single main slot with a held request…
	entered, release := holdFirstScore(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, client, ts.URL+"/v1/score", scoreBody)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("held request finished with status %d", resp.StatusCode)
		}
	}()
	<-entered

	// …then a plain request is shed with a retry hint…
	resp, body = postJSON(t, client, ts.URL+"/v1/score", scoreBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated full score: status %d body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("shed response Retry-After = %q, want \"1\"", ra)
	}

	// …while a degraded opt-in is admitted through the reserve pool.
	resp, body = postJSON(t, client, ts.URL+"/v1/score?mode=degraded", scoreBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("saturated degraded score: status %d body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != "degraded" {
		t.Fatalf("saturated degraded response mode = %q", out.Mode)
	}

	close(release)
	wg.Wait()

	// The Prometheus view counts the degraded responses by mode.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	counters, _ := parsePromText(t, readBody(t, resp))
	if got := counters[`lof_http_score_mode_total{mode="degraded"}`]; got < 2 {
		t.Errorf("lof_http_score_mode_total{mode=\"degraded\"} = %d, want ≥2", got)
	}
	if got := counters["lof_http_shed_total"]; got != 1 {
		t.Errorf("lof_http_shed_total = %d, want 1", got)
	}
}

// TestDegradedDisabled: a negative CoresetSample turns the approximate
// model off; opting into degraded mode still succeeds, served exactly by
// the full model.
func TestDegradedDisabled(t *testing.T) {
	srv := New(Config{CoresetSample: -1})
	srv.SetModel(fitModel(t, 120))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score?mode=degraded",
		map[string]interface{}{"queries": [][]float64{{0.2, -0.1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), `"mode"`) {
		t.Fatalf("disabled degraded mode still reported a mode: %s", body)
	}
}

// TestGracefulDrainUnderFit: Shutdown waits for an in-flight fit to
// finish and install its model; the late response is a real 200.
func TestGracefulDrainUnderFit(t *testing.T) {
	srv := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	entered := make(chan struct{})
	release := make(chan struct{})
	testHookFitStart = func() {
		close(entered)
		<-release
	}
	defer func() { testHookFitStart = nil }()

	client := &http.Client{}
	fitDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, client, base+"/v1/fit", FitRequest{
			Config: FitConfig{MinPtsLB: 3, MinPtsUB: 6},
			Data:   testData(rand.New(rand.NewSource(10)), 80),
		})
		fitDone <- resp.StatusCode
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- hs.Shutdown(context.Background()) }()

	// Shutdown must not complete while the fit is still being served.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with a fit in flight", err)
	case <-time.After(150 * time.Millisecond):
	}

	close(release)
	if status := <-fitDone; status != http.StatusOK {
		t.Fatalf("drained fit finished with status %d", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
	if srv.Model() == nil {
		t.Fatal("drained fit did not install its model")
	}
}

// TestScoreDeadlinePropagation: a request whose deadline expires mid-batch
// frees its limiter slot promptly — the server does not keep computing for
// a client that already got its 503.
func TestScoreDeadlinePropagation(t *testing.T) {
	srv := New(Config{MaxInFlight: 1, RequestTimeout: 50 * time.Millisecond})
	srv.SetModel(fitModel(t, 200))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// A big batch cannot finish inside 50ms; the timeout middleware
	// answers 503 and the context cancels the chunked scorer.
	rng := rand.New(rand.NewSource(11))
	big := make([][]float64, 50000)
	for i := range big {
		big[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	resp, _ := postJSON(t, client, ts.URL+"/v1/score", map[string]interface{}{"queries": big})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversized-deadline score: status %d", resp.StatusCode)
	}

	// The slot must free up well before the big batch would have finished;
	// a small follow-up request succeeds instead of being shed.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, _ := postJSON(t, client, ts.URL+"/v1/score",
			map[string]interface{}{"queries": [][]float64{{0, 0}}})
		if resp.StatusCode == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("limiter slot still held 2s after the timed-out request (status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
