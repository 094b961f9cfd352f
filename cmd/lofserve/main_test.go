package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lof"
)

// startServer runs the full lofserve lifecycle in-process and returns the
// API base URL, the pprof base URL (empty unless o.pprofAddr is set), and
// a shutdown function that cancels the context (the SIGTERM path) and
// waits for the drain to complete.
func startServer(t *testing.T, o options) (string, string, func() error) {
	t.Helper()
	o.addr = "127.0.0.1:0"
	if o.timeout == 0 {
		o.timeout = 10 * time.Second
	}
	if o.grace == 0 {
		o.grace = 10 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan [2]string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, o, io.Discard, ready) }()
	select {
	case addrs := <-ready:
		pprofBase := ""
		if addrs[1] != "" {
			pprofBase = "http://" + addrs[1]
		}
		return "http://" + addrs[0], pprofBase, func() error {
			cancel()
			select {
			case err := <-done:
				return err
			case <-time.After(15 * time.Second):
				return fmt.Errorf("server did not shut down")
			}
		}
	case err := <-done:
		cancel()
		t.Fatalf("server exited before ready: %v", err)
		return "", "", nil
	}
}

// TestServeFitScoreShutdown is the command-level end-to-end test: start,
// fit over HTTP, score, read metrics, then shut down gracefully.
func TestServeFitScoreShutdown(t *testing.T) {
	base, _, shutdown := startServer(t, options{maxInFlight: 8, maxBatch: 1000})

	rng := rand.New(rand.NewSource(17))
	data := make([][]float64, 50)
	for i := range data {
		if i < 25 {
			data[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		} else {
			data[i] = []float64{8 + 0.2*rng.NormFloat64(), 8 + 0.2*rng.NormFloat64()}
		}
	}
	fitBody, err := json.Marshal(map[string]interface{}{
		"config": map[string]interface{}{"minPtsLB": 3, "minPtsUB": 6},
		"data":   data,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/fit", "application/json", bytes.NewReader(fitBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("fit status %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/score", "application/json",
		bytes.NewReader([]byte(`{"queries":[[4,4],[0,0]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Scores []float64 `json:"scores"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Scores) != 2 || sr.Scores[0] <= sr.Scores[1] {
		t.Fatalf("scores %v: between-cluster point should outscore the inlier", sr.Scores)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(promBody, []byte("# TYPE lof_http_request_duration_seconds histogram")) {
		t.Fatalf("/metrics missing Prometheus histogram family:\n%s", promBody)
	}
	for _, line := range []string{
		`lof_http_requests_total{route="/v1/fit",code="200"} 1`,
		`lof_http_requests_total{route="/v1/score",code="200"} 1`,
	} {
		if !bytes.Contains(promBody, []byte(line+"\n")) {
			t.Fatalf("/metrics missing %q:\n%s", line, promBody)
		}
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// TestServePreloadedModel starts lofserve with a -model snapshot and
// scores against it without any fit call.
func TestServePreloadedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := make([][]float64, 40)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	det, err := lof.New(lof.Config{MinPtsLB: 3, MinPtsUB: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.WriteModel(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	base, _, shutdown := startServer(t, options{modelPath: path, maxInFlight: 4})
	defer shutdown()

	resp, err := http.Get(base + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Objects int `json:"objects"`
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Objects != 40 {
		t.Fatalf("preloaded model reports %d objects", info.Objects)
	}
	resp, err = http.Post(base+"/v1/score", "application/json",
		bytes.NewReader([]byte(`{"queries":[[0.1,0.2]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("score against preloaded model: status %d", resp.StatusCode)
	}
}

// TestServeBadModelPath pins the startup failure mode.
func TestServeBadModelPath(t *testing.T) {
	err := run(context.Background(), options{
		addr: "127.0.0.1:0", modelPath: filepath.Join(t.TempDir(), "missing.bin"),
		timeout: time.Second, grace: time.Second,
	}, io.Discard, nil)
	if err == nil {
		t.Fatal("missing model path accepted")
	}
}

// TestServePprofSeparateListener pins the -pprof-addr contract: profiling
// endpoints answer on their own listener and are absent from the API port.
func TestServePprofSeparateListener(t *testing.T) {
	base, pprofBase, shutdown := startServer(t, options{
		maxInFlight: 4, pprofAddr: "127.0.0.1:0",
	})
	defer shutdown()
	if pprofBase == "" {
		t.Fatal("pprof listener did not start")
	}

	resp, err := http.Get(pprofBase + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("profiling endpoint exposed on the API listener")
	}
}

// TestServeStructuredLogs asserts one JSON log line per request with the
// fields downstream log pipelines key on.
func TestServeStructuredLogs(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := lockedWriter{mu: &mu, w: &buf}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan [2]string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{
			addr: "127.0.0.1:0", timeout: 5 * time.Second, grace: 5 * time.Second,
			logLevel: "info",
		}, w, ready)
	}()
	var base string
	select {
	case addrs := <-ready:
		base = "http://" + addrs[0]
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}

	resp, err := http.Get(base + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var sawListening, sawRequest bool
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var entry map[string]interface{}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		switch entry["msg"] {
		case "listening":
			sawListening = true
			if entry["addr"] == "" {
				t.Fatalf("listening line missing addr: %s", line)
			}
		case "request":
			sawRequest = true
			// No model is loaded, so the info request 404s; the line must
			// still carry the route, status and request ID.
			if entry["route"] != "/v1/model" || entry["status"] != float64(404) || entry["requestId"] == "" {
				t.Fatalf("request line fields: %s", line)
			}
		}
	}
	if !sawListening || !sawRequest {
		t.Fatalf("logs missing listening=%v request=%v:\n%s", sawListening, sawRequest, out)
	}
}

// TestServeBadLogLevel pins the flag validation failure mode.
func TestServeBadLogLevel(t *testing.T) {
	err := run(context.Background(), options{
		addr: "127.0.0.1:0", logLevel: "loud",
		timeout: time.Second, grace: time.Second,
	}, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "log level") {
		t.Fatalf("bad log level: err = %v", err)
	}
}

// lockedWriter serializes writes so the test can read the buffer while the
// server goroutine may still be logging.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
