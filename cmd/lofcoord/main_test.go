package main

import (
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lof"
	"lof/internal/client"
	"lof/internal/server"
)

func TestParseTargets(t *testing.T) {
	got, err := parseTargets("http://a:1,http://b:2 ; http://c:3")
	if err != nil {
		t.Fatalf("parseTargets: %v", err)
	}
	if len(got) != 2 || len(got[0]) != 2 || got[0][1] != "http://b:2" || got[1][0] != "http://c:3" {
		t.Fatalf("parseTargets = %v", got)
	}
	for _, bad := range []string{"", "  ", "http://a:1;;http://b:2", ";http://a:1"} {
		if _, err := parseTargets(bad); err == nil {
			t.Fatalf("parseTargets(%q) accepted", bad)
		}
	}
}

// startShard runs an in-process lofserve on a loopback port.
func startShard(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: server.New(server.Config{}).Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return "http://" + ln.Addr().String()
}

func trainData() [][]float64 {
	var data [][]float64
	for i := 0; i < 60; i++ {
		fx := float64(i%7)/7 - 0.5
		fy := float64(i%5)/5 - 0.5
		cx, cy := 0.0, 0.0
		if i%2 == 1 {
			cx, cy = 10, 10
		}
		data = append(data, []float64{cx + fx, cy + fy})
	}
	return append(data, []float64{40, -40})
}

// TestLifecycle drives a full coordinator process: two shards, a preloaded
// model, HTTP fit and score through the standard client, clean shutdown.
func TestLifecycle(t *testing.T) {
	data := trainData()
	det, err := lof.New(lof.Config{MinPtsLB: 3, MinPtsUB: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := m.WriteTo(f); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	f.Close()

	shards := startShard(t) + ";" + startShard(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{
			addr: "127.0.0.1:0", shards: shards, modelPath: path,
			partitioner: "range", hedge: 10 * time.Millisecond,
			coresetSample: 64, repairEvery: 100 * time.Millisecond,
			grace: 5 * time.Second, logLevel: "error",
		}, io.Discard, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	}

	cl, err := client.New(client.Config{BaseURL: "http://" + addr})
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	// The preload distribution is async; poll readiness.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := cl.Readyz(ctx)
		if err == nil && info.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never became ready: %+v, %v", info, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	queries := [][]float64{{0, 0}, {10, 10}, {40, -40}, {5, 5}}
	got, err := cl.Score(ctx, queries)
	if err != nil {
		t.Fatalf("Score: %v", err)
	}
	want, err := m.ScoreBatchContext(ctx, queries)
	if err != nil {
		t.Fatalf("local scores: %v", err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("query %d: coordinator %v != local %v", i, got[i], want[i])
		}
	}

	// A refit through the coordinator replaces the preloaded model.
	if _, err := cl.Fit(ctx, server.FitConfig{MinPtsLB: 2, MinPtsUB: 5}, data); err != nil {
		t.Fatalf("Fit via coordinator: %v", err)
	}
	if info, err := cl.Model(ctx); err != nil || info.MinPtsUB != 5 {
		t.Fatalf("model after refit: %+v, %v", info, err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not shut down")
	}
}

func TestRunBadFlags(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, options{shards: "", logLevel: "info"}, io.Discard, nil); err == nil {
		t.Fatal("run accepted empty -shards")
	}
	if err := run(ctx, options{shards: "http://a", partitioner: "mod", logLevel: "info"}, io.Discard, nil); err == nil {
		t.Fatal("run accepted unknown partitioner")
	}
	if err := run(ctx, options{shards: "http://a", logLevel: "loud"}, io.Discard, nil); err == nil {
		t.Fatal("run accepted unknown log level")
	}
}
