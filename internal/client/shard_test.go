package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"lof"
	"lof/internal/server"
	"lof/internal/shard"
)

func shardServer(t *testing.T) (*server.Server, *httptest.Server, []*shard.Part) {
	t.Helper()
	det, err := lof.New(lof.Config{MinPtsLB: 2, MinPtsUB: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := det.Fit([][]float64{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5},
		{10, 10}, {11, 10}, {10, 11}, {11, 11}, {30, -20},
	})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	pts, db := m.Fitted()
	parts, err := shard.Split(pts, db, shard.Meta{}, 2, shard.PartitionRange, 3)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, parts
}

func TestShardClientRoundTrip(t *testing.T) {
	_, ts, parts := shardServer(t)
	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatalf("New client: %v", err)
	}
	ctx := context.Background()

	// Readyz is a one-shot answer, 503 or not.
	info, err := c.Readyz(ctx)
	if err != nil || info.Ready {
		t.Fatalf("readyz before snapshot: %+v, %v", info, err)
	}

	enc, err := shard.EncodePart(parts[0])
	if err != nil {
		t.Fatalf("EncodePart: %v", err)
	}
	ack, err := c.PushSnapshot(ctx, enc)
	if err != nil {
		t.Fatalf("PushSnapshot: %v", err)
	}
	if ack.Version != 3 || ack.Shards != 2 {
		t.Fatalf("snapshot ack = %+v", ack)
	}
	info, err = c.Readyz(ctx)
	if err != nil || !info.Ready || info.Version != 3 || info.Role != "shard" {
		t.Fatalf("readyz after snapshot: %+v, %v", info, err)
	}

	cresp, err := c.Candidates(ctx, candidatesReq(3))
	if err != nil {
		t.Fatalf("Candidates: %v", err)
	}
	if len(cresp.Counts) != 1 || len(cresp.Entries) == 0 {
		t.Fatalf("candidates = %+v", cresp)
	}

	// A frame body a shard does not accept is the caller's error, not
	// retried; a JSON body is one.
	var out struct{}
	if err := c.do(ctx, http.MethodPost, "/v1/shard/candidates", []byte(`{"version":3}`), &out); StatusCode(err) != http.StatusBadRequest {
		t.Fatalf("JSON body on /v1/shard/candidates: %v, want a 400", err)
	}

	// A stale pin exhausts retries with the server's 503 as the cause.
	short, err := New(Config{BaseURL: ts.URL, MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("New client: %v", err)
	}
	ctxShort, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := short.Candidates(ctxShort, candidatesReq(99)); err == nil {
		t.Fatal("stale-version candidates succeeded")
	}
}

// candidatesReq is a one-query candidates request pinned to version.
func candidatesReq(version uint64) *shard.Frame {
	return &shard.Frame{Kind: shard.KindCandidatesRequest, Version: version, Dim: 2, Queries: []float64{0.4, 0.4}}
}

func TestHedgedFailover(t *testing.T) {
	// Replica 0 is dead (closed listener); replica 1 answers. Hedging must
	// recover without the caller seeing the failure.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	_, ts, parts := shardServer(t)
	enc, _ := shard.EncodePart(parts[0])
	rs, err := NewReplicaSet([]string{deadURL, ts.URL}, Config{
		MaxAttempts: 1, BaseBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	ctx := context.Background()
	if _, err := Hedged(ctx, rs, 0, func(ctx context.Context, c *Client) (*shard.SnapshotInfo, error) {
		return c.PushSnapshot(ctx, enc)
	}); err != nil {
		t.Fatalf("Hedged push over dead primary: %v", err)
	}
	got, err := Hedged(ctx, rs, 50*time.Millisecond, func(ctx context.Context, c *Client) (*shard.Frame, error) {
		return c.Candidates(ctx, candidatesReq(3))
	})
	if err != nil {
		t.Fatalf("Hedged candidates: %v", err)
	}
	if len(got.Counts) != 1 {
		t.Fatalf("hedged candidates = %+v", got)
	}
}

func TestHedgedLatency(t *testing.T) {
	// The primary hangs; the hedge timer must engage the secondary long
	// before the primary's timeout would expire.
	release := make(chan struct{})
	var slowHits atomic.Int64
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slowHits.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	defer close(release)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	defer fast.Close()
	rs, err := NewReplicaSet([]string{slow.URL, fast.URL}, Config{MaxAttempts: 1, PerAttemptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	start := time.Now()
	_, err = Hedged(context.Background(), rs, 20*time.Millisecond, func(ctx context.Context, c *Client) (struct{}, error) {
		var out struct{}
		return out, c.do(ctx, http.MethodGet, "/", nil, nil)
	})
	if err != nil {
		t.Fatalf("Hedged: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedge did not engage: took %v", elapsed)
	}
	if slowHits.Load() == 0 {
		t.Fatal("primary was never tried")
	}
}

func TestHedgedAllFail(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"nope"}`, http.StatusBadRequest)
	}))
	defer bad.Close()
	rs, err := NewReplicaSet([]string{bad.URL, bad.URL}, Config{MaxAttempts: 1})
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	_, err = Hedged(context.Background(), rs, time.Millisecond, func(ctx context.Context, c *Client) (struct{}, error) {
		var out struct{}
		return out, errors.New("replica error")
	})
	if err == nil {
		t.Fatal("Hedged succeeded with all replicas failing")
	}
}

func TestHedgedContextCancel(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer hang.Close()
	rs, err := NewReplicaSet([]string{hang.URL}, Config{MaxAttempts: 1, PerAttemptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = Hedged(ctx, rs, 0, func(ctx context.Context, c *Client) (struct{}, error) {
		var out struct{}
		return out, c.do(ctx, http.MethodGet, "/", nil, nil)
	})
	if err == nil {
		t.Fatal("Hedged outlived its context")
	}
}
