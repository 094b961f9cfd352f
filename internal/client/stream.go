package client

import (
	"context"
	"encoding/json"
	"net/http"

	"lof/internal/front"
	"lof/internal/server"
)

// StreamStats mirrors the server's stream pipeline snapshot.
type StreamStats struct {
	Epoch       uint64 `json:"epoch"`
	Live        int    `json:"live"`
	Slots       int    `json:"slots"`
	Inserts     uint64 `json:"inserts_total"`
	Deletes     uint64 `json:"deletes_total"`
	Expired     uint64 `json:"expired_total"`
	Compactions uint64 `json:"compactions_total"`
	MinPts      int    `json:"min_pts"`
	Dim         int    `json:"dim"`
}

// StreamPushResult reports what one ingestion batch did.
type StreamPushResult struct {
	Epoch     uint64   `json:"epoch"`
	Inserted  []uint64 `json:"inserted"`
	Expired   []uint64 `json:"expired"`
	Deleted   int      `json:"deleted"`
	Live      int      `json:"live"`
	Compacted bool     `json:"compacted"`
}

// StreamScoreResult is a stream score response: one LOF per query plus the
// epoch the scores were computed against.
type StreamScoreResult struct {
	Scores []float64
	Epoch  uint64
}

// StreamLOFs is the stream window's maintained values at one epoch.
type StreamLOFs struct {
	IDs   []uint64
	LOFs  []float64
	Epoch uint64
}

// StreamInit creates (or replaces) the server's streaming pipeline.
// CAUTION on retries: init is idempotent for identical configs in effect
// (a replayed init just resets an empty pipeline again), but an init
// retried after ingestion started would drop the window — the server only
// sees duplicate inits when the first response was lost, which this
// client's retry loop can cause under injected faults.
func (c *Client) StreamInit(ctx context.Context, cfg server.StreamConfig) (*StreamStats, error) {
	body, err := json.Marshal(struct {
		Config server.StreamConfig `json:"config"`
	}{cfg})
	if err != nil {
		return nil, err
	}
	var out StreamStats
	if err := c.do(ctx, http.MethodPost, "/v1/stream/init", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StreamPush applies one ingestion batch: inserts are appended to the
// window (the server assigns and returns their IDs), deletes remove
// previously inserted points by ID, and the window's count/age bounds
// expire the oldest points. nowUnixNanos pins the batch timestamp for age
// expiry; zero takes the server clock.
//
// Unlike Fit and Score, a push is NOT idempotent: a retry after a lost
// response re-applies the batch. Callers that cannot tolerate duplicate
// inserts should disable retries (MaxAttempts=1) or dedupe downstream.
func (c *Client) StreamPush(ctx context.Context, inserts [][]float64, deletes []uint64, nowUnixNanos int64) (*StreamPushResult, error) {
	body, err := json.Marshal(struct {
		Inserts      [][]float64 `json:"inserts,omitempty"`
		Deletes      []uint64    `json:"deletes,omitempty"`
		NowUnixNanos int64       `json:"nowUnixNanos,omitempty"`
	}{inserts, deletes, nowUnixNanos})
	if err != nil {
		return nil, err
	}
	var out StreamPushResult
	if err := c.do(ctx, http.MethodPost, "/v1/stream", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StreamScore scores query points against the published stream epoch.
func (c *Client) StreamScore(ctx context.Context, queries [][]float64) (*StreamScoreResult, error) {
	body, err := json.Marshal(struct {
		Queries [][]float64 `json:"queries"`
	}{queries})
	if err != nil {
		return nil, err
	}
	var out struct {
		Scores []front.Float `json:"scores"`
		Epoch  uint64        `json:"epoch"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/stream/score", body, &out); err != nil {
		return nil, err
	}
	return &StreamScoreResult{Scores: front.Float64s(out.Scores), Epoch: out.Epoch}, nil
}

// StreamWindowLOFs fetches the window's IDs and maintained LOF values.
func (c *Client) StreamWindowLOFs(ctx context.Context) (*StreamLOFs, error) {
	var out struct {
		IDs   []uint64      `json:"ids"`
		LOFs  []front.Float `json:"lofs"`
		Epoch uint64        `json:"epoch"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/stream/lofs", nil, &out); err != nil {
		return nil, err
	}
	return &StreamLOFs{IDs: out.IDs, LOFs: front.Float64s(out.LOFs), Epoch: out.Epoch}, nil
}

// StreamStats fetches the pipeline counters and epoch shape.
func (c *Client) StreamStats(ctx context.Context) (*StreamStats, error) {
	var out StreamStats
	if err := c.do(ctx, http.MethodGet, "/v1/stream/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StreamFreezeResult is a freeze response: the installed model's summary
// plus the epoch it froze.
type StreamFreezeResult struct {
	ModelInfo
	Epoch uint64 `json:"epoch"`
}

// StreamFreeze refits the current stream window into a standard batch
// model and installs it as the server's serving model. Idempotent: a
// retried freeze refits the same (or a newer) window.
func (c *Client) StreamFreeze(ctx context.Context) (*StreamFreezeResult, error) {
	var out StreamFreezeResult
	if err := c.do(ctx, http.MethodPost, "/v1/stream/freeze", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
