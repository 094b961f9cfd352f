package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lof/internal/server"
	"lof/internal/shard"
	"lof/internal/trace"
)

// Shard-tier methods: the coordinator talks to each shard replica through
// these. The data request (Candidates) rides the normal retry loop — a
// stale-version 503 carries Retry-After and is retried like any transient —
// while Readyz is deliberately one-shot: a 503 there IS the answer the
// poller wants, not a failure to paper over.

// PushSnapshot uploads an encoded shard.Part and returns the shard's
// installation acknowledgement. Safe to retry: installation is idempotent
// for identical payloads (last write wins).
func (c *Client) PushSnapshot(ctx context.Context, encoded []byte) (*shard.SnapshotInfo, error) {
	var out shard.SnapshotInfo
	if err := c.doTyped(ctx, http.MethodPost, "/v1/shard/snapshot", encoded, "application/octet-stream", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Candidates posts a candidates request frame and returns the shard's
// answer, checked against the request (shard.CheckReply).
func (c *Client) Candidates(ctx context.Context, req *shard.Frame) (*shard.Frame, error) {
	var out *shard.Frame
	if err := c.doTyped(ctx, http.MethodPost, "/v1/shard/candidates", req.Encode(), "application/octet-stream", &out); err != nil {
		return nil, err
	}
	if err := shard.CheckReply(req, out); err != nil {
		return nil, fmt.Errorf("client: /v1/shard/candidates: %w", err)
	}
	return out, nil
}

// Readyz reports the server's readiness state with a single un-retried GET:
// an unready 503 still decodes into a meaningful report, and a transport
// error means "not reachable, hence not ready" to a polling coordinator.
func (c *Client) Readyz(ctx context.Context) (*server.ReadyInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	trace.Inject(ctx, req.Header)
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var info server.ReadyInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("client: decoding readyz: %w", err)
	}
	return &info, nil
}

// ReplicaSet is a group of clients addressing replicas of the same shard:
// any member can answer any data request, so calls fan out with hedging and
// the first success wins.
type ReplicaSet struct {
	clients []*Client
}

// NewReplicaSet builds one client per replica URL from the template config
// (its BaseURL is ignored; everything else — transport, retry policy —
// carries over).
func NewReplicaSet(urls []string, tmpl Config) (*ReplicaSet, error) {
	if len(urls) == 0 {
		return nil, errors.New("client: replica set needs at least one URL")
	}
	rs := &ReplicaSet{clients: make([]*Client, len(urls))}
	for i, u := range urls {
		cfg := tmpl
		cfg.BaseURL = u
		c, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("client: replica %d: %w", i, err)
		}
		rs.clients[i] = c
	}
	return rs, nil
}

// Clients exposes the member clients, primary first.
func (rs *ReplicaSet) Clients() []*Client { return rs.clients }

// Len returns the number of replicas.
func (rs *ReplicaSet) Len() int { return len(rs.clients) }

// Hedged runs op against the replica set: the primary is tried first, and
// each time the hedge delay passes without an answer — or an attempt fails
// outright — the next replica is engaged concurrently. The first success
// wins and cancels the rest; the call fails only when every replica has
// failed. A hedge delay ≤ 0 disables time-based hedging, leaving pure
// failover-on-error. Results from cancelled losers are discarded, which is
// safe for the shard API: every operation is read-only or idempotent.
func Hedged[T any](ctx context.Context, rs *ReplicaSet, hedge time.Duration, op func(context.Context, *Client) (T, error)) (T, error) {
	var zero T
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, len(rs.clients))
	launched := 0
	launch := func() {
		c := rs.clients[launched]
		idx := launched
		launched++
		go func() {
			// Each replica attempt is its own span, so hedge winners and
			// losers show up as siblings under the caller's span; op runs
			// under the replica span's context so its RPC spans nest inside.
			sp, sctx := trace.StartSpan(cctx, "replica")
			sp.SetAttrInt("replica", int64(idx))
			if idx > 0 {
				sp.SetAttr("hedged", "true")
			}
			v, err := op(sctx, c)
			switch {
			case err == nil:
				sp.SetAttr("outcome", "won")
			case cctx.Err() != nil:
				// Cancelled because a sibling already won.
				sp.SetAttr("outcome", "lost")
			default:
				sp.SetAttr("outcome", "error")
				sp.SetError(err.Error())
			}
			sp.End()
			ch <- result{v, err}
		}()
	}
	launch()
	var hedgeC <-chan time.Time
	var timer *time.Timer
	if hedge > 0 && len(rs.clients) > 1 {
		timer = time.NewTimer(hedge)
		defer timer.Stop()
		hedgeC = timer.C
	}
	pending := 1
	var lastErr error
	for {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				return r.v, nil
			}
			lastErr = r.err
			if launched < len(rs.clients) {
				launch()
				pending++
			} else if pending == 0 {
				return zero, fmt.Errorf("client: all %d replicas failed: %w", len(rs.clients), lastErr)
			}
		case <-hedgeC:
			if launched < len(rs.clients) {
				launch()
				pending++
				timer.Reset(hedge)
			} else {
				hedgeC = nil
			}
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}
