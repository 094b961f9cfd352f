// Package client is a fault-tolerant HTTP client for the lofserve API. It
// retries transient failures — network errors, 429s and 5xx responses that
// plausibly clear on their own — with jittered exponential backoff under a
// per-attempt timeout, honors Retry-After hints from the server, and caps
// cluster-wide retry amplification with a token-bucket retry budget: each
// fresh request earns a fraction of a retry token, each retry spends one,
// so a fleet of these clients converges to bounded extra load against a
// struggling server instead of a retry storm.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lof/internal/front"
	"lof/internal/server"
	"lof/internal/shard"
	"lof/internal/trace"
)

// ErrBudgetExhausted wraps the last attempt's error when the retry budget
// denies further attempts; errors.Is distinguishes it from a request that
// ran out of attempts.
var ErrBudgetExhausted = errors.New("client: retry budget exhausted")

// Config parameterizes a Client. The zero value of every field takes the
// documented default.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080". Required.
	BaseURL string
	// HTTPClient issues the requests; nil uses a fresh http.Client. Set a
	// faults.Transport here to chaos-test the retry loop.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per request (first attempt included).
	// Default 4.
	MaxAttempts int
	// PerAttemptTimeout bounds each attempt; the caller's context bounds
	// the whole request including backoff waits. Default 10s.
	PerAttemptTimeout time.Duration
	// BaseBackoff is the backoff before the first retry; attempt n waits
	// BaseBackoff·2ⁿ, halved-to-full jittered, capped at MaxBackoff.
	// Defaults 50ms and 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RetryBudgetRatio is the retry-token fraction earned per fresh
	// request, and RetryBudgetBurst the bucket capacity (also the initial
	// balance). Defaults 0.2 and 10: sustained retries are capped at 20%
	// of request volume, with bursts of up to 10. A negative ratio
	// disables budgeting.
	RetryBudgetRatio float64
	RetryBudgetBurst float64
	// Seed drives backoff jitter; zero seeds from the budget burst — any
	// fixed value is fine, jitter needs spread, not entropy.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.PerAttemptTimeout <= 0 {
		c.PerAttemptTimeout = 10 * time.Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.RetryBudgetRatio == 0 {
		c.RetryBudgetRatio = 0.2
	}
	if c.RetryBudgetBurst <= 0 {
		c.RetryBudgetBurst = 10
	}
	return c
}

// Stats counts what the retry loop did, for soak reporting and tests.
type Stats struct {
	Requests      int64 // logical requests issued
	Attempts      int64 // HTTP attempts, including first tries
	Retries       int64 // attempts beyond the first
	BudgetDenials int64 // retries the budget refused
}

// Client issues retrying requests against one lofserve instance. Safe for
// concurrent use.
type Client struct {
	cfg Config

	mu     sync.Mutex
	rng    *rand.Rand
	budget float64

	requests      atomic.Int64
	attempts      atomic.Int64
	retries       atomic.Int64
	budgetDenials atomic.Int64
}

// New validates cfg and returns a Client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: BaseURL is required")
	}
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(cfg.RetryBudgetBurst)
	}
	return &Client{cfg: cfg, rng: rand.New(rand.NewSource(seed)), budget: cfg.RetryBudgetBurst}, nil
}

// Stats returns a snapshot of the retry-loop counters.
func (c *Client) Stats() Stats {
	return Stats{
		Requests:      c.requests.Load(),
		Attempts:      c.attempts.Load(),
		Retries:       c.retries.Load(),
		BudgetDenials: c.budgetDenials.Load(),
	}
}

// earn credits the budget for one fresh request.
func (c *Client) earn() {
	if c.cfg.RetryBudgetRatio < 0 {
		return
	}
	c.mu.Lock()
	c.budget = math.Min(c.budget+c.cfg.RetryBudgetRatio, c.cfg.RetryBudgetBurst)
	c.mu.Unlock()
}

// spend takes one retry token; false means the budget is dry.
func (c *Client) spend() bool {
	if c.cfg.RetryBudgetRatio < 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget < 1 {
		return false
	}
	c.budget--
	return true
}

// backoff returns the jittered wait before retry number n (0-based): a
// uniform draw from [d/2, d] where d = BaseBackoff·2ⁿ capped at MaxBackoff.
func (c *Client) backoff(n int) time.Duration {
	d := float64(c.cfg.BaseBackoff) * math.Pow(2, float64(n))
	if d > float64(c.cfg.MaxBackoff) {
		d = float64(c.cfg.MaxBackoff)
	}
	c.mu.Lock()
	u := c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(d/2 + u*d/2)
}

// retryAfter parses a Retry-After header as delay seconds; 0, false when
// absent or unparsable. (HTTP-date values are rare from this server and
// fall back to plain backoff.)
func retryAfter(resp *http.Response) (time.Duration, bool) {
	if resp == nil {
		return 0, false
	}
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// retryableStatus reports whether a status code is worth retrying: the
// server shed or timed out the request, or an injected/transient 5xx.
// Client errors (4xx other than 429) are permanent by definition.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// apiError is a non-retryable server response, carrying the decoded error
// body when one was present.
type apiError struct {
	Status    int
	Message   string
	RequestID string
}

func (e *apiError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("client: server returned status %d", e.Status)
	}
	return fmt.Sprintf("client: server returned status %d: %s", e.Status, e.Message)
}

// StatusCode returns the HTTP status of the server response that failed
// the request in err's chain, or 0 when no response did.
func StatusCode(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// do runs the retry loop for one logical request: POST body (or GET when
// body is nil) to path, decode a 200 into out. The caller's ctx bounds the
// whole loop; each attempt additionally gets PerAttemptTimeout.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out interface{}) error {
	return c.doTyped(ctx, method, path, body, "application/json", out)
}

// doTyped is do with an explicit request content type; the shard snapshot
// push and the shard data frames send raw bytes, everything else JSON.
func (c *Client) doTyped(ctx context.Context, method, path string, body []byte, contentType string, out interface{}) error {
	c.requests.Add(1)
	c.earn()
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !c.spend() {
				c.budgetDenials.Add(1)
				return fmt.Errorf("%w after %d attempts: %w", ErrBudgetExhausted, attempt, lastErr)
			}
			c.retries.Add(1)
		}
		c.attempts.Add(1)
		sp, sctx := trace.StartSpan(ctx, "rpc "+path)
		sp.SetAttrInt("attempt", int64(attempt))
		resp, data, err := c.attempt(sctx, method, path, body, contentType)
		retry, done := c.finish(resp, data, err, out)
		if resp != nil {
			sp.SetAttrInt("status", int64(resp.StatusCode))
		}
		if done != nil {
			sp.SetError(done.Error())
		}
		sp.End()
		if done == nil && retry == 0 {
			return nil
		}
		if retry == 0 {
			return done
		}
		lastErr = done
		// Honor the server's Retry-After when it exceeds our own backoff;
		// the hint reflects actual drain time, the backoff only guesses.
		wait := c.backoff(attempt)
		if retry > wait {
			wait = retry
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("client: %w (last attempt: %w)", ctx.Err(), lastErr)
		}
	}
	return fmt.Errorf("client: giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// attempt issues one HTTP attempt under the per-attempt timeout and returns
// the response with its whole body.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, contentType string) (*http.Response, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.PerAttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	// Propagate the trace context and correlation ID on every attempt —
	// retries and hedges included — so server-side spans parent correctly
	// and both sides log the same X-Request-ID.
	trace.Inject(ctx, req.Header)
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	// Read the whole body under the attempt timeout, then detach it from
	// the cancelled context.
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	resp.Body.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("client: reading response: %w", err)
	}
	return resp, data, nil
}

// finish classifies one attempt's outcome. retry > 0 means try again after
// at least that wait (a nominal 1ns when no Retry-After hint applies);
// retry == 0 with err == nil means success (out is decoded: a **shard.Frame
// from a binary frame body, anything else from JSON).
func (c *Client) finish(resp *http.Response, data []byte, err error, out interface{}) (retry time.Duration, _ error) {
	const again = time.Nanosecond
	if err != nil {
		// Transport-level failure: severed connection, injected fault,
		// attempt timeout. All retryable — but not worth retrying when the
		// parent context is done, which do's wait select catches.
		return again, err
	}
	if resp.StatusCode == http.StatusOK {
		switch out := out.(type) {
		case nil:
		case **shard.Frame:
			f, err := shard.DecodeFrame(data)
			if err != nil {
				return again, fmt.Errorf("client: decoding response: %w", err)
			}
			*out = f
		default:
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(out); err != nil {
				return again, fmt.Errorf("client: decoding response: %w", err)
			}
		}
		return 0, nil
	}
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	_ = json.Unmarshal(data, &body)
	serr := &apiError{Status: resp.StatusCode, Message: body.Error, RequestID: body.RequestID}
	if !retryableStatus(resp.StatusCode) {
		return 0, serr
	}
	if ra, ok := retryAfter(resp); ok && ra > 0 {
		return ra, serr
	}
	return again, serr
}

// --- API surface ---------------------------------------------------------

// ModelInfo mirrors the server's model summary.
type ModelInfo struct {
	Objects  int    `json:"objects"`
	Dims     int    `json:"dims"`
	MinPtsLB int    `json:"minPtsLB"`
	MinPtsUB int    `json:"minPtsUB"`
	Metric   string `json:"metric"`
	Distinct bool   `json:"distinct"`
}

// FitResult is a fit response: the installed model's summary plus the
// server-side fit latency.
type FitResult struct {
	ModelInfo
	FitMS float64 `json:"fitMillis"`
}

// Fit posts data with the given configuration and returns the installed
// model's summary. Retries on transient failures; a retried fit is
// idempotent for identical payloads (the same model is re-installed).
func (c *Client) Fit(ctx context.Context, cfg server.FitConfig, data [][]float64) (*FitResult, error) {
	body, err := json.Marshal(struct {
		Config server.FitConfig `json:"config"`
		Data   [][]float64      `json:"data"`
	}{cfg, data})
	if err != nil {
		return nil, err
	}
	var out FitResult
	if err := c.do(ctx, http.MethodPost, "/v1/fit", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ScoreResult is a score response: one LOF per query, and the mode that
// served it ("" for exact answers).
type ScoreResult struct {
	Scores []float64
	Mode   string
}

// Score returns exact scores for the query points.
func (c *Client) Score(ctx context.Context, queries [][]float64) ([]float64, error) {
	res, err := c.ScoreMode(ctx, queries, "")
	if err != nil {
		return nil, err
	}
	return res.Scores, nil
}

// ScoreMode scores with an explicit mode: "" or "full" for exact scores,
// "pruned" for the bound-certified fast path (exact except for queries
// certified as LOF ≈ 1), "coreset" to score against the server's
// sensitivity-sampled coreset model, and "degraded" to accept approximate
// scores from the server's fallback model (and its reserve capacity when
// the server is saturated).
func (c *Client) ScoreMode(ctx context.Context, queries [][]float64, mode string) (*ScoreResult, error) {
	body, err := json.Marshal(struct {
		Queries [][]float64 `json:"queries"`
	}{queries})
	if err != nil {
		return nil, err
	}
	path := "/v1/score"
	if mode != "" {
		path += "?mode=" + mode
	}
	var out struct {
		Scores []front.Float `json:"scores"`
		Mode   string        `json:"mode"`
	}
	if err := c.do(ctx, http.MethodPost, path, body, &out); err != nil {
		return nil, err
	}
	return &ScoreResult{Scores: front.Float64s(out.Scores), Mode: out.Mode}, nil
}

// Model fetches the current model summary.
func (c *Client) Model(ctx context.Context) (*ModelInfo, error) {
	var out ModelInfo
	if err := c.do(ctx, http.MethodGet, "/v1/model", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz reports whether the server is up and whether a model is loaded.
func (c *Client) Healthz(ctx context.Context) (modelLoaded bool, err error) {
	var out struct {
		Status string `json:"status"`
		Model  bool   `json:"model"`
	}
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return false, err
	}
	return out.Model, nil
}
