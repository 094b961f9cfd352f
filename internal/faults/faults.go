// Package faults provides deterministic, seed-driven fault injection for
// exercising the serving stack's failure paths: latency spikes, transient
// errors and dropped responses. One Injector carries one fault profile and
// can be wrapped around the layers where real deployments fail —
// an HTTP server (Middleware), an HTTP client's transport (Transport) and
// a kNN index (Index, modeling slow storage under the materialization
// scan). All decisions come from a single seeded PRNG, so a given seed
// reproduces the exact same fault schedule run after run — which is what
// makes chaos tests assertable rather than flaky.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lof/internal/geom"
	"lof/internal/index"
)

// ErrInjected is the sentinel wrapped by every error the injector
// fabricates, so tests and retry policies can distinguish injected faults
// from genuine ones with errors.Is.
var ErrInjected = errors.New("faults: injected fault")

// Config is one fault profile. Probabilities are per operation (HTTP
// request, index query) and mutually exclusive with priority
// drop > error > latency: at most one fault fires per operation, so the
// profile's failure rate is exactly DropProb + ErrorProb.
type Config struct {
	// Seed drives every decision. Two injectors with equal configs issue
	// identical fault schedules.
	Seed int64
	// DropProb is the probability of a dropped response: the server
	// middleware aborts the connection without replying; the client
	// transport returns an error after the request was (conceptually)
	// sent. Models crashed peers and severed connections.
	DropProb float64
	// ErrorProb is the probability of a transient error: 503 from the
	// middleware, a retryable error from the transport.
	ErrorProb float64
	// RetryAfter, when positive, is advertised on injected 503s via the
	// Retry-After header (rounded up to whole seconds).
	RetryAfter time.Duration
	// LatencyProb is the probability of a latency spike on an otherwise
	// successful operation.
	LatencyProb float64
	// Latency is the spike ceiling; each spike draws uniformly from
	// (0, Latency]. Zero disables spikes regardless of LatencyProb.
	Latency time.Duration
}

// Stats counts the faults an injector has fired, by kind.
type Stats struct {
	Drops     int64
	Errors    int64
	Latencies int64
}

// Injector makes fault decisions for one profile. Safe for concurrent use;
// the PRNG is mutex-guarded so concurrent callers draw from one stream
// (the schedule is deterministic per seed, though its interleaving across
// goroutines follows scheduling order).
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	drops     atomic.Int64
	errors    atomic.Int64
	latencies atomic.Int64
}

// New returns an injector for the given profile.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns the counts of faults fired so far.
func (in *Injector) Stats() Stats {
	return Stats{
		Drops:     in.drops.Load(),
		Errors:    in.errors.Load(),
		Latencies: in.latencies.Load(),
	}
}

// action is one fault decision.
type action int

const (
	actNone action = iota
	actDrop
	actError
	actLatency
)

// decide draws one decision (and, for latency, its duration) from the
// stream. Exactly three uniform draws happen per call regardless of
// outcome, so the schedule depends only on the seed and the call ordinal —
// not on which probabilities are set.
func (in *Injector) decide() (action, time.Duration) {
	in.mu.Lock()
	u1, u2, u3 := in.rng.Float64(), in.rng.Float64(), in.rng.Float64()
	in.mu.Unlock()
	switch {
	case u1 < in.cfg.DropProb:
		in.drops.Add(1)
		return actDrop, 0
	case u2 < in.cfg.ErrorProb:
		in.errors.Add(1)
		return actError, 0
	case u3 < in.cfg.LatencyProb && in.cfg.Latency > 0:
		in.latencies.Add(1)
		// Map u3 back into [0, 1) over its accepted range for the spike
		// size, keeping one draw per decision slot.
		frac := u3 / in.cfg.LatencyProb
		d := time.Duration(frac * float64(in.cfg.Latency))
		if d <= 0 {
			d = 1
		}
		return actLatency, d
	default:
		return actNone, 0
	}
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first. A nil
// ctx sleeps unconditionally.
func sleepCtx(ctx context.Context, d time.Duration) {
	if ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// --- HTTP server side ----------------------------------------------------

// Middleware wraps next with the injector's fault profile. Drops abort the
// connection without a response (the client observes EOF or a reset);
// errors answer 503 (with Retry-After when configured); latency spikes
// sleep — honoring the request context — before serving normally.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch act, d := in.decide(); act {
		case actDrop:
			// net/http recognizes ErrAbortHandler and closes the
			// connection without writing a response.
			panic(http.ErrAbortHandler)
		case actError:
			if in.cfg.RetryAfter > 0 {
				secs := int64((in.cfg.RetryAfter + time.Second - 1) / time.Second)
				w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			}
			http.Error(w, `{"error":"injected transient error"}`, http.StatusServiceUnavailable)
		case actLatency:
			sleepCtx(r.Context(), d)
			next.ServeHTTP(w, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// --- HTTP client side ----------------------------------------------------

// transport injects faults below an http.RoundTripper.
type transport struct {
	in   *Injector
	next http.RoundTripper
}

// Transport wraps next (nil means http.DefaultTransport) with the
// injector's fault profile on the client side: drops and errors surface as
// request errors wrapping ErrInjected — indistinguishable from a severed
// connection as far as retry logic is concerned — and latency spikes delay
// the round trip, honoring the request context.
func (in *Injector) Transport(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &transport{in: in, next: next}
}

func (t *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	switch act, d := t.in.decide(); act {
	case actDrop:
		return nil, fmt.Errorf("faults: response dropped: %w", ErrInjected)
	case actError:
		return nil, fmt.Errorf("faults: transient network error: %w", ErrInjected)
	case actLatency:
		sleepCtx(r.Context(), d)
		if err := r.Context().Err(); err != nil {
			return nil, err
		}
	}
	return t.next.RoundTrip(r)
}

// --- index side ----------------------------------------------------------

// faultyIndex injects latency spikes into index queries. Index methods
// return no errors by contract, so drop and error probabilities translate
// to latency here too: any fault decision becomes a stall, modeling slow
// storage (page faults, cold caches) under the materialization scan.
type faultyIndex struct {
	index.Index
	in *Injector
}

// Index wraps ix with the injector's profile. Results are bit-identical to
// the wrapped index — only timing changes. A nil ix returns nil.
func (in *Injector) Index(ix index.Index) index.Index {
	if ix == nil {
		return nil
	}
	return &faultyIndex{Index: ix, in: in}
}

func (f *faultyIndex) stall() {
	act, d := f.in.decide()
	if act == actNone {
		return
	}
	if d <= 0 {
		d = f.in.cfg.Latency
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// NewCursor returns a cursor whose queries pass through the fault profile.
func (f *faultyIndex) NewCursor() index.Cursor {
	return &faultyCursor{f: f, cur: f.Index.NewCursor()}
}

type faultyCursor struct {
	f   *faultyIndex
	cur index.Cursor
}

func (fc *faultyCursor) Index() index.Index { return fc.f }

func (fc *faultyCursor) KNNInto(dst []index.Neighbor, q geom.Point, k int, exclude int) []index.Neighbor {
	fc.f.stall()
	return fc.cur.KNNInto(dst, q, k, exclude)
}

func (fc *faultyCursor) RangeInto(dst []index.Neighbor, q geom.Point, r float64, exclude int) []index.Neighbor {
	fc.f.stall()
	return fc.cur.RangeInto(dst, q, r, exclude)
}
