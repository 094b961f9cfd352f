package faults

import (
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"lof/internal/geom"
	"lof/internal/index/linear"
)

// TestDeterministicSchedule: two injectors with the same seed make the
// same decisions in the same order; a different seed diverges.
func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 7, DropProb: 0.1, ErrorProb: 0.2, LatencyProb: 0.3, Latency: time.Millisecond}
	a, b := New(cfg), New(cfg)
	var seqA, seqB []action
	for i := 0; i < 200; i++ {
		actA, _ := a.decide()
		actB, _ := b.decide()
		seqA = append(seqA, actA)
		seqB = append(seqB, actB)
	}
	if !reflect.DeepEqual(seqA, seqB) {
		t.Fatal("same seed produced different fault schedules")
	}
	cfg.Seed = 8
	c := New(cfg)
	var seqC []action
	for i := 0; i < 200; i++ {
		act, _ := c.decide()
		seqC = append(seqC, act)
	}
	if reflect.DeepEqual(seqA, seqC) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestFaultRates: observed fault frequencies track the configured
// probabilities, and the priority ordering keeps them mutually exclusive.
func TestFaultRates(t *testing.T) {
	in := New(Config{Seed: 42, DropProb: 0.1, ErrorProb: 0.2, LatencyProb: 0.25, Latency: time.Nanosecond})
	const n = 20000
	for i := 0; i < n; i++ {
		in.decide()
	}
	st := in.Stats()
	within := func(name string, got int64, want float64) {
		t.Helper()
		frac := float64(got) / n
		if frac < want*0.8 || frac > want*1.2 {
			t.Errorf("%s rate %.3f, want ≈%.3f", name, frac, want)
		}
	}
	within("drop", st.Drops, 0.1)
	// Error fires only when drop did not: P = (1-0.1)*0.2 is wrong — the
	// draws are independent uniforms, so P(error) = P(u1 ≥ .1, u2 < .2).
	within("error", st.Errors, 0.9*0.2)
	within("latency", st.Latencies, 0.9*0.8*0.25)
}

// TestMiddleware: injected errors answer 503 with the configured
// Retry-After; drops sever the connection; clean requests pass through.
func TestMiddleware(t *testing.T) {
	okBody := "ok\n"
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, okBody)
	})
	in := New(Config{Seed: 3, DropProb: 0.2, ErrorProb: 0.2, RetryAfter: 2 * time.Second})
	srv := httptest.NewServer(in.Middleware(next))
	defer srv.Close()

	var ok, errs, drops int
	for i := 0; i < 100; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			drops++
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			errs++
			if got := resp.Header.Get("Retry-After"); got != "2" {
				t.Errorf("injected 503 Retry-After = %q, want \"2\"", got)
			}
		default:
			t.Errorf("unexpected status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if ok == 0 || errs == 0 || drops == 0 {
		t.Fatalf("expected a mix of outcomes, got ok=%d errors=%d drops=%d", ok, errs, drops)
	}
	st := in.Stats()
	if int(st.Drops) != drops || int(st.Errors) != errs {
		t.Errorf("stats {drops=%d errors=%d} disagree with observations {%d %d}",
			st.Drops, st.Errors, drops, errs)
	}
}

// TestTransport: client-side faults surface as errors wrapping ErrInjected
// and never reach the underlying transport.
func TestTransport(t *testing.T) {
	var served int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
	}))
	defer srv.Close()

	in := New(Config{Seed: 11, DropProb: 0.3, ErrorProb: 0.3})
	client := &http.Client{Transport: in.Transport(nil)}
	var failed int
	for i := 0; i < 60; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("transport error does not wrap ErrInjected: %v", err)
			}
			failed++
			continue
		}
		resp.Body.Close()
	}
	st := in.Stats()
	if int64(failed) != st.Drops+st.Errors {
		t.Errorf("%d failed requests, stats say %d", failed, st.Drops+st.Errors)
	}
	if served+failed != 60 {
		t.Errorf("server saw %d requests, %d failed client-side; want them to partition 60", served, failed)
	}
	if failed == 0 {
		t.Fatal("no faults fired at 60% combined probability over 60 requests")
	}
}

// TestIndexWrapperTransparent: the faulty index returns bit-identical
// results to the wrapped index — only timing differs.
func TestIndexWrapperTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]geom.Point, 200)
	for i := range data {
		data[i] = geom.Point{rng.NormFloat64(), rng.NormFloat64()}
	}
	pts, err := geom.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	base := linear.New(pts, geom.Euclidean{})
	in := New(Config{Seed: 5, DropProb: 0.2, ErrorProb: 0.2, LatencyProb: 0.5, Latency: time.Microsecond})
	wrapped := in.Index(base)
	if wrapped.Len() != base.Len() {
		t.Fatalf("Len() = %d, want %d", wrapped.Len(), base.Len())
	}
	for i := 0; i < 20; i++ {
		q := geom.Point{rng.NormFloat64(), rng.NormFloat64()}
		if got, want := wrapped.NewCursor().KNNInto(nil, q, 5, -1), base.NewCursor().KNNInto(nil, q, 5, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("KNN mismatch under fault injection: %v vs %v", got, want)
		}
		if got, want := wrapped.NewCursor().RangeInto(nil, q, 0.5, -1), base.NewCursor().RangeInto(nil, q, 0.5, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("Range mismatch under fault injection: %v vs %v", got, want)
		}
	}
	if in.Stats() == (Stats{}) {
		t.Error("no faults recorded across 40 probed queries at high probabilities")
	}
}
