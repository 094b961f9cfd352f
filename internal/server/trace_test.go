package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lof/internal/trace"
)

// TestScoreTraceSpansAndExemplar drives a traced score request through the
// full middleware stack and asserts the span tree: the request span
// continues the inbound traceparent, per-phase work shows up as attributes,
// the trace is retrievable over /v1/debug/traces, and /metrics links the
// route's slowest request to the trace ID.
func TestScoreTraceSpansAndExemplar(t *testing.T) {
	col := trace.NewCollector(trace.Config{Service: "lofserve", Sample: 1})
	srv := New(Config{Trace: col})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	rng := rand.New(rand.NewSource(29))
	resp, body := postJSON(t, client, ts.URL+"/v1/fit", FitRequest{
		Config: FitConfig{MinPtsLB: 3, MinPtsUB: 6},
		Data:   testData(rng, 60),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit: status %d body %s", resp.StatusCode, body)
	}

	root := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
	b, _ := json.Marshal(map[string]interface{}{"queries": [][]float64{{0, 0}, {10, 10}, {5, 5}}})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/score", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, trace.Format(root))
	sresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("score: status %d", sresp.StatusCode)
	}

	rootID := root.TraceID.String()
	spans := col.Spans(trace.Query{TraceID: rootID})
	var reqSpan *trace.Recorded
	for i := range spans {
		if spans[i].Name == "http /v1/score" {
			reqSpan = &spans[i]
		}
	}
	if reqSpan == nil {
		t.Fatalf("no request span recorded for trace %s (have %d spans)", rootID, len(spans))
	}
	if reqSpan.ParentID != root.SpanID.String() {
		t.Fatalf("request span parent %s, want the inbound traceparent's span %s", reqSpan.ParentID, root.SpanID)
	}
	if reqSpan.Attrs["route"] != "/v1/score" || reqSpan.Attrs["status"] != "200" {
		t.Fatalf("request span attrs %v", reqSpan.Attrs)
	}
	// Per-phase work is visible as attributes of the request span.
	for _, key := range []string{"phase/score.busy_us", "phase/score/knn.busy_us", "phase/score/merge.busy_us", "phase/score/eval.busy_us"} {
		if _, ok := reqSpan.Attrs[key]; !ok {
			t.Fatalf("request span lacks %s; per-phase work is invisible in the trace (attrs %v)", key, reqSpan.Attrs)
		}
	}
	if got := reqSpan.Attrs["phase/score.count"]; got != "3" {
		t.Fatalf("phase/score.count = %q, want one per query (3)", got)
	}
	if len(spans) != 1 {
		t.Fatalf("score recorded %d spans, want only the request span", len(spans))
	}
	if v, ok := reqSpan.Attrs["certified"]; ok {
		t.Fatalf("exact request span carries certified=%s", v)
	}

	// The trace is retrievable over the debug endpoint.
	var dbg struct {
		Traces []struct {
			TraceID string `json:"traceId"`
		} `json:"traces"`
	}
	if resp := getJSON(t, client, ts.URL+"/v1/debug/traces?trace="+rootID, &dbg); resp.StatusCode != http.StatusOK {
		t.Fatalf("debug traces: status %d", resp.StatusCode)
	}
	if len(dbg.Traces) != 1 || dbg.Traces[0].TraceID != rootID {
		t.Fatalf("debug endpoint returned %+v, want the root trace", dbg)
	}

	// /metrics carries the exemplar gauge linking the slowest /v1/score
	// request to this trace, plus the collector counters.
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mbody)
	exemplar := `lof_http_slowest_request_seconds{route="/v1/score",trace_id="` + rootID + `"}`
	if !strings.Contains(metrics, exemplar) {
		t.Fatalf("metrics missing exemplar series %s", exemplar)
	}
	for _, fam := range []string{"lof_trace_spans_total", "lof_trace_recorded_total", "lof_trace_dropped_total"} {
		if !strings.Contains(metrics, fam) {
			t.Fatalf("metrics missing %s", fam)
		}
	}

	// A pruned request's span carries how many queries the certificate
	// answered, the count the response reports.
	pruned := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/score?mode=pruned", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, trace.Format(pruned))
	presp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Certified int `json:"certified"`
	}
	if err := json.Unmarshal([]byte(readBody(t, presp)), &out); err != nil || presp.StatusCode != http.StatusOK {
		t.Fatalf("pruned score: status %d, %v", presp.StatusCode, err)
	}
	if out.Certified == 0 {
		t.Fatal("no query certified; the attribute check would be vacuous")
	}
	pspans := col.Spans(trace.Query{TraceID: pruned.TraceID.String()})
	if len(pspans) != 1 || pspans[0].Attrs["certified"] != strconv.Itoa(out.Certified) {
		t.Fatalf("pruned request spans %+v, want one request span with certified=%d", pspans, out.Certified)
	}
}

// requireNested fails the test unless every recorded span whose parent was
// recorded by the same collector lies inside the parent's interval. The
// 1µs slack absorbs the float round trip of DurationMS.
func requireNested(t *testing.T, spans []trace.Recorded) {
	t.Helper()
	const slack = time.Microsecond
	end := func(s trace.Recorded) time.Time {
		return s.Start.Add(time.Duration(s.DurationMS * float64(time.Millisecond)))
	}
	byID := make(map[string]trace.Recorded, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.ParentID]
		if !ok {
			continue
		}
		if s.Start.Before(p.Start.Add(-slack)) || end(s).After(end(p).Add(slack)) {
			t.Errorf("span %q [%v, %v] lies outside its parent %q [%v, %v]",
				s.Name, s.Start.Sub(p.Start), end(s).Sub(p.Start), p.Name, time.Duration(0), end(p).Sub(p.Start))
		}
	}
}

// TestTraceSpansNestInsideParents records a traced 256-query score over
// four workers, a stream push, and a stream freeze (successful and
// refused), and requires every span to lie inside its parent.
func TestTraceSpansNestInsideParents(t *testing.T) {
	col := trace.NewCollector(trace.Config{Service: "lofserve", Sample: 1})
	srv := New(Config{Trace: col, MaxBatch: 1024})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	rng := rand.New(rand.NewSource(31))

	post := func(path string, body interface{}, want int) {
		t.Helper()
		if resp, b := postJSON(t, client, ts.URL+path, body); resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d; body %s", path, resp.StatusCode, want, b)
		}
	}
	post("/v1/fit", FitRequest{Config: FitConfig{MinPtsLB: 3, MinPtsUB: 8}, Data: testData(rng, 300)}, http.StatusOK)
	post("/v1/score", map[string]interface{}{"queries": testData(rng, 256), "workers": 4}, http.StatusOK)
	post("/v1/stream/init", map[string]interface{}{"config": map[string]interface{}{"dim": 2, "minPts": 4}}, http.StatusOK)
	post("/v1/stream/freeze", struct{}{}, http.StatusConflict) // window too small
	post("/v1/stream", map[string]interface{}{"inserts": testData(rng, 40)}, http.StatusOK)
	post("/v1/stream/freeze", struct{}{}, http.StatusOK)

	spans := col.Spans(trace.Query{})
	requireNested(t, spans)
	var push *trace.Recorded
	freezes, refused := 0, 0
	for i, s := range spans {
		switch s.Name {
		case "http /v1/stream":
			push = &spans[i]
		case "stream/freeze":
			freezes++
			if s.Error != "" {
				refused++
			}
		}
	}
	if push == nil || push.Attrs["stream/apply_us"] == "" || push.Attrs["stream/replay_us"] == "" {
		t.Fatalf("push span missing stage attributes: %+v", push)
	}
	if freezes != 2 || refused != 1 {
		t.Fatalf("recorded %d stream/freeze spans (%d with an error), want 2 (1)", freezes, refused)
	}
}

// TestDebugTracesDisabled asserts the endpoint exists but reports tracing
// off when no collector is configured, rather than 404-ing at the mux.
func TestDebugTracesDisabled(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("debug traces without collector: status %d, want 404", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "tracing disabled") {
		t.Fatalf("error %q, want a tracing-disabled hint", e.Error)
	}
}

// TestStreamAgeExpiryFakeClock pins the server clock with Config.Now and
// walks it forward past the window's age bound — no sleeps, no wall-clock
// dependence. The first batch is pushed without an explicit timestamp, so
// expiry genuinely exercises the server-clock path, not the
// nowUnixNanos override.
func TestStreamAgeExpiryFakeClock(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	srv := New(Config{Now: clock})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	resp, body := postJSON(t, client, ts.URL+"/v1/stream/init", map[string]interface{}{
		"config": map[string]interface{}{"dim": 1, "minPts": 2, "maxAgeMillis": 1000},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("init: status %d body %s", resp.StatusCode, body)
	}

	rng := rand.New(rand.NewSource(17))
	push := func() struct {
		Inserted []uint64 `json:"inserted"`
		Expired  []uint64 `json:"expired"`
		Live     int      `json:"live"`
	} {
		t.Helper()
		inserts := make([][]float64, 6)
		for i := range inserts {
			inserts[i] = []float64{rng.NormFloat64()}
		}
		resp, body := postJSON(t, client, ts.URL+"/v1/stream", map[string]interface{}{
			"inserts": inserts,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push: status %d body %s", resp.StatusCode, body)
		}
		var out struct {
			Inserted []uint64 `json:"inserted"`
			Expired  []uint64 `json:"expired"`
			Live     int      `json:"live"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	first := push()
	if len(first.Expired) != 0 || first.Live != 6 {
		t.Fatalf("first push: %+v, want 6 live and nothing expired", first)
	}

	// Within the age bound nothing expires.
	advance(500 * time.Millisecond)
	second := push()
	if len(second.Expired) != 0 || second.Live != 12 {
		t.Fatalf("second push: %+v, want 12 live and nothing expired", second)
	}

	// Past the bound, exactly the first batch ages out: the second batch
	// (500ms old) is still inside the 1s window.
	advance(700 * time.Millisecond)
	third := push()
	expired := map[uint64]bool{}
	for _, id := range third.Expired {
		expired[id] = true
	}
	if len(expired) != len(first.Inserted) {
		t.Fatalf("third push expired %v, want exactly the first batch %v", third.Expired, first.Inserted)
	}
	for _, id := range first.Inserted {
		if !expired[id] {
			t.Fatalf("first-batch id %d survived past the age bound (expired: %v)", id, third.Expired)
		}
	}
	if third.Live != 12 {
		t.Fatalf("third push live=%d, want 12 (second batch + new batch)", third.Live)
	}
}
