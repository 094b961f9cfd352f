package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundtrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	h := Format(sc)
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("malformed header %q", h)
	}
	got, ok := Parse(h)
	if !ok || got != sc {
		t.Fatalf("roundtrip: got %+v ok=%v want %+v", got, ok, sc)
	}
	sc.Sampled = false
	got, ok = Parse(Format(sc))
	if !ok || got.Sampled {
		t.Fatalf("unsampled flag did not roundtrip: %+v ok=%v", got, ok)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	valid := Format(SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true})
	bad := []string{
		"",
		"garbage",
		valid[:54],                          // truncated
		valid + "0",                         // too long
		"01" + valid[2:],                    // unknown version
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("0", 32) + valid[35:],      // zero trace ID
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // zero span ID
		"00-" + strings.Repeat("zz", 16) + valid[35:],     // non-hex trace ID
	}
	for _, s := range bad {
		if _, ok := Parse(s); ok {
			t.Errorf("Parse(%q) accepted malformed header", s)
		}
	}
}

func TestHeadSamplingDeterministic(t *testing.T) {
	c := NewCollector(Config{Sample: 0.5})
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		tid := NewTraceID()
		first := c.sampled(tid)
		if first != c.sampled(tid) {
			t.Fatal("sampling decision not deterministic for the same trace ID")
		}
		if first {
			hits++
		}
	}
	// 0.5 ± generous slack; the decision is uniform over 53 bits.
	if hits < n/3 || hits > 2*n/3 {
		t.Fatalf("sampled %d of %d at p=0.5, outside sanity band", hits, n)
	}
	if NewCollector(Config{Sample: 0}).sampled(NewTraceID()) {
		t.Fatal("p=0 sampled a trace")
	}
	if !NewCollector(Config{Sample: 1}).sampled(NewTraceID()) {
		t.Fatal("p=1 dropped a trace")
	}
}

func TestStartRequestContinuesRemoteTrace(t *testing.T) {
	c := NewCollector(Config{Service: "test", Sample: 0})
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	sp, ctx := c.StartRequest(context.Background(), "http /v1/score", Format(remote))
	if sp == nil {
		t.Fatal("no span from StartRequest")
	}
	if sp.Context().TraceID != remote.TraceID {
		t.Fatal("remote trace ID not continued")
	}
	if !sp.Context().Sampled {
		t.Fatal("remote sampled flag not honored")
	}
	if SpanFrom(ctx) != sp {
		t.Fatal("returned context does not carry the span")
	}
	child, cctx := StartSpan(ctx, "child")
	if child == nil || child.Context().TraceID != remote.TraceID {
		t.Fatal("child did not inherit the trace")
	}
	child.End()
	sp.End()
	recs := c.Spans(Query{TraceID: remote.TraceID.String()})
	if len(recs) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(recs))
	}
	byName := map[string]Recorded{}
	for _, r := range recs {
		if r.Service != "test" {
			t.Fatalf("span service %q, want test", r.Service)
		}
		byName[r.Name] = r
	}
	if got := byName["http /v1/score"].ParentID; got != remote.SpanID.String() {
		t.Fatalf("request span parent %q, want remote span %q", got, remote.SpanID)
	}
	if byName["child"].ParentID != byName["http /v1/score"].SpanID {
		t.Fatal("child span not parented to the request span")
	}
	_ = cctx
}

func TestStartRequestFreshTraceOnBadHeader(t *testing.T) {
	c := NewCollector(Config{Sample: 1})
	sp, _ := c.StartRequest(context.Background(), "req", "not-a-traceparent")
	if sp == nil || sp.Context().TraceID.IsZero() {
		t.Fatal("bad header should root a fresh trace")
	}
	if !sp.Context().Sampled {
		t.Fatal("p=1 root not sampled")
	}
}

func TestTailCaptureErrorAndSlow(t *testing.T) {
	c := NewCollector(Config{Sample: 0, SlowThreshold: 10 * time.Millisecond})
	tid := NewTraceID()

	fast := c.newSpan("fast", tid, SpanID{}, false)
	fast.EndIn(time.Millisecond)
	failed := c.newSpan("failed", tid, SpanID{}, false)
	failed.SetError("boom")
	failed.EndIn(time.Millisecond)
	slow := c.newSpan("slow", tid, SpanID{}, false)
	slow.EndIn(50 * time.Millisecond)

	recs := c.Spans(Query{})
	if len(recs) != 2 {
		t.Fatalf("recorded %d spans, want error+slow only", len(recs))
	}
	names := map[string]bool{}
	for _, r := range recs {
		names[r.Name] = true
	}
	if !names["failed"] || !names["slow"] {
		t.Fatalf("recorded %v, want failed and slow", names)
	}
	if got := c.Spans(Query{ErrorOnly: true}); len(got) != 1 || got[0].Error != "boom" {
		t.Fatalf("ErrorOnly query got %v", got)
	}
	if got := c.Spans(Query{MinDuration: 20 * time.Millisecond}); len(got) != 1 || got[0].Name != "slow" {
		t.Fatalf("MinDuration query got %v", got)
	}
}

func TestSpanEndIdempotentAndAttrs(t *testing.T) {
	c := NewCollector(Config{Sample: 1})
	sp := c.newSpan("op", NewTraceID(), SpanID{}, true)
	sp.SetAttr("route", "/v1/score")
	sp.SetAttrInt("batch", 42)
	sp.SetAttrInt("neg", -7)
	sp.SetAttrInt("min", math.MinInt64)
	sp.EndIn(time.Millisecond)
	sp.End() // second end must not double-record
	sp.SetAttr("late", "ignored")
	recs := c.Spans(Query{})
	if len(recs) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(recs))
	}
	a := recs[0].Attrs
	if a["route"] != "/v1/score" || a["batch"] != "42" || a["neg"] != "-7" || a["min"] != "-9223372036854775808" {
		t.Fatalf("attrs %v", a)
	}
	if _, ok := a["late"]; ok {
		t.Fatal("attr set after End was recorded")
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	sp, ctx := c.StartRequest(context.Background(), "req", "")
	if sp != nil {
		t.Fatal("nil collector produced a span")
	}
	if got, _ := StartSpan(ctx, "child"); got != nil {
		t.Fatal("StartSpan without a parent produced a span")
	}
	// Every method must tolerate a nil receiver.
	sp.SetAttr("k", "v")
	sp.SetAttrInt("k", 1)
	sp.SetError("e")
	sp.End()
	sp.EndIn(time.Second)
	if sp.Child("c") != nil {
		t.Fatal("nil span produced a child")
	}
	if sp.TraceIDString() != "" {
		t.Fatal("nil span has a trace ID")
	}
	if !sp.Context().TraceID.IsZero() {
		t.Fatal("nil span has a span context")
	}
	if c.Spans(Query{}) != nil {
		t.Fatal("nil collector returned spans")
	}
	if c.Stats() != (CollectorStats{}) {
		t.Fatal("nil collector has stats")
	}
}

func TestRingEviction(t *testing.T) {
	c := NewCollector(Config{Sample: 1, Capacity: 4})
	tid := NewTraceID()
	for i := 0; i < 10; i++ {
		sp := c.newSpan(fmt.Sprintf("op%d", i), tid, SpanID{}, true)
		sp.EndIn(time.Millisecond)
	}
	recs := c.Spans(Query{})
	if len(recs) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(recs))
	}
	// Oldest first: the survivors are ops 6..9 in order.
	for i, r := range recs {
		if want := fmt.Sprintf("op%d", 6+i); r.Name != want {
			t.Fatalf("slot %d is %q, want %q", i, r.Name, want)
		}
	}
	st := c.Stats()
	if st.Started != 10 || st.Recorded != 10 || st.Dropped != 6 {
		t.Fatalf("stats %+v, want started=10 recorded=10 dropped=6", st)
	}
}

// TestConcurrentWritesAndReads exercises the collector under -race:
// writers ending spans while readers drain Spans and the debug handler.
func TestConcurrentWritesAndReads(t *testing.T) {
	c := NewCollector(Config{Sample: 1, Capacity: 64})
	h := DebugHandler(c)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := NewTraceID()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sp := c.newSpan("op", tid, SpanID{}, true)
				sp.SetAttrInt("i", int64(i))
				if i%3 == 0 {
					sp.SetError("synthetic")
				}
				sp.EndIn(time.Duration(i%5) * time.Millisecond)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Spans(Query{ErrorOnly: i%2 == 0})
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/traces", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("debug handler status %d", rec.Code)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestDebugHandler(t *testing.T) {
	c := NewCollector(Config{Service: "lofserve", Sample: 1})
	t1, t2 := NewTraceID(), NewTraceID()
	for i, tid := range []TraceID{t1, t1, t2} {
		sp := c.newSpan(fmt.Sprintf("op%d", i), tid, SpanID{}, true)
		if i == 2 {
			sp.SetError("bad")
		}
		sp.EndIn(time.Duration(i+1) * 10 * time.Millisecond)
	}
	get := func(url string) (int, debugResponse) {
		rec := httptest.NewRecorder()
		DebugHandler(c).ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var resp debugResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("bad JSON from %s: %v", url, err)
			}
		}
		return rec.Code, resp
	}

	code, resp := get("/v1/debug/traces")
	if code != http.StatusOK || len(resp.Traces) != 2 {
		t.Fatalf("status %d traces %d, want 200/2", code, len(resp.Traces))
	}
	if resp.Service != "lofserve" || resp.Stats.Recorded != 3 {
		t.Fatalf("envelope %+v", resp)
	}
	// Newest trace (t2's lone span started last) first.
	if resp.Traces[0].TraceID != t2.String() {
		t.Fatalf("trace order: got %s first, want %s", resp.Traces[0].TraceID, t2)
	}
	if len(resp.Traces[1].Spans) != 2 {
		t.Fatalf("t1 has %d spans, want 2", len(resp.Traces[1].Spans))
	}

	if code, resp = get("/v1/debug/traces?trace=" + t1.String()); code != 200 ||
		len(resp.Traces) != 1 || resp.Traces[0].TraceID != t1.String() {
		t.Fatalf("trace filter: %d %+v", code, resp.Traces)
	}
	if code, resp = get("/v1/debug/traces?error=1"); code != 200 ||
		len(resp.Traces) != 1 || resp.Traces[0].Spans[0].Error != "bad" {
		t.Fatalf("error filter: %d %+v", code, resp.Traces)
	}
	if code, resp = get("/v1/debug/traces?min_ms=25"); code != 200 || len(resp.Traces) != 1 {
		t.Fatalf("min_ms filter: %d %+v", code, resp.Traces)
	}
	if code, resp = get("/v1/debug/traces?limit=1"); code != 200 || len(resp.Traces) != 1 {
		t.Fatalf("limit: %d %+v", code, resp.Traces)
	}
	if code, _ = get("/v1/debug/traces?min_ms=nope"); code != http.StatusBadRequest {
		t.Fatalf("bad min_ms accepted: %d", code)
	}
	if code, _ = get("/v1/debug/traces?limit=0"); code != http.StatusBadRequest {
		t.Fatalf("bad limit accepted: %d", code)
	}

	rec := httptest.NewRecorder()
	DebugHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/traces", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil collector status %d, want 404", rec.Code)
	}
}

func TestInjectAndRequestID(t *testing.T) {
	ctx := context.Background()
	h := http.Header{}
	Inject(ctx, h)
	if len(h) != 0 {
		t.Fatalf("Inject on empty context set headers: %v", h)
	}

	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	ctx = ContextWithRemote(ctx, sc)
	ctx = ContextWithRequestID(ctx, "req-abc")
	Inject(ctx, h)
	if got, ok := Parse(h.Get(Header)); !ok || got != sc {
		t.Fatalf("injected traceparent %q does not roundtrip to %+v", h.Get(Header), sc)
	}
	if h.Get(RequestIDHeader) != "req-abc" {
		t.Fatalf("request ID header %q", h.Get(RequestIDHeader))
	}

	// A local span takes precedence over the remote context.
	c := NewCollector(Config{Sample: 1})
	sp := c.newSpan("op", NewTraceID(), SpanID{}, true)
	sctx := ContextWithSpan(ctx, sp)
	h2 := http.Header{}
	Inject(sctx, h2)
	if got, _ := Parse(h2.Get(Header)); got.TraceID != sp.Context().TraceID {
		t.Fatal("local span did not win over remote context")
	}

	r := httptest.NewRequest("GET", "/", nil)
	r.Header.Set(RequestIDHeader, "inbound-id")
	if got := IncomingRequestID(r); got != "inbound-id" {
		t.Fatalf("IncomingRequestID %q, want inbound-id", got)
	}
	r.Header.Set(RequestIDHeader, strings.Repeat("x", 129))
	if got := IncomingRequestID(r); len(got) != 16 {
		t.Fatalf("oversized inbound ID not replaced with a fresh one: %q", got)
	}
	if id := NewRequestID(); len(id) != 16 {
		t.Fatalf("NewRequestID %q", id)
	}
}
