package front_test

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"lof"
	"lof/internal/coord"
	"lof/internal/front"
	"lof/internal/server"
	"lof/internal/shard"
	"lof/internal/trace"
)

// tier is one server behind the shared front end, as the contract battery
// sees it: an instance without a model, an instance serving the fixture
// model with a batch limit of 4 queries, the prefix of its route metric
// families, and the collector recording the fitted instance's spans.
type tier struct {
	name   string
	prefix string
	empty  http.Handler
	fitted http.Handler
	traces *trace.Collector
}

// fixtureModel fits eight exact duplicates at the origin and a cluster
// around (10, 10). A query near the duplicates has neighbors of infinite
// local reachability density, so its LOF is +Inf.
func fixtureModel(t *testing.T) *lof.Model {
	t.Helper()
	var data [][]float64
	for i := 0; i < 8; i++ {
		data = append(data, []float64{0, 0})
	}
	for i := 0; i < 30; i++ {
		data = append(data, []float64{10 + float64(i%6)/3, 10 + float64(i%5)/4})
	}
	det, err := lof.New(lof.Config{MinPtsLB: 3, MinPtsUB: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tiers builds lofserve and a two-shard lofcoord, whose shards carry the
// batch limit, around the same fixture model.
func tiers(t *testing.T) []tier {
	m := fixtureModel(t)
	serveCol := trace.NewCollector(trace.Config{Service: "lofserve", Sample: 1})
	fitted := server.New(server.Config{MaxBatch: 4, Trace: serveCol})
	fitted.SetModel(m)

	newCoord := func(col *trace.Collector) *coord.Coordinator {
		targets := make([][]string, 2)
		for s := range targets {
			ts := httptest.NewServer(server.New(server.Config{MaxBatch: 4}).Handler())
			t.Cleanup(ts.Close)
			targets[s] = []string{ts.URL}
		}
		c, err := coord.New(coord.Config{Targets: targets, Partitioner: shard.PartitionHash, Trace: col})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	coordCol := trace.NewCollector(trace.Config{Service: "lofcoord", Sample: 1})
	fittedCoord := newCoord(coordCol)
	if _, err := fittedCoord.Install(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	return []tier{
		{"lofserve", "lof_http_", server.New(server.Config{MaxBatch: 4}).Handler(), fitted.Handler(), serveCol},
		{"lofcoord", "lof_coord_http_", newCoord(nil).Handler(), fittedCoord.Handler(), coordCol},
	}
}

// TestFrontContract runs one battery over both tiers: whatever answers
// behind the front end, the request path behaves the same.
func TestFrontContract(t *testing.T) {
	for _, tr := range tiers(t) {
		t.Run(tr.name, func(t *testing.T) { runContract(t, tr) })
	}
}

func runContract(t *testing.T, tr tier) {
	empty := httptest.NewServer(tr.empty)
	defer empty.Close()
	fitted := httptest.NewServer(tr.fitted)
	defer fitted.Close()

	t.Run("request-id", func(t *testing.T) {
		resp, _ := call(t, http.MethodGet, fitted.URL+"/v1/model", "", map[string]string{"X-Request-ID": "req-42"})
		if got := resp.Header.Get("X-Request-ID"); got != "req-42" {
			t.Errorf("inbound ID echoed as %q", got)
		}
		long := strings.Repeat("x", 129)
		resp, _ = call(t, http.MethodGet, fitted.URL+"/v1/model", "", map[string]string{"X-Request-ID": long})
		if got := resp.Header.Get("X-Request-ID"); got == "" || got == long {
			t.Errorf("oversized inbound ID answered with %q, want a fresh ID", got)
		}
		resp, _ = call(t, http.MethodGet, fitted.URL+"/v1/model", "", nil)
		if resp.Header.Get("X-Request-ID") == "" {
			t.Error("no request ID minted")
		}
	})

	t.Run("error-bodies", func(t *testing.T) {
		for _, c := range []struct {
			url, method, body string
			status            int
		}{
			{fitted.URL + "/v1/score", http.MethodPost, `{"queries":[[1,1]],"bogus":true}`, http.StatusBadRequest},
			{empty.URL + "/v1/model", http.MethodGet, "", http.StatusNotFound},
			{empty.URL + "/v1/score", http.MethodPost, `{"queries":[[1,1]]}`, http.StatusConflict},
			{fitted.URL + "/v1/score", http.MethodPost, `{"queries":[[1,1],[2,2],[3,3],[4,4],[5,5]]}`, http.StatusRequestEntityTooLarge},
		} {
			resp, raw := call(t, c.method, c.url, c.body, nil)
			if resp.StatusCode != c.status {
				t.Errorf("%s %s: status %d, want %d (body %s)", c.method, c.url, resp.StatusCode, c.status, raw)
				continue
			}
			var body struct{ Error, RequestID string }
			if err := json.Unmarshal(raw, &body); err != nil || body.Error == "" {
				t.Errorf("%d body %s is not an error envelope (%v)", c.status, raw, err)
			}
			if body.RequestID == "" || body.RequestID != resp.Header.Get("X-Request-ID") {
				t.Errorf("%d body requestId %q, header %q", c.status, body.RequestID, resp.Header.Get("X-Request-ID"))
			}
		}
	})

	t.Run("traceparent", func(t *testing.T) {
		root := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
		resp, raw := call(t, http.MethodPost, fitted.URL+"/v1/score", `{"queries":[[10,10]]}`,
			map[string]string{trace.Header: trace.Format(root)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d body %s", resp.StatusCode, raw)
		}
		for _, sp := range tr.traces.Spans(trace.Query{TraceID: root.TraceID.String()}) {
			if sp.Name == "http /v1/score" && sp.ParentID == root.SpanID.String() {
				return
			}
		}
		t.Error("no request span continues the inbound traceparent")
	})

	t.Run("non-finite", func(t *testing.T) {
		resp, raw := call(t, http.MethodPost, fitted.URL+"/v1/score", `{"queries":[[1,1],[10,10]]}`, nil)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"scores":["+Inf",`) {
			t.Fatalf("status %d body %s, want the first score as the string \"+Inf\"", resp.StatusCode, raw)
		}
	})

	t.Run("bogus-mode", func(t *testing.T) {
		resp, raw := call(t, http.MethodPost, fitted.URL+"/v1/score?mode=bogus", `{"queries":[[1,1]]}`, nil)
		var body struct{ Error string }
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		const want = `unknown mode "bogus"; valid modes are "full", "pruned", "coreset" and "degraded"`
		if resp.StatusCode != http.StatusBadRequest || body.Error != want {
			t.Errorf("status %d error %q, want 400 %q", resp.StatusCode, body.Error, want)
		}
	})

	// Scrapes read the route and mode counters while requests update them.
	t.Run("metrics-under-load", func(t *testing.T) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 20; i++ {
				resp, err := http.Post(fitted.URL+"/v1/score", "application/json", strings.NewReader(`{"queries":[[10,10]]}`))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
		defer func() { <-done }() // the loader reports through t; outlive it
		for {
			select {
			case <-done:
				return
			default:
				call(t, http.MethodGet, fitted.URL+"/metrics", "", nil)
			}
		}
	})

	t.Run("metrics", func(t *testing.T) {
		resp, raw := call(t, http.MethodGet, fitted.URL+"/metrics", "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		text := string(raw)
		line := regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf))$`)
		for _, l := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
			if !line.MatchString(l) {
				t.Errorf("unparseable metrics line %q", l)
			}
		}
		for _, want := range []string{
			"# TYPE " + tr.prefix + "requests_total counter",
			"# TYPE " + tr.prefix + "request_duration_seconds histogram",
			"# TYPE " + tr.prefix + "slowest_request_seconds gauge",
			tr.prefix + `requests_total{route="/v1/score",code="200"} `,
			tr.prefix + `slowest_request_seconds{route="/v1/score",trace_id="`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("/metrics lacks %q", want)
			}
		}
	})
}

// call issues one request and returns the response with its body read.
func call(t *testing.T, method, url, body string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestFloatJSON pins the non-finite encoding both tiers share, NaN
// included, and that decoding restores every value.
func TestFloatJSON(t *testing.T) {
	in := []float64{1.5, math.Inf(1), math.Inf(-1), math.NaN()}
	b, err := json.Marshal(front.Floats(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := `[1.5,"+Inf","-Inf","NaN"]`; string(b) != want {
		t.Fatalf("encoded %s, want %s", b, want)
	}
	var out []front.Float
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	got := front.Float64s(out)
	if got[0] != 1.5 || !math.IsInf(got[1], 1) || !math.IsInf(got[2], -1) || !math.IsNaN(got[3]) {
		t.Fatalf("decoded %v", got)
	}
	if err := json.Unmarshal([]byte(`["Infinity"]`), &out); err == nil {
		t.Fatal("unknown float string accepted")
	}
}
