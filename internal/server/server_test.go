package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lof"
	"lof/internal/front"
)

// testData builds a two-cluster dataset suitable for MinPts ranges ≤ 6.
func testData(rng *rand.Rand, n int) [][]float64 {
	data := make([][]float64, n)
	for i := range data {
		if i < n/2 {
			data[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		} else {
			data[i] = []float64{10 + 0.3*rng.NormFloat64(), 10 + 0.3*rng.NormFloat64()}
		}
	}
	return data
}

func postJSON(t *testing.T, client *http.Client, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, client *http.Client, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

// TestEndToEnd drives the full API surface over HTTP: fit, model info,
// score, health, and metrics advancement.
func TestEndToEnd(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Health before any model.
	var health struct {
		Status string `json:"status"`
		Model  bool   `json:"model"`
	}
	if resp := getJSON(t, client, ts.URL+"/healthz", &health); resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Model {
		t.Fatalf("healthz = %+v", health)
	}

	// Scoring without a model must 409.
	resp, body := postJSON(t, client, ts.URL+"/v1/score", map[string]interface{}{"queries": [][]float64{{1, 2}}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("score without model: status %d body %s", resp.StatusCode, body)
	}

	// Fit.
	rng := rand.New(rand.NewSource(21))
	data := testData(rng, 60)
	resp, body = postJSON(t, client, ts.URL+"/v1/fit", FitRequest{
		Config: FitConfig{MinPtsLB: 3, MinPtsUB: 6},
		Data:   data,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("fit: status %d body %s", resp.StatusCode, body)
	}
	var fitResp fitResponse
	if err := json.Unmarshal(body, &fitResp); err != nil {
		t.Fatal(err)
	}
	if fitResp.Objects != 60 || fitResp.Dims != 2 || fitResp.MinPtsLB != 3 || fitResp.MinPtsUB != 6 {
		t.Fatalf("fit response %+v", fitResp)
	}

	// Model info.
	var info modelInfo
	if resp := getJSON(t, client, ts.URL+"/v1/model", &info); resp.StatusCode != 200 {
		t.Fatalf("model info status %d", resp.StatusCode)
	}
	if info.Objects != 60 {
		t.Fatalf("model info %+v", info)
	}

	// Score: the served values must match the library exactly.
	queries := [][]float64{{0, 0}, {10, 10}, {5, 5}}
	resp, body = postJSON(t, client, ts.URL+"/v1/score", front.ScoreRequest{Queries: queries})
	if resp.StatusCode != 200 {
		t.Fatalf("score: status %d body %s", resp.StatusCode, body)
	}
	var sr struct {
		Scores []float64 `json:"scores"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	det, err := lof.New(lof.Config{MinPtsLB: 3, MinPtsUB: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Fit(data); err != nil {
		t.Fatal(err)
	}
	want, err := det.ScoreBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Scores) != len(want) {
		t.Fatalf("got %d scores, want %d", len(sr.Scores), len(want))
	}
	for i := range want {
		if diff := sr.Scores[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("score %d: served %v, library %v", i, sr.Scores[i], want[i])
		}
	}
	if sr.Scores[2] < sr.Scores[0] || sr.Scores[2] < sr.Scores[1] {
		t.Errorf("between-cluster point should be the most outlying: %v", sr.Scores)
	}

	// Metrics must have advanced.
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	counters, _ := parsePromText(t, readBody(t, mresp))
	for key, want := range map[string]int64{
		`lof_http_requests_total{route="/v1/fit",code="200"}`:   1,
		`lof_http_requests_total{route="/v1/score",code="200"}`: 1,
		`lof_http_requests_total{route="/v1/score",code="409"}`: 1,
		"lof_score_points_total":                                3,
		"lof_fit_points_total":                                  60,
		"lof_http_in_flight":                                    0,
	} {
		if got := counters[key]; got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}

	// Validation errors surface as 400 with a descriptive message.
	resp, body = postJSON(t, client, ts.URL+"/v1/score", front.ScoreRequest{Queries: [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "dimensions") {
		t.Errorf("dimension mismatch: status %d body %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, client, ts.URL+"/v1/fit", map[string]interface{}{"bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d body %s", resp.StatusCode, body)
	}
}

// TestSheddingAndDrain pins the two load-control behaviours: with
// MaxInFlight=1 a second concurrent request is shed with 429, and
// http.Server.Shutdown waits for the in-flight request to finish (graceful
// drain).
func TestSheddingAndDrain(t *testing.T) {
	srv := New(Config{MaxInFlight: 1})
	rng := rand.New(rand.NewSource(33))
	det, err := lof.New(lof.Config{MinPtsLB: 3, MinPtsUB: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(testData(rng, 40))
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatal(err)
	}
	srv.SetModel(m)

	entered := make(chan struct{})
	release := make(chan struct{})
	testHookScoreStart = func() {
		entered <- struct{}{}
		<-release
	}
	defer func() { testHookScoreStart = nil }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	// First request occupies the only slot.
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/score", "application/json",
			strings.NewReader(`{"queries":[[0,0]]}`))
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-entered

	// Second request is shed immediately with 429.
	resp, err := http.Post(base+"/v1/score", "application/json",
		strings.NewReader(`{"queries":[[0,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}

	// Shutdown must block until the in-flight request drains.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was still in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if status := <-firstDone; status != 200 {
		t.Fatalf("in-flight request finished with status %d", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestScoreConcurrentWithHandlers hammers direct ScoreBatch calls and
// HTTP score/fit handlers at the same time; run under -race this verifies
// the atomic model handoff end to end.
func TestScoreConcurrentWithHandlers(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	rng := rand.New(rand.NewSource(55))
	data := testData(rng, 50)
	det, err := lof.New(lof.Config{MinPtsLB: 3, MinPtsUB: 6, Workers: 2})
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
	srv.SetModel(m)

	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = []float64{rng.Float64() * 12, rng.Float64() * 12}
	}
	body, err := json.Marshal(front.ScoreRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	fitBody, err := json.Marshal(FitRequest{Config: FitConfig{MinPtsLB: 3, MinPtsUB: 6}, Data: data})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := det.ScoreBatch(queries); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := client.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("score status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			resp, err := client.Post(ts.URL+"/v1/fit", "application/json", bytes.NewReader(fitBody))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("fit status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
}

// TestJSONFloat pins the non-finite score encoding.
func TestJSONFloat(t *testing.T) {
	b, err := json.Marshal(front.ScoreResponse{Scores: front.Floats([]float64{1.5, infPos(), infNeg()})})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"scores":[1.5,"+Inf","-Inf"]}`
	if string(b) != want {
		t.Errorf("encoded %s, want %s", b, want)
	}
}

func infPos() float64 { return 1 / zero() }
func infNeg() float64 { return -1 / zero() }
func zero() float64   { return 0 }

// BenchmarkScoreHandler measures the full serving path (JSON decode,
// chunked batch scoring, JSON encode) through the handler without network
// overhead, for several batch sizes.
func BenchmarkScoreHandler(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	det, err := lof.New(lof.Config{MinPtsLB: 10, MinPtsUB: 20})
	if err != nil {
		b.Fatal(err)
	}
	res, err := det.Fit(testData(rng, 2000))
	if err != nil {
		b.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			srv := New(Config{})
			srv.SetModel(m)
			h := srv.Handler()
			queries := make([][]float64, batch)
			for i := range queries {
				queries[i] = []float64{rng.Float64() * 12, rng.Float64() * 12}
			}
			body, err := json.Marshal(front.ScoreRequest{Queries: queries})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/score", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// promHistogram is the parsed form of one labeled histogram series.
type promHistogram struct {
	buckets []struct {
		le  float64
		cum int64
	}
	infCum int64
	sum    float64
	count  int64
}

// parsePromText is a minimal parser for the subset of the Prometheus text
// format the server emits; it fails the test on any line that matches
// neither a comment nor a sample.
func parsePromText(t *testing.T, text string) (counters map[string]int64, hists map[string]*promHistogram) {
	t.Helper()
	counters = make(map[string]int64)
	hists = make(map[string]*promHistogram)
	sampleRE := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	leRE := regexp.MustCompile(`le="([^"]+)"`)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		mm := sampleRE.FindStringSubmatch(line)
		if mm == nil {
			t.Fatalf("unparseable metrics line: %q", line)
		}
		name, labels, valStr := mm[1], mm[2], mm[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %q: bad value: %v", line, err)
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			series := strings.TrimSuffix(name, "_bucket") + stripLE(labels)
			h := hists[series]
			if h == nil {
				h = &promHistogram{}
				hists[series] = h
			}
			le := leRE.FindStringSubmatch(labels)
			if le == nil {
				t.Fatalf("bucket line without le label: %q", line)
			}
			if le[1] == "+Inf" {
				h.infCum = int64(val)
			} else {
				bound, err := strconv.ParseFloat(le[1], 64)
				if err != nil {
					t.Fatalf("line %q: bad le: %v", line, err)
				}
				h.buckets = append(h.buckets, struct {
					le  float64
					cum int64
				}{bound, int64(val)})
			}
		case strings.HasSuffix(name, "_sum"):
			h := hists[strings.TrimSuffix(name, "_sum")+labels]
			if h == nil {
				h = &promHistogram{}
				hists[strings.TrimSuffix(name, "_sum")+labels] = h
			}
			h.sum = val
		case strings.HasSuffix(name, "_count") && strings.Contains(name, "duration"):
			h := hists[strings.TrimSuffix(name, "_count")+labels]
			if h == nil {
				h = &promHistogram{}
				hists[strings.TrimSuffix(name, "_count")+labels] = h
			}
			h.count = int64(val)
		default:
			counters[name+labels] += int64(val)
		}
	}
	return counters, hists
}

// stripLE removes the le label from a bucket label set so bucket lines of
// one series share a key.
func stripLE(labels string) string {
	inner := strings.Trim(labels, "{}")
	parts := strings.Split(inner, ",")
	kept := parts[:0]
	for _, p := range parts {
		if !strings.HasPrefix(p, `le="`) {
			kept = append(kept, p)
		}
	}
	return "{" + strings.Join(kept, ",") + "}"
}

// TestMetricsPrometheus drives traffic and validates the /metrics
// exposition end to end: parseability, bucket monotonicity, +Inf/count
// agreement, sum/count consistency, and agreement with the request
// counters — the properties the old summed-latency map could not provide.
func TestMetricsPrometheus(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	rng := rand.New(rand.NewSource(99))
	data := testData(rng, 60)
	resp, body := postJSON(t, client, ts.URL+"/v1/fit", FitRequest{
		Config: FitConfig{MinPtsLB: 3, MinPtsUB: 6},
		Data:   data,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("fit: status %d body %s", resp.StatusCode, body)
	}
	for i := 0; i < 3; i++ {
		resp, body = postJSON(t, client, ts.URL+"/v1/score", front.ScoreRequest{Queries: [][]float64{{0, 0}, {5, 5}}})
		if resp.StatusCode != 200 {
			t.Fatalf("score: status %d body %s", resp.StatusCode, body)
		}
	}
	// One 4xx so a second code series shows up.
	resp, _ = postJSON(t, client, ts.URL+"/v1/score", front.ScoreRequest{Queries: nil})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty score: status %d", resp.StatusCode)
	}

	httpResp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if ct := httpResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q, want text/plain", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(httpResp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, family := range []string{
		"# TYPE lof_http_requests_total counter",
		"# TYPE lof_http_request_duration_seconds histogram",
		"# TYPE lof_http_in_flight gauge",
		"# TYPE lof_http_shed_total counter",
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("metrics output missing %q:\n%s", family, text)
		}
	}
	counters, hists := parsePromText(t, text)

	if got := counters[`lof_http_requests_total{route="/v1/fit",code="200"}`]; got != 1 {
		t.Errorf("fit 200 count = %d, want 1", got)
	}
	if got := counters[`lof_http_requests_total{route="/v1/score",code="200"}`]; got != 3 {
		t.Errorf("score 200 count = %d, want 3", got)
	}
	if got := counters[`lof_http_requests_total{route="/v1/score",code="400"}`]; got != 1 {
		t.Errorf("score 400 count = %d, want 1", got)
	}
	if got := counters["lof_fit_points_total"]; got != 60 {
		t.Errorf("lof_fit_points_total = %d, want 60", got)
	}
	if got := counters["lof_score_points_total"]; got != 6 {
		t.Errorf("lof_score_points_total = %d, want 6", got)
	}

	scoreHist := hists[`lof_http_request_duration_seconds{route="/v1/score"}`]
	if scoreHist == nil {
		t.Fatalf("score histogram missing; series: %v", hists)
	}
	for name, h := range hists {
		prev := int64(0)
		prevLE := math.Inf(-1)
		for _, b := range h.buckets {
			if b.le <= prevLE {
				t.Errorf("%s: bucket bounds not ascending at le=%v", name, b.le)
			}
			if b.cum < prev {
				t.Errorf("%s: cumulative counts decrease at le=%v (%d < %d)", name, b.le, b.cum, prev)
			}
			prev, prevLE = b.cum, b.le
		}
		if h.infCum < prev {
			t.Errorf("%s: +Inf bucket %d below last bucket %d", name, h.infCum, prev)
		}
		if h.infCum != h.count {
			t.Errorf("%s: +Inf bucket %d != count %d", name, h.infCum, h.count)
		}
		if h.count > 0 && h.sum < 0 {
			t.Errorf("%s: negative sum %v with %d observations", name, h.sum, h.count)
		}
	}
	if scoreHist.count != 4 {
		t.Errorf("score histogram count = %d, want 4 (3 ok + 1 bad request)", scoreHist.count)
	}

	// The histogram count and the by-code counters describe the same
	// requests.
	var scoreRequests int64
	for key, v := range counters {
		if strings.HasPrefix(key, `lof_http_requests_total{route="/v1/score"`) {
			scoreRequests += v
		}
	}
	if scoreRequests != scoreHist.count {
		t.Errorf("requests_total %d disagrees with histogram count %d", scoreRequests, scoreHist.count)
	}
}

// TestRequestIDs pins the request-ID contract: echoed in the response
// header, honored when supplied, and embedded in error bodies.
func TestRequestIDs(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Minted ID on the response header.
	resp, err := client.Post(ts.URL+"/v1/score", "application/json", strings.NewReader(`{"queries":[[0,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Header.Get("X-Request-ID")
	var errBody struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("score without model: status %d", resp.StatusCode)
	}
	if id == "" || len(id) != 16 {
		t.Fatalf("minted X-Request-ID = %q, want 16 hex chars", id)
	}
	if errBody.RequestID != id {
		t.Fatalf("error body requestId %q != header %q", errBody.RequestID, id)
	}
	if errBody.Error == "" {
		t.Fatal("error body missing error message")
	}

	// Supplied IDs are honored.
	req, err := http.NewRequest("POST", ts.URL+"/v1/score", strings.NewReader(`{"queries":[[0,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "caller-chosen-id")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chosen-id" {
		t.Fatalf("echoed X-Request-ID = %q, want caller-chosen-id", got)
	}
}

// TestRequestLogging pins the one-line-per-request contract including the
// fields the satellite task names: route, status, duration, batch size and
// request ID.
func TestRequestLogging(t *testing.T) {
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	lockedW := writerFunc(func(p []byte) (int, error) {
		logMu.Lock()
		defer logMu.Unlock()
		return logBuf.Write(p)
	})
	srv := New(Config{Logger: slog.New(slog.NewJSONHandler(lockedW, nil))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	rng := rand.New(rand.NewSource(7))
	resp, body := postJSON(t, client, ts.URL+"/v1/fit", FitRequest{
		Config: FitConfig{MinPtsLB: 3, MinPtsUB: 6},
		Data:   testData(rng, 40),
	})
	if resp.StatusCode != 200 {
		t.Fatalf("fit: status %d body %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, client, ts.URL+"/v1/score", front.ScoreRequest{Queries: [][]float64{{0, 0}, {1, 1}, {2, 2}}})
	if resp.StatusCode != 200 {
		t.Fatalf("score: status %d body %s", resp.StatusCode, body)
	}
	wantID := resp.Header.Get("X-Request-ID")

	logMu.Lock()
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	logMu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	var entry struct {
		Msg       string  `json:"msg"`
		RequestID string  `json:"requestId"`
		Route     string  `json:"route"`
		Status    int     `json:"status"`
		Duration  float64 `json:"duration"`
		Batch     int64   `json:"batch"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, lines[1])
	}
	if entry.Msg != "request" || entry.Route != "/v1/score" || entry.Status != 200 {
		t.Fatalf("log entry %+v", entry)
	}
	if entry.Batch != 3 {
		t.Fatalf("log batch = %d, want 3", entry.Batch)
	}
	if entry.RequestID != wantID {
		t.Fatalf("log requestId %q != response header %q", entry.RequestID, wantID)
	}
	if entry.Duration <= 0 {
		t.Fatalf("log duration = %v, want > 0", entry.Duration)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
