package server

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"lof"
	"lof/internal/front"
)

// TestStreamEndToEnd drives the streaming API over HTTP: init, pushes with
// inserts and deletes, scoring against the published epoch, window LOFs
// that match a from-scratch batch fit bit for bit, and freeze into the
// batch serving model.
func TestStreamEndToEnd(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Pushing before init is a 409.
	resp, _ := postJSON(t, client, ts.URL+"/v1/stream", map[string]interface{}{
		"inserts": [][]float64{{1, 2}},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("push before init: status %d", resp.StatusCode)
	}

	resp, body := postJSON(t, client, ts.URL+"/v1/stream/init", map[string]interface{}{
		"config": map[string]interface{}{"dim": 2, "minPts": 4, "maxPoints": 200},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("init: status %d: %s", resp.StatusCode, body)
	}

	rng := rand.New(rand.NewSource(7))
	window := make(map[uint64][]float64)
	var pushRes struct {
		Epoch    uint64   `json:"epoch"`
		Inserted []uint64 `json:"inserted"`
		Expired  []uint64 `json:"expired"`
		Live     int      `json:"live"`
	}
	for batch := 0; batch < 5; batch++ {
		var inserts [][]float64
		for i := 0; i < 20; i++ {
			inserts = append(inserts, []float64{rng.NormFloat64(), rng.NormFloat64()})
		}
		var deletes []uint64
		if batch > 1 {
			for id := range window {
				deletes = append(deletes, id)
				if len(deletes) == 3 {
					break
				}
			}
		}
		resp, body = postJSON(t, client, ts.URL+"/v1/stream", map[string]interface{}{
			"inserts": inserts, "deletes": deletes,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push %d: status %d: %s", batch, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &pushRes); err != nil {
			t.Fatal(err)
		}
		if len(pushRes.Inserted) != len(inserts) {
			t.Fatalf("push %d: %d ids for %d inserts", batch, len(pushRes.Inserted), len(inserts))
		}
		for _, id := range deletes {
			delete(window, id)
		}
		for i, id := range pushRes.Inserted {
			window[id] = inserts[i]
		}
		for _, id := range pushRes.Expired {
			delete(window, id)
		}
		if pushRes.Live != len(window) {
			t.Fatalf("push %d: live=%d, tracked %d", batch, pushRes.Live, len(window))
		}
	}

	// Window LOFs must equal a batch fit over the same rows, bit for bit.
	var lofsRes struct {
		IDs   []uint64      `json:"ids"`
		LOFs  []front.Float `json:"lofs"`
		Epoch uint64        `json:"epoch"`
	}
	if resp := getJSON(t, client, ts.URL+"/v1/stream/lofs", &lofsRes); resp.StatusCode != http.StatusOK {
		t.Fatalf("lofs: status %d", resp.StatusCode)
	}
	if lofsRes.Epoch != pushRes.Epoch {
		t.Fatalf("lofs epoch %d, last push %d", lofsRes.Epoch, pushRes.Epoch)
	}
	rows := make([][]float64, len(lofsRes.IDs))
	for i, id := range lofsRes.IDs {
		row, ok := window[id]
		if !ok {
			t.Fatalf("lofs returned unknown id %d", id)
		}
		rows[i] = row
	}
	want, err := lof.Scores(rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(float64(lofsRes.LOFs[i])) != math.Float64bits(want[i]) {
			t.Fatalf("id %d: stream %v batch %v", lofsRes.IDs[i], float64(lofsRes.LOFs[i]), want[i])
		}
	}

	// Out-of-sample scores match a refit over window ∪ {q}.
	queries := [][]float64{{0, 0}, {8, 8}}
	var scoreRes struct {
		Scores []front.Float `json:"scores"`
		Epoch  uint64        `json:"epoch"`
	}
	resp, body = postJSON(t, client, ts.URL+"/v1/stream/score", map[string]interface{}{
		"queries": queries,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &scoreRes); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		ref, err := lof.Scores(append(append([][]float64{}, rows...), q), 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(float64(scoreRes.Scores[i])) != math.Float64bits(ref[len(ref)-1]) {
			t.Fatalf("query %v: stream %v refit %v", q, float64(scoreRes.Scores[i]), ref[len(ref)-1])
		}
	}

	// Stats reflect the traffic.
	var stats struct {
		Epoch   uint64 `json:"epoch"`
		Live    int    `json:"live"`
		Inserts uint64 `json:"inserts_total"`
		Deletes uint64 `json:"deletes_total"`
	}
	getJSON(t, client, ts.URL+"/v1/stream/stats", &stats)
	if stats.Live != len(window) || stats.Inserts != 100 || stats.Deletes != 9 {
		t.Fatalf("stats=%+v, want live=%d inserts=100 deletes=9", stats, len(window))
	}

	// Freeze installs the window as the batch serving model.
	resp, body = postJSON(t, client, ts.URL+"/v1/stream/freeze", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("freeze: status %d: %s", resp.StatusCode, body)
	}
	var freeze struct {
		Objects int    `json:"objects"`
		Epoch   uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &freeze); err != nil {
		t.Fatal(err)
	}
	if freeze.Objects != len(window) || freeze.Epoch != lofsRes.Epoch {
		t.Fatalf("freeze=%+v, want objects=%d epoch=%d", freeze, len(window), lofsRes.Epoch)
	}
	m := s.Model()
	if m == nil || m.Len() != len(window) {
		t.Fatal("freeze did not install the serving model")
	}

	// The frozen model serves the batch score endpoint.
	resp, body = postJSON(t, client, ts.URL+"/v1/score", map[string]interface{}{
		"queries": queries,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch score after freeze: status %d: %s", resp.StatusCode, body)
	}

	// Stream metrics families are exposed.
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"lof_stream_batches_total 5",
		"lof_stream_inserts_total 100",
		"lof_stream_freezes_total 1",
		"lof_stream_live " + strconv.Itoa(len(window)),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestStreamPushRejectsBadBatches(t *testing.T) {
	s := New(Config{MaxBatch: 10})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	resp, _ := postJSON(t, client, ts.URL+"/v1/stream/init", map[string]interface{}{
		"config": map[string]interface{}{"dim": 2, "minPts": 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("init: status %d", resp.StatusCode)
	}

	cases := []struct {
		name string
		body interface{}
		want int
	}{
		{"empty", map[string]interface{}{}, http.StatusBadRequest},
		{"wrong dim", map[string]interface{}{"inserts": [][]float64{{1}}}, http.StatusBadRequest},
		{"unknown delete", map[string]interface{}{"deletes": []uint64{42}}, http.StatusBadRequest},
		{"oversized", map[string]interface{}{"inserts": make([][]float64, 11)}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, client, ts.URL+"/v1/stream", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.want, body)
		}
	}

	// A rejected batch leaves the epoch unchanged.
	var stats struct {
		Epoch uint64 `json:"epoch"`
	}
	getJSON(t, client, ts.URL+"/v1/stream/stats", &stats)
	if stats.Epoch != 0 {
		t.Fatalf("epoch advanced to %d on rejected batches", stats.Epoch)
	}

	// Freezing an undersized window is a 409, not a crash.
	resp, _ = postJSON(t, client, ts.URL+"/v1/stream/freeze", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("freeze of empty window: status %d", resp.StatusCode)
	}

	// Bad init configs are rejected, among them a MinPts so large that
	// the evaluators' MinPts arithmetic would overflow.
	for _, cfg := range []map[string]interface{}{
		{"dim": 0, "minPts": 3},
		{"dim": 2, "minPts": math.MaxInt},
	} {
		resp, body := postJSON(t, client, ts.URL+"/v1/stream/init", map[string]interface{}{"config": cfg})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad init %v: status %d: %s", cfg, resp.StatusCode, body)
		}
	}
}

// TestStreamWindowExpiry checks count-bound expiry through the HTTP layer.
func TestStreamWindowExpiry(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/stream/init", map[string]interface{}{
		"config": map[string]interface{}{"dim": 1, "minPts": 2, "maxPoints": 10},
	})
	rng := rand.New(rand.NewSource(11))
	var last struct {
		Expired []uint64 `json:"expired"`
		Live    int      `json:"live"`
	}
	total := 0
	for batch := 0; batch < 6; batch++ {
		inserts := make([][]float64, 4)
		for i := range inserts {
			inserts[i] = []float64{rng.NormFloat64()}
		}
		total += 4
		_, body := postJSON(t, client, ts.URL+"/v1/stream", map[string]interface{}{
			"inserts": inserts,
		})
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
		if last.Live > 10 {
			t.Fatalf("batch %d: live=%d exceeds window bound", batch, last.Live)
		}
	}
	if last.Live != 10 {
		t.Fatalf("final live=%d, want 10", last.Live)
	}
	if len(last.Expired) != 4 {
		t.Fatalf("final batch expired %d, want 4", len(last.Expired))
	}
}
