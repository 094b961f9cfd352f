package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lof"
	"lof/internal/shard"
)

// approxModel fits a clustered model big enough for the approximate
// serving paths to be meaningfully exercised.
func approxModel(t *testing.T, n int) *lof.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	data := make([][]float64, 0, n+2)
	for i := 0; i < n; i++ {
		c := float64(i%2) * 12
		data = append(data, []float64{c + rng.NormFloat64(), c + rng.NormFloat64()})
	}
	data = append(data, []float64{50, 50}, []float64{-40, 30})
	det, err := lof.New(lof.Config{})
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

type approxScoreOut struct {
	Scores    []float64 `json:"scores"`
	Mode      string    `json:"mode"`
	Certified int       `json:"certified"`
}

// TestScoreModePruned: the pruned endpoint answers exactly for uncertain
// queries, 1 for certified ones, reports the certified count, and bumps
// the mode-labeled and certified counters.
func TestScoreModePruned(t *testing.T) {
	m := approxModel(t, 400)
	srv := New(Config{})
	srv.SetModel(m)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := [][]float64{{0.1, -0.2}, {12.3, 11.9}, {80, 80}, {0.4, 0.6}}
	body := map[string]interface{}{"queries": queries}
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/score?mode=pruned", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, raw)
	}
	var out approxScoreOut
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != "pruned" {
		t.Fatalf("mode = %q, want pruned", out.Mode)
	}
	if out.Certified == 0 {
		t.Fatal("no query certified; near-cluster queries should fast-path")
	}
	exact, err := m.ScoreBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	eps := lof.DefaultPruneEps
	for i, v := range out.Scores {
		if v == 1 && exact[i] != 1 {
			// Certified answer: the exact score must lie in the band.
			if exact[i] < 1/(1+eps)*(1-1e-9) || exact[i] > (1+eps)*(1+1e-9) {
				t.Fatalf("query %d certified but exact %v outside band", i, exact[i])
			}
			continue
		}
		if math.Abs(v-exact[i]) > 1e-9*math.Abs(exact[i]) {
			t.Fatalf("query %d: pruned %v vs exact %v", i, v, exact[i])
		}
	}
	// The far outlier must never be certified to 1.
	if out.Scores[2] < 1.5 {
		t.Fatalf("outlier query scored %v in pruned mode", out.Scores[2])
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readBody(t, mresp)
	if !strings.Contains(text, `lof_http_score_mode_total{mode="pruned"} 1`) {
		t.Errorf("metrics missing pruned mode count:\n%s", grepLines(text, "score_mode"))
	}
	if !strings.Contains(text, fmt.Sprintf("lof_http_pruned_certified_total %d", out.Certified)) {
		t.Errorf("metrics missing certified total %d:\n%s", out.Certified, grepLines(text, "certified"))
	}
	// Every mode label is pre-seeded so the exposition shape is stable.
	for _, mode := range []string{"full", "coreset", "degraded"} {
		if !strings.Contains(text, `lof_http_score_mode_total{mode="`+mode+`"} 0`) {
			t.Errorf("mode %q not pre-seeded:\n%s", mode, grepLines(text, "score_mode"))
		}
	}
}

// TestScoreModeCoreset: coreset requests serve from the sensitivity-sampled
// model and report the mode; with coreset derivation disabled they fall
// back to the exact model silently.
func TestScoreModeCoreset(t *testing.T) {
	m := approxModel(t, 300)
	srv := New(Config{CoresetSample: 128})
	srv.SetModel(m)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := map[string]interface{}{"queries": [][]float64{{0.2, 0.1}, {60, 60}}}
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/score?mode=coreset", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, raw)
	}
	var out approxScoreOut
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != "coreset" {
		t.Fatalf("mode = %q, want coreset", out.Mode)
	}
	if out.Scores[1] < 1.5 {
		t.Fatalf("coreset model scored a far outlier %v", out.Scores[1])
	}

	// Disabled coreset: the request still succeeds, exactly, with no mode.
	srv2 := New(Config{CoresetSample: -1})
	srv2.SetModel(m)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, raw = postJSON(t, ts2.Client(), ts2.URL+"/v1/score?mode=coreset", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disabled coreset status %d body %s", resp.StatusCode, raw)
	}
	if strings.Contains(string(raw), `"mode"`) {
		t.Fatalf("disabled coreset still reported a mode: %s", raw)
	}
}

// TestDegradedPrefersCoreset: degraded and coreset requests both answer
// from the one coreset model, bit for bit what its ScoreBatch returns, and
// report the mode that was asked for.
func TestDegradedPrefersCoreset(t *testing.T) {
	m := approxModel(t, 300)
	q := [][]float64{{0.3, -0.1}, {60, 60}}
	coreset, err := m.Coreset(128)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coreset.ScoreBatch(q)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{CoresetSample: 128})
	srv.SetModel(m)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, mode := range []string{"degraded", "coreset"} {
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/score?mode="+mode,
			map[string]interface{}{"queries": q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", mode, resp.StatusCode, raw)
		}
		var out approxScoreOut
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Mode != mode {
			t.Fatalf("%s request served as mode %q", mode, out.Mode)
		}
		for i := range want {
			if math.Float64bits(out.Scores[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s query %d scored %v, want the coreset's %v", mode, i, out.Scores[i], want[i])
			}
		}
	}
}

// TestShardKDists: the kdists endpoint returns stored k-distance envelopes
// matching the part's database, enforces the version pin, and rejects
// unowned ids.
func TestShardKDists(t *testing.T) {
	parts := splitParts(t, 2, 7)
	srv := New(Config{})
	srv.part.Store(parts[0])
	srv.version.Store(parts[0].Version())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	ids := make([]uint32, 0, 4)
	for id := uint32(0); len(ids) < 4 && id < 10; id++ {
		if parts[0].Partitioner().Shard(id, 2, 10) == 0 {
			ids = append(ids, id)
		}
	}
	req := shard.KDistsRequest{Version: 7, Lo: 2, Hi: 4, IDs: ids}
	body, _ := json.Marshal(req)
	var out shard.KDistsResponse
	if resp := postBytes(t, c, ts.URL+"/v1/shard/kdists", "application/json", body, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("kdists status %d", resp.StatusCode)
	}
	if len(out.Lo) != len(ids) || len(out.Hi) != len(ids) {
		t.Fatalf("kdists returned %d/%d entries for %d ids", len(out.Lo), len(out.Hi), len(ids))
	}
	wantLo, wantHi, err := parts[0].KDists(ids, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if out.Lo[i] != wantLo[i] || out.Hi[i] != wantHi[i] {
			t.Fatalf("id %d: got [%v, %v], want [%v, %v]", ids[i], out.Lo[i], out.Hi[i], wantLo[i], wantHi[i])
		}
		if out.Lo[i] > out.Hi[i] {
			t.Fatalf("id %d: inverted envelope [%v, %v]", ids[i], out.Lo[i], out.Hi[i])
		}
	}

	// Version pin: a mismatched version is 503 + Retry-After.
	req.Version = 6
	body, _ = json.Marshal(req)
	if resp := postBytes(t, c, ts.URL+"/v1/shard/kdists", "application/json", body, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stale kdists status %d, want 503", resp.StatusCode)
	}

	// Unowned id: permanent 400.
	other := uint32(0)
	for ; other < 10; other++ {
		if parts[0].Partitioner().Shard(other, 2, 10) == 1 {
			break
		}
	}
	req.Version = 7
	req.IDs = []uint32{other}
	body, _ = json.Marshal(req)
	if resp := postBytes(t, c, ts.URL+"/v1/shard/kdists", "application/json", body, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unowned kdists status %d, want 400", resp.StatusCode)
	}
}

// grepLines returns the lines of text containing substr, for error output.
func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
