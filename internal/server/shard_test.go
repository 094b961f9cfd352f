package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lof"
	"lof/internal/shard"
)

// splitParts fits a small model and splits it for the shard-role tests.
func splitParts(t *testing.T, n int, version uint64) []*shard.Part {
	t.Helper()
	det, err := lof.New(lof.Config{MinPtsLB: 2, MinPtsUB: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	data := [][]float64{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5},
		{10, 10}, {11, 10}, {10, 11}, {11, 11}, {30, -20},
	}
	res, err := det.Fit(data)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	pts, db := m.Fitted()
	parts, err := shard.Split(pts, db, shard.Meta{}, n, shard.PartitionRange, version)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	return parts
}

func postBytes(t *testing.T, c *http.Client, url, contentType string, body []byte, out interface{}) *http.Response {
	t.Helper()
	resp, err := c.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

func getReady(t *testing.T, c *http.Client, base string) (int, ReadyInfo) {
	t.Helper()
	resp, err := c.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	var info ReadyInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decoding readyz: %v", err)
	}
	return resp.StatusCode, info
}

// postFrame posts a shard frame body and returns the status, the
// Retry-After header and the raw response body.
func postFrame(t *testing.T, c *http.Client, url string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), raw
}

// TestShardRole pins the shard endpoints' contract over binary frames:
// readiness, install, answers pinned to the installed version, and the
// error statuses — 409 before any part, 503 + Retry-After for a stale pin,
// 400 for anything that is not a well-formed request for this layout, 413
// for oversized bodies and batches — whose bodies stay the front end's
// JSON.
func TestShardRole(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 4 << 10, MaxBatch: 3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()
	cands := ts.URL + "/v1/shard/candidates"
	candReq := func(version uint64, queries ...float64) *shard.Frame {
		return &shard.Frame{Kind: shard.KindCandidatesRequest, Version: version, Dim: 2, Queries: queries}
	}
	expect := func(label, url string, body []byte, status int) []byte {
		t.Helper()
		code, _, raw := postFrame(t, c, url, body)
		if code != status {
			t.Fatalf("%s: status %d, want %d (body %s)", label, code, status, raw)
		}
		return raw
	}

	// Not ready before any state: 503, but liveness stays 200.
	if code, info := getReady(t, c, ts.URL); code != http.StatusServiceUnavailable || info.Ready {
		t.Fatalf("readyz before install: code=%d info=%+v", code, info)
	}
	if resp, err := c.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz must stay 200 while unready: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// Data requests before a snapshot: 409, not retriable.
	expect("candidates before snapshot", cands, candReq(1, 0, 0).Encode(), http.StatusConflict)

	// Push shard 0 of 2 at version 7.
	parts := splitParts(t, 2, 7)
	enc, err := shard.EncodePart(parts[0])
	if err != nil {
		t.Fatalf("EncodePart: %v", err)
	}
	var ack shard.SnapshotInfo
	if resp := postBytes(t, c, ts.URL+"/v1/shard/snapshot", "application/octet-stream", enc, &ack); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot push: status %d", resp.StatusCode)
	}
	if ack.Version != 7 || ack.Shard != 0 || ack.Shards != 2 || ack.Points != parts[0].Len() {
		t.Fatalf("snapshot ack = %+v", ack)
	}
	if code, info := getReady(t, c, ts.URL); code != http.StatusOK || !info.Ready ||
		info.Version != 7 || info.Role != "shard" || info.Shards != 2 {
		t.Fatalf("readyz after install: code=%d info=%+v", code, info)
	}

	// An answer pinned to the installed version is the part's own answer,
	// byte for byte.
	req := candReq(7, 0.4, 0.4, 10.5, 10.5)
	raw := expect(req.Kind.String(), cands, req.Encode(), http.StatusOK)
	got, err := shard.DecodeFrame(raw)
	if err != nil {
		t.Fatalf("%v answer: %v", req.Kind, err)
	}
	if err := shard.CheckReply(req, got); err != nil {
		t.Fatalf("%v answer: %v", req.Kind, err)
	}
	want, err := parts[0].Reply(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Encode()) {
		t.Fatalf("%v answer differs from the part's", req.Kind)
	}

	// A stale version pin is refused with a retriable 503 + Retry-After.
	if code, retry, _ := postFrame(t, c, cands, candReq(6, 0, 0).Encode()); code != http.StatusServiceUnavailable || retry == "" {
		t.Fatalf("stale pin: status %d Retry-After %q", code, retry)
	}

	// 400: a truncated frame, a wrong magic or format version, a JSON
	// body, and a frame kind the route does not serve.
	good := candReq(7, 0, 0).Encode()
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	badVersion := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(badVersion[4:], 9)
	jsonBody, _ := json.Marshal(map[string]interface{}{"version": 7, "queries": [][]float64{{0, 0}}})
	for _, tc := range []struct {
		label, url string
		body       []byte
	}{
		{"truncated", cands, good[:len(good)-4]},
		{"magic", cands, badMagic},
		{"format version", cands, badVersion},
		{"json", cands, jsonBody},
		{"answer frame", cands, want.Encode()},
		{"no queries", cands, candReq(7).Encode()},
		{"dimension", cands, (&shard.Frame{Kind: shard.KindCandidatesRequest, Version: 7, Dim: 3, Queries: []float64{0, 0, 0}}).Encode()},
	} {
		raw := expect(tc.label, tc.url, tc.body, http.StatusBadRequest)
		var body struct {
			Error     string `json:"error"`
			RequestID string `json:"requestId"`
		}
		if err := json.Unmarshal(raw, &body); err != nil || body.Error == "" || body.RequestID == "" {
			t.Fatalf("%s: error body %q is not the front end's JSON", tc.label, raw)
		}
	}

	// 413: a body over MaxBodyBytes, and more queries than MaxBatch.
	expect("oversized body", cands, candReq(7, make([]float64, 600)...).Encode(), http.StatusRequestEntityTooLarge)
	raw = expect("oversized batch", cands, candReq(7, make([]float64, 8)...).Encode(), http.StatusRequestEntityTooLarge)
	if !strings.Contains(string(raw), "batch of 4 exceeds limit 3") {
		t.Fatalf("oversized batch body %s", raw)
	}

	// A corrupt push is rejected descriptively and leaves the old part live.
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 1
	if resp := postBytes(t, c, ts.URL+"/v1/shard/snapshot", "application/octet-stream", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt snapshot: status %d", resp.StatusCode)
	}
	if code, info := getReady(t, c, ts.URL); code != http.StatusOK || info.Version != 7 {
		t.Fatalf("readyz after rejected push: code=%d info=%+v", code, info)
	}

	// A re-push at a newer version swaps atomically.
	parts2 := splitParts(t, 2, 8)
	enc2, _ := shard.EncodePart(parts2[0])
	if resp := postBytes(t, c, ts.URL+"/v1/shard/snapshot", "application/octet-stream", enc2, &ack); resp.StatusCode != http.StatusOK {
		t.Fatalf("second snapshot push: status %d", resp.StatusCode)
	}
	if code, info := getReady(t, c, ts.URL); code != http.StatusOK || info.Version != 8 {
		t.Fatalf("readyz after second push: code=%d info=%+v", code, info)
	}
}

func TestShardSnapshotTooLarge(t *testing.T) {
	srv := New(Config{MaxSnapshotBytes: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	parts := splitParts(t, 2, 1)
	enc, _ := shard.EncodePart(parts[0])
	resp := postBytes(t, ts.Client(), ts.URL+"/v1/shard/snapshot", "application/octet-stream", enc, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized snapshot: status %d", resp.StatusCode)
	}
}

func TestReadyzSingleRole(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	det, err := lof.New(lof.Config{MinPtsLB: 2, MinPtsUB: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := det.Fit([][]float64{{0}, {1}, {2}, {3}, {10}})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	srv.SetModel(m)
	code, info := getReady(t, ts.Client(), ts.URL)
	if code != http.StatusOK || !info.Ready || info.Role != "single" || !info.Model || info.Version == 0 {
		t.Fatalf("single-role readyz: code=%d info=%+v", code, info)
	}
}
