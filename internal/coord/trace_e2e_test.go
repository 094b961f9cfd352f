package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"lof"
	"lof/internal/coord"
	"lof/internal/server"
	"lof/internal/shard"
	"lof/internal/trace"
)

// TestTracePropagationEndToEnd spins a coordinator over three traced
// shards, scores one batch under a sampled traceparent, and asserts the
// whole request is one trace: every span in all four processes' collectors
// carries the root trace ID, the coordinator's tree covers its one shard
// round (one candidates RPC per shard, each carrying its answer's size)
// and one coord/score span around its model's scoring, each shard
// recorded its handler spans, and the trace is retrievable over
// /v1/debug/traces. A pruned batch whose queries all certify then shows
// the candidates RPCs and one coord/score span, with the certified count
// on it and on its request span.
func TestTracePropagationEndToEnd(t *testing.T) {
	const shards = 3
	shardCols := make([]*trace.Collector, shards)
	targets := make([][]string, shards)
	for s := 0; s < shards; s++ {
		shardCols[s] = trace.NewCollector(trace.Config{Service: "lofserve", Sample: 1})
		ts := httptest.NewServer(server.New(server.Config{Trace: shardCols[s]}).Handler())
		t.Cleanup(ts.Close)
		targets[s] = []string{ts.URL}
	}
	coordCol := trace.NewCollector(trace.Config{Service: "lofcoord", Sample: 1})
	c, err := coord.New(coord.Config{
		Targets:     targets,
		Client:      fastClient(),
		Partitioner: shard.PartitionHash,
		Trace:       coordCol,
	})
	if err != nil {
		t.Fatalf("coord.New: %v", err)
	}
	m := fitModel(t, lof.Config{MinPtsLB: 3, MinPtsUB: 9})
	if _, err := c.Install(context.Background(), m); err != nil {
		t.Fatalf("Install: %v", err)
	}
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	root := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
	body, _ := json.Marshal(map[string]interface{}{"queries": testQueries()})
	req, _ := http.NewRequest(http.MethodPost, front.URL+"/v1/score", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, trace.Format(root))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("score: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d", resp.StatusCode)
	}

	rootID := root.TraceID.String()
	// Every span every process recorded belongs to the root trace.
	coordSpans := coordCol.Spans(trace.Query{})
	names := map[string]int{}
	for _, sp := range coordSpans {
		if sp.TraceID != rootID {
			t.Fatalf("coordinator span %q has trace %s, want root %s", sp.Name, sp.TraceID, rootID)
		}
		names[sp.Name]++
	}
	for _, want := range []string{"http /v1/score", "coord/candidates", "coord/merge", "coord/score"} {
		if names[want] != 1 {
			t.Fatalf("coordinator recorded %d %q spans, want 1 (have %v)", names[want], want, names)
		}
	}
	// The model call is one span: no separate certify or evaluation spans.
	for _, name := range []string{"coord/certify", "coord/eval"} {
		if names[name] != 0 {
			t.Fatalf("coordinator recorded %d %q spans, want them folded into coord/score (have %v)", names[name], name, names)
		}
	}
	for _, sp := range coordSpans {
		if sp.Name == "coord/score" && sp.Attrs["certified"] != "0" {
			t.Fatalf("exact coord/score span has certified=%q, want 0", sp.Attrs["certified"])
		}
	}
	// One shard round: a candidates RPC per shard and nothing else.
	if names["rpc/candidates"] != shards {
		t.Fatalf("coordinator recorded %d rpc/candidates spans, want one per shard (have %v)", names["rpc/candidates"], names)
	}
	for _, name := range []string{"coord/rows", "rpc/rows"} {
		if names[name] != 0 {
			t.Fatalf("coordinator recorded %d %q spans, want no row rounds (have %v)", names[name], name, names)
		}
	}
	if names["replica"] < shards {
		t.Fatalf("coordinator recorded %d replica spans, want at least one per shard (have %v)", names["replica"], names)
	}
	// Every shard RPC span carries its answer's size, so the request's
	// transport is readable from the trace alone.
	for _, sp := range coordSpans {
		if sp.Name != "rpc/candidates" {
			continue
		}
		if n, err := strconv.ParseInt(sp.Attrs["bytes"], 10, 64); err != nil || n <= 0 {
			t.Fatalf("%s span has bytes attribute %q", sp.Name, sp.Attrs["bytes"])
		}
		if round, ok := sp.Attrs["round"]; ok {
			t.Fatalf("%s span carries round %q; a request has one shard round", sp.Name, round)
		}
	}

	for s, col := range shardCols {
		// The Install snapshot push precedes the scored request and roots its
		// own traces; the scored request's spans are the ones under rootID.
		spans := col.Spans(trace.Query{TraceID: rootID})
		if len(spans) == 0 {
			t.Fatalf("shard %d recorded no spans for the root trace", s)
		}
		sawCandidates := false
		for _, sp := range spans {
			if sp.Name == "http /v1/shard/candidates" {
				sawCandidates = true
			}
		}
		if !sawCandidates {
			t.Fatalf("shard %d did not record its candidates handler span", s)
		}
	}

	// The trace is retrievable over the coordinator's debug endpoint.
	dresp, err := http.Get(front.URL + "/v1/debug/traces?trace=" + rootID)
	if err != nil {
		t.Fatalf("debug traces: %v", err)
	}
	defer dresp.Body.Close()
	var dbg struct {
		Traces []struct {
			TraceID string `json:"traceId"`
			Spans   []struct {
				Name  string            `json:"name"`
				Attrs map[string]string `json:"attrs"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dbg); err != nil {
		t.Fatalf("decoding debug traces: %v", err)
	}
	if len(dbg.Traces) != 1 || dbg.Traces[0].TraceID != rootID || len(dbg.Traces[0].Spans) < 5 {
		t.Fatalf("debug endpoint returned %+v, want the root trace with its span tree", dbg)
	}
	sized := 0
	for _, sp := range dbg.Traces[0].Spans {
		if sp.Name == "rpc/candidates" && sp.Attrs["bytes"] != "" {
			sized++
		}
	}
	if sized != shards {
		t.Fatalf("debug endpoint shows %d rpc/candidates spans with their answer's bytes, want %d", sized, shards)
	}

	// A pruned batch whose queries all certify is answered from the
	// candidates round and the model's certificate: its request span and
	// its one coord/score span carry the certified count.
	certifying := testQueries()[:4]
	if pb, err := m.ScoreBatchPruned(certifying, 0); err != nil || pb.Certified != len(certifying) {
		t.Fatalf("lofserve certifies %+v (%v) of the chosen batch, want all %d", pb, err, len(certifying))
	}
	proot := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
	body, _ = json.Marshal(map[string]interface{}{"queries": certifying})
	req, _ = http.NewRequest(http.MethodPost, front.URL+"/v1/score?mode=pruned", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, trace.Format(proot))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("pruned score: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pruned score status %d", resp.StatusCode)
	}
	names = map[string]int{}
	for _, sp := range coordCol.Spans(trace.Query{TraceID: proot.TraceID.String()}) {
		names[sp.Name]++
		if (sp.Name == "http /v1/score" || sp.Name == "coord/score") && sp.Attrs["certified"] != strconv.Itoa(len(certifying)) {
			t.Fatalf("pruned %s span has certified=%q, want %d", sp.Name, sp.Attrs["certified"], len(certifying))
		}
	}
	if names["http /v1/score"] != 1 || names["rpc/candidates"] != shards || names["coord/score"] != 1 {
		t.Fatalf("pruned spans %v, want the request span, one coord/score and one rpc/candidates per shard", names)
	}
	for _, name := range []string{"rpc/rows", "coord/rows", "coord/certify", "coord/eval"} {
		if names[name] != 0 {
			t.Fatalf("a fully certified batch recorded %d %q spans (have %v)", names[name], name, names)
		}
	}
}

// TestCoordDebugTracesConcurrent hammers the coordinator's debug endpoint
// while scores generate spans — the cross-process variant of the
// collector's -race test.
func TestCoordDebugTracesConcurrent(t *testing.T) {
	targets := startShards(t, 2, nil)
	coordCol := trace.NewCollector(trace.Config{Service: "lofcoord", Sample: 1, Capacity: 128})
	c, err := coord.New(coord.Config{
		Targets:     targets,
		Client:      fastClient(),
		Partitioner: shard.PartitionHash,
		Trace:       coordCol,
	})
	if err != nil {
		t.Fatalf("coord.New: %v", err)
	}
	m := fitModel(t, lof.Config{MinPtsLB: 3, MinPtsUB: 6})
	if _, err := c.Install(context.Background(), m); err != nil {
		t.Fatalf("Install: %v", err)
	}
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(map[string]interface{}{"queries": testQueries()[:2]})
		for {
			select {
			case <-stop:
				return
			default:
			}
			sc := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
			req, _ := http.NewRequest(http.MethodPost, front.URL+"/v1/score", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(trace.Header, trace.Format(sc))
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}()
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		resp, err := http.Get(front.URL + "/v1/debug/traces")
		if err != nil {
			t.Fatalf("debug read: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("debug status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	close(stop)
	<-done
}
