package main

import (
	"net/http"
	"time"

	"lof"
	"lof/internal/geom"
)

// requestLayers reports the client-side layers of the traced requests
// named call, the lofserve handler time on handlerPath, and the ledger
// check: compute(r) is the measured cost of the work request r asked for
// (from direct layer calls or from the spans below the handler), and
// unattributed_frac is the share of the median request latency that the
// client, transport and compute times do not account for — mostly JSON
// decoding and encoding and middleware, which need spans inside the
// program to be split further.
func requestLayers(res *result, x *spanIndex, call, handlerPath string, compute func(span) time.Duration) {
	calls := x.named(call, "")
	var lat, attributed, transport []time.Duration
	var rpcs, bytes int64
	for _, c := range calls {
		var tp time.Duration
		for _, k := range x.kids[c.ID] {
			tp += x.self(k)
			bytes += k.Bytes
			rpcs++
		}
		transport = append(transport, tp)
		lat = append(lat, c.dur())
		attributed = append(attributed, x.self(c)+tp+compute(c))
	}
	setLayer(res, "client.call_ms", median(ms(lat)))
	setLayer(res, "client.self_ms", median(ms(x.selfs(calls))))
	setLayer(res, "http.transport_ms", median(ms(transport)))
	setLayer(res, "client.bytes_per_call", ratio(float64(bytes), float64(rpcs)))
	setLayer(res, "unattributed_frac", 1-ratio(median(ms(attributed)), median(ms(lat))))
	if handlerPath != "" {
		setLayer(res, "server.handler_ms", median(ms(durs(x.named("server.handler", handlerPath)))))
	}
	var rejected int
	for _, s := range x.spans {
		if s.Status == http.StatusTooManyRequests {
			rejected++
		}
	}
	setLayer(res, "server.rejected", float64(rejected))
}

// coordLayers reports the coordinator's layers from the spans of its
// handler, its shard RPCs and the shard handlers. In serve-sharded the
// shards are the lofserve handlers, so they also give server.handler_ms.
func coordLayers(res *result, x *spanIndex) {
	handlers := x.named("coord.handler", "/v1/score")
	rpcs := x.named("coord.rpc", "")
	var bytes int64
	for _, r := range rpcs {
		bytes += r.Bytes
	}
	shards := durs(x.named("shard.handler", ""))
	setLayer(res, "coord.score_ms", median(ms(durs(handlers))))
	setLayer(res, "coord.self_ms", median(ms(x.selfs(handlers))))
	setLayer(res, "coord.rpc_candidates_ms", median(ms(durs(x.named("coord.rpc", "/v1/shard/candidates")))))
	setLayer(res, "coord.rpc_rows_ms", median(ms(durs(x.named("coord.rpc", "/v1/shard/rows")))))
	setLayer(res, "coord.rpc_network_ms", median(ms(x.selfs(rpcs))))
	setLayer(res, "coord.rpcs_per_request", ratio(float64(len(rpcs)), float64(len(handlers))))
	setLayer(res, "coord.rpc_bytes_per_request", ratio(float64(bytes), float64(len(handlers))))
	setLayer(res, "coord.shard_handler_ms", median(ms(shards)))
	setLayer(res, "server.handler_ms", median(ms(shards)))
}

// pointsOf returns a model's fitted points.
func pointsOf(m *lof.Model) *geom.Points {
	pts, _ := m.Fitted()
	return pts
}

// overhead reports the throughput of the untraced and the traced half of a
// traced run, and the share the tracing wrappers cost.
func overhead(res *result, untraced, traced *loopStats) {
	setLayer(res, "trace.untraced_qps", untraced.rate())
	setLayer(res, "trace.traced_qps", traced.rate())
	setLayer(res, "trace.overhead_frac", 1-ratio(traced.rate(), untraced.rate()))
}
