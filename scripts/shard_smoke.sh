#!/bin/sh
# shard_smoke.sh is the end-to-end smoke test of the sharded serving tier:
# three lofserve shard processes fronted by one lofcoord, fit over HTTP,
# exact scatter-gather scoring, and exact and ?mode=pruned answers
# byte-identical to a single lofserve fitted with the same data. Then a
# shard is killed outright — the tier must fail loudly (502 exact /
# explicit degraded), and after the shard restarts empty, the
# coordinator's repair loop must re-push its partition until scoring
# returns the exact pre-kill bytes. A distinct-mode fit over data with
# exact duplicates must then answer byte-identically on both tiers too,
# exact and pruned. Finally lofload drives the coordinator and writes the
# machine-readable JSON report.
#
# Usage: ./scripts/shard_smoke.sh
set -eu

cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
pids=""
cleanup() {
	for p in $pids; do kill "$p" 2>/dev/null || true; done
	rm -rf "$tmpdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$tmpdir/lofserve" ./cmd/lofserve
go build -o "$tmpdir/lofcoord" ./cmd/lofcoord
go build -o "$tmpdir/lofload" ./cmd/lofload

# wait_addr LOGFILE: echoes the listen address a server logged, or fails.
wait_addr() {
	_addr=""
	for _ in $(seq 1 100); do
		_addr=$(sed -n 's/.*"msg":"listening".*"addr":"\([^"]*\)".*/\1/p' "$1" | head -n 1)
		[ -n "$_addr" ] && break
		sleep 0.1
	done
	if [ -z "$_addr" ]; then
		echo "server did not report a listen address:" >&2
		cat "$1" >&2
		exit 1
	fi
	echo "$_addr"
}

echo "== start 3 shards + coordinator"
i=0
shard_urls=""
while [ "$i" -lt 3 ]; do
	"$tmpdir/lofserve" -addr 127.0.0.1:0 -trace-sample 1 >"$tmpdir/shard$i.log" 2>&1 &
	eval "shard${i}_pid=$!"
	pids="$pids $!"
	addr=$(wait_addr "$tmpdir/shard$i.log")
	eval "shard${i}_addr=$addr"
	shard_urls="${shard_urls}${shard_urls:+;}http://$addr"
	i=$((i + 1))
done
"$tmpdir/lofcoord" -addr 127.0.0.1:0 -shards "$shard_urls" \
	-repair-interval 300ms -trace-sample 1 >"$tmpdir/coord.log" 2>&1 &
coord_pid=$!
pids="$pids $coord_pid"
coord=http://$(wait_addr "$tmpdir/coord.log")

echo "== fit through the coordinator"
# Deterministic two-cluster data with one outlier, generated inline.
awk 'BEGIN {
	printf "{\"config\":{\"minPtsLB\":3,\"minPtsUB\":8},\"data\":["
	for (i = 0; i < 120; i++) {
		cx = (i % 2) * 10; cy = (i % 2) * 10
		x = cx + (i % 7) / 7 - 0.5; y = cy + (i % 5) / 5 - 0.5
		printf "%s[%.6f,%.6f]", (i ? "," : ""), x, y
	}
	printf ",[40,-40]]}"
}' >"$tmpdir/fit.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary @"$tmpdir/fit.json" "$coord/v1/fit" >"$tmpdir/fit_resp.json"
grep -q '"objects":121' "$tmpdir/fit_resp.json" || {
	echo "unexpected fit response:" >&2
	cat "$tmpdir/fit_resp.json" >&2
	exit 1
}

queries='{"queries":[[0,0],[10,10],[40,-40],[5,5],[0.3,0.2]]}'
score() {
	curl -sS -o "$1" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
		-d "$queries" "$coord/v1/score$2"
}

echo "== exact scatter-gather scoring"
code=$(score "$tmpdir/scores_before.json" "")
[ "$code" = 200 ] || {
	echo "score failed with $code:" >&2
	cat "$tmpdir/scores_before.json" >&2
	exit 1
}
grep -q '"scores":' "$tmpdir/scores_before.json"

echo "== cross-process trace"
# The score just served must be one trace spanning the coordinator and the
# shards: pull the newest trace from the coordinator's debug endpoint, then
# find the same trace ID recorded by every shard process.
curl -fsS "$coord/v1/debug/traces" >"$tmpdir/coord_traces.json"
trace_id=$(sed -n 's/.*"traceId":"\([0-9a-f]\{32\}\)".*/\1/p' "$tmpdir/coord_traces.json" | head -n 1)
if [ -z "$trace_id" ]; then
	echo "coordinator recorded no traces:" >&2
	cat "$tmpdir/coord_traces.json" >&2
	exit 1
fi
grep -q '"name":"coord/candidates"' "$tmpdir/coord_traces.json" || {
	echo "coordinator trace missing the scatter-gather round spans:" >&2
	cat "$tmpdir/coord_traces.json" >&2
	exit 1
}
i=0
while [ "$i" -lt 3 ]; do
	eval "addr=\$shard${i}_addr"
	curl -fsS "http://$addr/v1/debug/traces?trace=$trace_id" >"$tmpdir/shard${i}_traces.json"
	grep -q "\"traceId\":\"$trace_id\"" "$tmpdir/shard${i}_traces.json" || {
		echo "shard $i has no spans for coordinator trace $trace_id:" >&2
		cat "$tmpdir/shard${i}_traces.json" >&2
		exit 1
	}
	i=$((i + 1))
done
echo "trace $trace_id spans the coordinator and all 3 shards"

echo "== exact and pruned mode: lofcoord answers as a single lofserve does"
# A single-role lofserve fitted with the same data must return the
# byte-identical exact body and ?mode=pruned body, and the pruned body
# must certify at least one query, so the check cannot pass on exact
# answers alone.
"$tmpdir/lofserve" -addr 127.0.0.1:0 >"$tmpdir/single.log" 2>&1 &
pids="$pids $!"
single=http://$(wait_addr "$tmpdir/single.log")
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary @"$tmpdir/fit.json" "$single/v1/fit" >/dev/null
curl -fsS -o "$tmpdir/exact_single.json" -X POST -H 'Content-Type: application/json' \
	-d "$queries" "$single/v1/score"
cmp -s "$tmpdir/scores_before.json" "$tmpdir/exact_single.json" || {
	echo "exact answers differ across tiers:" >&2
	echo "-- lofcoord:" >&2
	cat "$tmpdir/scores_before.json" >&2
	echo "-- lofserve:" >&2
	cat "$tmpdir/exact_single.json" >&2
	exit 1
}
echo "exact: byte-identical bodies on both tiers"
code=$(score "$tmpdir/pruned_coord.json" "?mode=pruned")
curl -fsS -o "$tmpdir/pruned_single.json" -X POST -H 'Content-Type: application/json' \
	-d "$queries" "$single/v1/score?mode=pruned"
certified=$(sed -n 's/.*"certified":\([0-9]*\).*/\1/p' "$tmpdir/pruned_coord.json")
if [ "$code" != 200 ] || [ "${certified:-0}" -lt 1 ] ||
	! cmp -s "$tmpdir/pruned_coord.json" "$tmpdir/pruned_single.json"; then
	echo "pruned answers differ across tiers or certify nothing (lofcoord status $code):" >&2
	echo "-- lofcoord:" >&2
	cat "$tmpdir/pruned_coord.json" >&2
	echo "-- lofserve:" >&2
	cat "$tmpdir/pruned_single.json" >&2
	exit 1
fi
echo "pruned: byte-identical bodies on both tiers, $certified of 5 queries certified"

echo "== kill shard 1 mid-serving"
kill -9 "$shard1_pid"
wait "$shard1_pid" 2>/dev/null || true

# Exact requests must fail loudly, not answer wrong.
code=$(score "$tmpdir/scores_down.json" "")
[ "$code" = 502 ] || {
	echo "exact score with a dead shard returned $code, want 502:" >&2
	cat "$tmpdir/scores_down.json" >&2
	exit 1
}
# Degraded opt-in keeps answering, explicitly labeled.
code=$(score "$tmpdir/scores_degraded.json" "?mode=degraded")
[ "$code" = 200 ] && grep -q '"mode":"degraded"' "$tmpdir/scores_degraded.json" || {
	echo "degraded fallback failed ($code):" >&2
	cat "$tmpdir/scores_degraded.json" >&2
	exit 1
}

echo "== restart the shard empty; repair must re-push"
"$tmpdir/lofserve" -addr "$shard1_addr" >"$tmpdir/shard1b.log" 2>&1 &
pids="$pids $!"
wait_addr "$tmpdir/shard1b.log" >/dev/null

recovered=0
for _ in $(seq 1 100); do
	code=$(score "$tmpdir/scores_after.json" "") || code=000
	if [ "$code" = 200 ] && cmp -s "$tmpdir/scores_before.json" "$tmpdir/scores_after.json"; then
		recovered=1
		break
	fi
	sleep 0.2
done
if [ "$recovered" != 1 ]; then
	echo "tier did not recover exact scoring after shard restart" >&2
	echo "-- before:" >&2
	cat "$tmpdir/scores_before.json" >&2
	echo "-- after (last, code $code):" >&2
	cat "$tmpdir/scores_after.json" >&2 || true
	echo "-- coordinator log:" >&2
	tail -n 20 "$tmpdir/coord.log" >&2
	exit 1
fi
echo "recovered: post-restart scores byte-identical to pre-kill scores"

echo "== distinct mode: lofcoord answers as a single lofserve does"
# The same clusters plus a pile of six exact duplicates, fitted with
# k-distinct-distance semantics on both tiers. The coordinator recomputes
# distinct ranks from the points of the model it fitted, so its exact and
# ?mode=pruned bodies must equal the single lofserve's byte for byte, and
# the pruned body must certify at least one query.
awk 'BEGIN {
	printf "{\"config\":{\"minPtsLB\":3,\"minPtsUB\":8,\"distinct\":true},\"data\":["
	for (i = 0; i < 120; i++) {
		cx = (i % 2) * 10; cy = (i % 2) * 10
		x = cx + (i % 7) / 7 - 0.5; y = cy + (i % 5) / 5 - 0.5
		printf "%s[%.6f,%.6f]", (i ? "," : ""), x, y
	}
	for (i = 0; i < 6; i++) printf ",[5,5]"
	printf ",[40,-40]]}"
}' >"$tmpdir/fit_distinct.json"
for target in "$coord" "$single"; do
	curl -fsS -X POST -H 'Content-Type: application/json' \
		--data-binary @"$tmpdir/fit_distinct.json" "$target/v1/fit" >"$tmpdir/fit_distinct_resp.json"
	grep -q '"distinct":true' "$tmpdir/fit_distinct_resp.json" || {
		echo "unexpected distinct fit response from $target:" >&2
		cat "$tmpdir/fit_distinct_resp.json" >&2
		exit 1
	}
done
for mode in exact pruned; do
	suffix=""
	[ "$mode" = pruned ] && suffix="?mode=pruned"
	code=$(score "$tmpdir/distinct_${mode}_coord.json" "$suffix")
	curl -fsS -o "$tmpdir/distinct_${mode}_single.json" -X POST -H 'Content-Type: application/json' \
		-d "$queries" "$single/v1/score$suffix"
	if [ "$code" != 200 ] || ! cmp -s "$tmpdir/distinct_${mode}_coord.json" "$tmpdir/distinct_${mode}_single.json"; then
		echo "distinct $mode answers differ across tiers (lofcoord status $code):" >&2
		echo "-- lofcoord:" >&2
		cat "$tmpdir/distinct_${mode}_coord.json" >&2
		echo "-- lofserve:" >&2
		cat "$tmpdir/distinct_${mode}_single.json" >&2
		exit 1
	fi
done
certified=$(sed -n 's/.*"certified":\([0-9]*\).*/\1/p' "$tmpdir/distinct_pruned_coord.json")
[ "${certified:-0}" -ge 1 ] || {
	echo "distinct pruned answer certifies nothing:" >&2
	cat "$tmpdir/distinct_pruned_coord.json" >&2
	exit 1
}
echo "distinct: byte-identical exact and pruned bodies on both tiers, $certified of 5 queries certified"

echo "== lofload against the coordinator (JSON report)"
"$tmpdir/lofload" -addr "$coord" -duration 2s -rps 40 -workers 4 -batch 4 \
	-json "$tmpdir/load.json" >"$tmpdir/load.log" 2>&1 || {
	echo "lofload failed:" >&2
	cat "$tmpdir/load.log" >&2
	exit 1
}
grep -q '"failed": 0' "$tmpdir/load.json" && grep -q '"achieved_rps"' "$tmpdir/load.json" || {
	echo "lofload JSON report missing or reported failures:" >&2
	cat "$tmpdir/load.json" >&2
	exit 1
}

echo "shard smoke OK"
