#!/bin/sh
# benchcmp.sh re-runs the benchmark suite and compares it against a
# committed baseline (BENCH_7.json by default), failing on regressions:
#
#   - ns/op more than 30% above the baseline on any benchmark, or
#   - any allocs/op increase on the allocation-gated benchmarks: the
#     deterministic kNN hot paths (BenchmarkKNN*), snapshot loading
#     (BenchmarkSnapshotLoad*), and out-of-sample scoring, exact and
#     approximate (BenchmarkScoreBatch*, BenchmarkApproxScore*). Fit
#     allocation counts vary with scheduling and are only reported,
#     never gated.
#
# Duplicate benchmark names (BenchmarkKNNCursor exists once per index package)
# are matched by occurrence order, which is stable because bench.sh runs
# packages in a fixed order.
#
# The committed baseline was produced on a different machine than CI
# runners, so absolute ns/op comparisons across machines are advisory:
# the CI bench-gate step sets BENCHCMP_ADVISORY=1, which prints every
# verdict but always exits 0. Run without it on the machine that produced
# the baseline to enforce the thresholds:
#
#   ./scripts/benchcmp.sh                  # compare against BENCH_7.json
#   ./scripts/benchcmp.sh BENCH_7.json 2s  # longer benchtime, stabler ns/op
#
# A baseline produced by stream_bench.sh (recognized by its
# "inserts_per_sec" field, BENCH_5.json by convention) switches to the
# streaming gate instead: the same lofload workload is re-run, and the run
# fails when sustained inserts/sec drops below baseline/1.30 or the
# insert-push p99 rises above baseline*1.30. The second argument is then a
# duration (default 5s) rather than a benchtime:
#
#   ./scripts/benchcmp.sh BENCH_5.json 30s
set -eu

cd "$(dirname "$0")/.."

baseline=${1:-BENCH_7.json}
benchtime=${2:-1x}
threshold=1.30

if [ ! -f "$baseline" ]; then
	echo "benchcmp.sh: baseline $baseline not found" >&2
	exit 1
fi

# stream_field file block key: the value of "key" inside the JSON object
# named "block" of a pretty-printed lofload report.
stream_field() {
	awk -v block="\"$2\":" -v key="\"$3\":" '
		index($0, block) { inblock = 1; next }
		inblock && index($0, key) { gsub(/[",]/, "", $2); print $2; exit }
		inblock && /}/ { inblock = 0 }
	' "$1"
}

if grep -q '"inserts_per_sec"' "$baseline"; then
	duration=$benchtime
	case "$duration" in
	1x) duration=5s ;; # benchtime default leaked in: use the soak default
	esac
	current=$(mktemp)
	trap 'rm -f "$current"' EXIT
	./scripts/stream_bench.sh "$current" "$duration"

	base_ips=$(stream_field "$baseline" stream inserts_per_sec)
	cur_ips=$(stream_field "$current" stream inserts_per_sec)
	base_p99=$(stream_field "$baseline" insert_latency p99_ms)
	cur_p99=$(stream_field "$current" insert_latency p99_ms)
	failed=$(sed -n 's/^ *"failed": \([0-9]*\),*$/\1/p' "$current" | head -n 1)
	if [ -z "$base_ips" ] || [ -z "$cur_ips" ] || [ -z "$base_p99" ] || [ -z "$cur_p99" ]; then
		echo "benchcmp.sh: could not parse streaming records" >&2
		exit 1
	fi

	awk -v threshold="$threshold" -v advisory="${BENCHCMP_ADVISORY:-0}" \
		-v bips="$base_ips" -v cips="$cur_ips" \
		-v bp99="$base_p99" -v cp99="$cur_p99" -v failed="${failed:-0}" '
	BEGIN {
		regressions = 0
		ips_ratio = bips / cips
		printf "%-5s %7.2fx stream inserts/sec (%.0f -> %.0f)\n",
			(ips_ratio > threshold ? "SLOW" : "ok"), ips_ratio, bips, cips
		if (ips_ratio > threshold) regressions++
		p99_ratio = cp99 / bp99
		printf "%-5s %7.2fx stream insert p99 (%.2f -> %.2f ms)\n",
			(p99_ratio > threshold ? "SLOW" : "ok"), p99_ratio, bp99, cp99
		if (p99_ratio > threshold) regressions++
		if (failed + 0 > 0) {
			printf "FAIL   %d requests never succeeded\n", failed
			regressions++
		}
		if (regressions > 0) {
			printf "benchcmp.sh: %d streaming regression(s) against the baseline\n", regressions > "/dev/stderr"
			if (advisory != "1") exit 1
			print "benchcmp.sh: BENCHCMP_ADVISORY=1, reporting only" > "/dev/stderr"
		}
	}'
	echo "benchcmp.sh: compared against $baseline (threshold ${threshold}x, duration $duration)"
	exit 0
fi

current=$(mktemp)
basetab=$(mktemp)
curtab=$(mktemp)
trap 'rm -f "$current" "$basetab" "$curtab"' EXIT

./scripts/bench.sh "$current" "$benchtime"

# extract flattens a bench.sh JSON artifact into "name ns_per_op
# allocs_per_op" lines, one per record, preserving order.
extract() {
	sed -n 's/^ *{"name": "\([^"]*\)", "iterations": [^,]*, "ns_per_op": \([^,]*\), "bytes_per_op": [^,]*, "allocs_per_op": \([^}]*\)}.*$/\1 \2 \3/p' "$1"
}

extract "$baseline" >"$basetab"
extract "$current" >"$curtab"

if [ ! -s "$basetab" ] || [ ! -s "$curtab" ]; then
	echo "benchcmp.sh: could not parse benchmark records" >&2
	exit 1
fi

awk -v threshold="$threshold" -v advisory="${BENCHCMP_ADVISORY:-0}" '
NR == FNR {
	key = $1 "#" occ[$1]++
	base_ns[key] = $2
	base_allocs[key] = $3
	next
}
{
	key = $1 "#" cur_occ[$1]++
	compared++
	if (!(key in base_ns)) {
		printf "NEW            %s (no baseline entry)\n", $1
		next
	}
	ratio = $2 / base_ns[key]
	printf "%-5s %7.2fx %s (%.0f -> %.0f ns/op)\n",
		(ratio > threshold ? "SLOW" : "ok"), ratio, $1, base_ns[key], $2
	if (ratio > threshold) regressions++
	# Alloc gate: the deterministic kNN hot paths, snapshot loading, and
	# batch scoring (exact and approximate).
	if ($1 ~ /^Benchmark(KNN|SnapshotLoad|ScoreBatch|ApproxScore)/ && $3 != "null" && base_allocs[key] != "null" && $3 + 0 > base_allocs[key] + 0) {
		printf "ALLOC          %s (%s -> %s allocs/op)\n", $1, base_allocs[key], $3
		regressions++
	}
}
END {
	if (compared == 0) {
		print "benchcmp.sh: no benchmarks compared" > "/dev/stderr"
		exit 1
	}
	if (regressions > 0) {
		printf "benchcmp.sh: %d regression(s) against the baseline\n", regressions > "/dev/stderr"
		if (advisory != "1") exit 1
		print "benchcmp.sh: BENCHCMP_ADVISORY=1, reporting only" > "/dev/stderr"
	}
}' "$basetab" "$curtab"

echo "benchcmp.sh: compared against $baseline (threshold ${threshold}x, benchtime $benchtime)"
