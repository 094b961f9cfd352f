#!/bin/sh
# bench.sh runs the query-engine and pipeline benchmarks with -benchmem and
# folds the results into a JSON baseline artifact, so regressions in ns/op
# or allocs/op on the kNN hot path are visible across commits. CI uploads
# the artifact on every run.
#
# Usage:
#   ./scripts/bench.sh [out.json] [benchtime]
#
# out.json defaults to BENCH_7.json; benchtime defaults to 1x, which is a
# smoke run — pass e.g. 2s for stable numbers.
set -eu

cd "$(dirname "$0")/.."

out=${1:-BENCH_7.json}
benchtime=${2:-1x}
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# Fit/score pipeline, approximate-path, and snapshot-load benchmarks
# (repo root), per-index cursor KNN benchmarks, and
# streaming ingestion benchmarks.
go test -run NONE -bench 'Fit|ScoreBatch|SnapshotLoad|ApproxScore' -benchtime "$benchtime" -benchmem . | tee -a "$tmp"
go test -run NONE -bench 'KNN' -benchtime "$benchtime" -benchmem ./internal/index/... | tee -a "$tmp"
go test -run NONE -bench 'Stream' -benchtime "$benchtime" -benchmem ./internal/stream | tee -a "$tmp"

# Fold benchmark result lines into JSON. Values are located by their unit
# suffix rather than by column, so benchmarks reporting extra custom
# metrics parse correctly too.
awk -v benchtime="$benchtime" '
BEGIN { n = 0 }
/^Benchmark/ && NF >= 4 {
    name = $1; iters = $2; ns = "null"; bytes = "null"; allocs = "null"
    gsub(/"/, "", name)
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        else if ($(i + 1) == "B/op") bytes = $i
        else if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns == "null") next
    rec[n++] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, iters, ns, bytes, allocs)
}
END {
    printf "{\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", benchtime
    for (i = 0; i < n; i++) printf "%s%s\n", rec[i], (i < n - 1 ? "," : "")
    printf "  ]\n}\n"
}' "$tmp" >"$out"

count=$(grep -c '"name"' "$out" || true)
if [ "$count" -eq 0 ]; then
    echo "bench.sh: no benchmark results parsed" >&2
    exit 1
fi
echo "wrote $out ($count benchmarks, benchtime=$benchtime)"
