#!/bin/sh
# bench.sh — one-shot benchmark capture: runs the crystalbench experiment
# suite (-quick -json), the §10 M-DC scale benchmark (one convergence,
# with closing runtime.MemStats), the traffic-plane benchmark (1M flows on
# S-DC, flows-settled/s), plus the Go micro-benchmarks for the hot
# packages, and merges everything into BENCH_<date>.json (gitignored) via
# cmd/benchjson.
#
#   scripts/bench.sh                 # quick suite + M-DC scale (~2 min)
#   BENCH_NOSCALE=1 scripts/bench.sh # skip the M-DC scale run (~15 s)
#   BENCH_FULL=1 scripts/bench.sh    # full Figure 8 sweep (minutes)
set -eu

cd "$(dirname "$0")/.."

out="BENCH_$(date +%Y%m%d).json"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== crystalbench -json" >&2
go build -o "$tmp/crystalbench" ./cmd/crystalbench
if [ "${BENCH_FULL:-}" = "1" ]; then
    "$tmp/crystalbench" -json >"$tmp/crystal.json"
else
    "$tmp/crystalbench" -quick -json >"$tmp/crystal.json"
fi

scale_args=""
if [ "${BENCH_NOSCALE:-}" != "1" ]; then
    echo "== crystalbench -scale mdc (wall-clock + peak heap/RSS)" >&2
    "$tmp/crystalbench" -scale mdc -json -memstats "$tmp/memstats.json" >"$tmp/scale.json"
    scale_args="-scale $tmp/scale.json -memstats $tmp/memstats.json"
fi

echo "== crystalbench -traffic (1M flows on S-DC, flows-settled/s)" >&2
"$tmp/crystalbench" -traffic 1000000 -json >"$tmp/traffic.json"
scale_args="$scale_args -traffic $tmp/traffic.json"

echo "== go micro-benchmarks" >&2
go test -run '^$' -bench . -benchmem -benchtime 0.2s \
    ./internal/trie/ ./internal/sim/ ./internal/bgp/ ./internal/rib/ \
    ./internal/obs/ ./internal/dataplane/ ./internal/p4/ >"$tmp/micro.txt"

# shellcheck disable=SC2086 # scale_args is intentionally word-split
go run ./cmd/benchjson -crystal "$tmp/crystal.json" $scale_args <"$tmp/micro.txt" >"$out"
echo "wrote $out" >&2
