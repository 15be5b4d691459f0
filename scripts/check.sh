#!/bin/sh
# check.sh — tier-1 style verification: formatting, build, vet, full tests,
# a race pass over the packages that touch concurrency (the experiment
# worker pool, the engine it drives, the harness that fans runs across it,
# and the scenario engine's chaos campaigns), the trace-determinism smoke,
# and the documentation gate (cmd/doccheck).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race (concurrency-touching packages)"
go test -race ./internal/parallel/ ./internal/sim/ ./internal/experiments/ ./internal/checkpoint/ \
    ./internal/obs/ ./internal/serve/ ./internal/bgp/ ./internal/rib/ ./internal/traffic/ \
    ./internal/boundary/

echo "== sealed-attrs immutability assertions (-tags crystaldebug)"
go test -tags crystaldebug ./internal/bgp/

echo "== fuzz: UpdatePrefixes agrees with Decode on every accepted UPDATE (10 s)"
go test ./internal/bgp -run '^$' -fuzz '^FuzzUpdatePrefixes$' -fuzztime 10s

echo "== fuzz: DecodePacket never panics and round-trips what it accepts (10 s)"
go test ./internal/ospf -run '^$' -fuzz '^FuzzDecodePacket$' -fuzztime 10s

echo "== concurrent-fork smoke under -race"
go test -race ./internal/core/ -run 'TestCheckpoint|TestFork|TestClearAfterFork|TestConcurrentForks'

echo "== scenario smoke under -race"
go test -race ./internal/scenario/ -run 'TestSmoke|TestChaosSerialParallelIdentical'

echo "== fork-determinism smoke under -race (fresh vs forked, byte-compare)"
go test -race ./internal/scenario/ -run 'TestForkedRunMatchesFreshRun|TestChaosReuse'

echo "== traffic-plane determinism under -race (workers/fork, byte-compare)"
go test -race ./internal/scenario/ -run 'TestTraffic' -timeout 10m

echo "== trace-determinism smoke (same-seed traces byte-identical, incl. across a fork)"
go test ./internal/scenario/ -run 'TestTraceDeterminism|TestTraceSurvivesFork|TestChaosTraceDeterminism'

echo "== failure-path smoke under -race (MTBF campaign, lost faults, bounded recovery)"
go test -race ./internal/scenario/ -run 'TestMTBFCampaignSerialParallelIdentical|TestLostFaultFailsRun|TestFailurePathByteDeterminism'
go test -race ./internal/core/ -run 'TestDoubleFailureDuringRecovery|TestDeprovisionMidRebootAbandonsRecovery|TestRecoveryDeadline|TestSupervisedMockupConverges|TestSpeakerVMRecoveryReinjectsRoutes'

echo "== crystald smoke (boot, rehearse over HTTP twice, drain on SIGTERM)"
tmp=$(mktemp -d)
daemon=
cleanup() {
    if [ -n "$daemon" ] && kill -0 "$daemon" 2>/dev/null; then
        kill "$daemon" 2>/dev/null || true
        wait "$daemon" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT
go build -o "$tmp/crystald" ./cmd/crystald
go build -o "$tmp/crystalctl" ./cmd/crystalctl
"$tmp/crystald" -addr 127.0.0.1:0 -portfile "$tmp/port" 2>"$tmp/crystald.log" &
daemon=$!
i=0
while [ ! -s "$tmp/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$daemon" 2>/dev/null; then
        echo "crystald failed to boot; log:" >&2
        cat "$tmp/crystald.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/port")
# First request converges the base fabric (pool miss), second forks it (hit);
# both must pass the scenario's invariants.
"$tmp/crystalctl" rehearse -server "$addr" scenarios/rehearse_smoke.json >/dev/null
"$tmp/crystalctl" rehearse -server "$addr" scenarios/rehearse_smoke.json >/dev/null
kill -TERM "$daemon"
if ! wait "$daemon"; then
    echo "crystald did not drain cleanly; log:" >&2
    cat "$tmp/crystald.log" >&2
    exit 1
fi
daemon=

echo "== boundary-solver smoke (S-DC solve, plan output byte-deterministic)"
"$tmp/crystalctl" plan -solve tor-p0-0,tor-p1-0 >"$tmp/solve1.out"
"$tmp/crystalctl" plan -solve tor-p0-0,tor-p1-0 >"$tmp/solve2.out"
if ! cmp -s "$tmp/solve1.out" "$tmp/solve2.out"; then
    echo "plan -solve output not byte-deterministic across runs:" >&2
    diff "$tmp/solve1.out" "$tmp/solve2.out" >&2 || true
    exit 1
fi
grep -q "safe-boundary solve" "$tmp/solve1.out"

echo "== docs gate (every package carries a doc comment linking the design docs)"
go run ./cmd/doccheck

# perfbench is its own module, so the root build never compiles it: vet and
# test it here so a library API change cannot break the benchmark unnoticed.
echo "== perfbench module (vet + test)"
(cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...)

# M-DC smoke: converge the 580-device fabric once. Skipped under SHORT=1
# for quick iteration.
if [ "${SHORT:-}" != "1" ]; then
    echo "== M-DC smoke (crystalbench -scale mdc, bounded)"
    timeout 600 go run ./cmd/crystalbench -scale mdc >/dev/null

    echo "== traffic smoke (S-DC campaign under a 1M-flow matrix with assert-flow-slo)"
    timeout 600 "$tmp/crystalctl" run-scenario scenarios/traffic_slo.json >/dev/null
else
    echo "== M-DC and traffic smokes skipped (SHORT=1)"
fi

echo "OK"
