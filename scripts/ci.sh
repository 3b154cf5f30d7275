#!/usr/bin/env bash
# CI gate: vet, formatting, build, the race-enabled test suite, the
# zero-allocation hot-path assertions, and the perf trajectory checks.
# The serving scheduler is concurrent by design — the -race run is the
# contract that it stays race-clean.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
# -tests=true (the default, stated explicitly) also vets *_test.go, which
# covers the benchmark files.
go vet -tests=true ./...
# elsaperf is its own module, so ./... above does not reach it.
(cd elsaperf && go vet ./...)

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
# Every package's tests once under the race detector, never from cache:
# the serving subsystem, session migration, the autoscale loop and the
# exact linear-scan differential suite all run here.
go test -race -count=1 ./...

echo "== dispatch pacing under -race, repeated =="
# A submitter kicks its replica set after it enqueues, and a lane
# harvests again when it finishes a batch: that handoff is where a lost
# wakeup would strand an op, and one -race pass sees too few
# interleavings to find it. A reroute hands failed ops to a sibling lane
# through the same rule. Run the pacing, refusal, stranded-op and
# reroute tests twenty times.
go test -race -count=20 -run '^(TestIdleLaneTakesLoneOp|TestHeldLanesHarvestWeightedBatch|TestNoStrandedOps|TestRerouteNeverSharesALane|TestPipelineRefusals|TestDecodeDeadlineSkipsBatchWindow|TestWeightedDequeueDefersBackground|TestStepWavePreemptsBackground|TestMaxBatchDispatchesEarly|TestGracefulCloseDrainsPending)$' ./internal/serve/

echo "== elsaperf logic tests =="
# elsaperf is its own module, so ./... above does not reach it; run the
# benchmark harness's own tests from inside it.
(cd elsaperf && go test -count=1 ./...)

echo "== fuzz smoke: /v1/attend decoder =="
# Ten seconds of coverage-guided inputs through the handler's decoder and
# the encoding/json path (envelope decode, packed unpack,
# AttendRequest.validate): both agree, accept or 400, never panic.
go test -run '^$' -fuzz '^FuzzAttendEnvelope$' -fuzztime 10s ./internal/serve/

echo "== fuzz smoke: /v1/sessions/step decoder =="
# The same for a step wave: envelope decode, then the per-entry checks
# and packed-query decode of SessionStepRequest.unpack.
go test -run '^$' -fuzz '^FuzzStepWave$' -fuzztime 10s ./internal/serve/

echo "== zero-alloc hot path =="
# The alloc assertions are the steady-state performance contract; run them
# explicitly so they can never be skipped under -short, with -count=1 to
# defeat test caching.
go test -count=1 -run 'ZeroAlloc' ./internal/attention/ ./internal/serve/

echo "== perf trajectory (committed files) =="
# Gate the committed trajectories themselves: compare the two newest
# BENCH_*.json engine snapshots, and the two newest BENCH_*_serving.json
# serving snapshots, without re-measuring, so a PR that commits a
# regressed snapshot is caught even on noisy hardware. One keyed
# comparator (cmd/elsabench/gate.go) covers every family: engine ns/op;
# serving ops/s, decode mean_batch, migration moves/s and resident bytes,
# autoscale convergence and mirror cost, exact-backend tokens/s. The
# exact family's absolute checks (differential bound, linear-scan memory
# ceiling) run on the newest snapshot whenever it has exact rows; the
# relative checks skip families absent from either snapshot. Warns by
# default; PERF_STRICT=1 fails the build.
gate_committed() {
    local experiment="$1"; shift
    local files=("$@")
    if [ "${#files[@]}" -lt 2 ]; then
        echo "fewer than two committed $experiment snapshots; skipping"
        return
    fi
    local prev="${files[-2]}" newest="${files[-1]}"
    echo "comparing committed $newest vs $prev"
    if go run ./cmd/elsabench -experiment "$experiment" \
        -compare "$newest" -baseline "$prev"; then
        return
    fi
    if [ "${PERF_STRICT:-0}" = "1" ]; then
        echo "committed $experiment trajectory regressed (PERF_STRICT=1): failing" >&2
        exit 1
    fi
    echo "WARNING: committed $newest regressed >15% vs $prev (set PERF_STRICT=1 to fail)" >&2
}
mapfile -t bench_files < <(ls -1 BENCH_*.json 2>/dev/null | grep -v '_serving\.json' | sort -V)
gate_committed bench "${bench_files[@]}"
mapfile -t serving_files < <(ls -1 BENCH_*_serving.json 2>/dev/null | sort -V)
gate_committed serve "${serving_files[@]}"

echo "== perf trajectory (fresh run) =="
# Compare ns/op against the newest committed BENCH_*.json. Measurements on
# shared CI machines are noisy, so a >15% regression warns by default; set
# PERF_STRICT=1 to make it fail the build.
baseline=$(ls -1 BENCH_*.json 2>/dev/null | grep -v '_serving\.json' | sort -V | tail -n 1 || true)
if [ -n "$baseline" ]; then
    echo "baseline: $baseline"
    perf_json=$(mktemp /tmp/elsabench.XXXXXX.json)
    if go run ./cmd/elsabench -experiment bench -json "$perf_json" \
        -baseline "$baseline"; then
        :
    else
        if [ "${PERF_STRICT:-0}" = "1" ]; then
            echo "perf regression (PERF_STRICT=1): failing" >&2
            rm -f "$perf_json"
            exit 1
        fi
        echo "WARNING: ns/op regressed >15% vs $baseline (set PERF_STRICT=1 to fail)" >&2
    fi
    rm -f "$perf_json"
else
    echo "no committed BENCH_*.json baseline; skipping"
fi

echo "CI OK"
