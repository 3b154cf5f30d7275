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
# The hash, dot and accumulate kernels have amd64 assembly files;
# vetting for arm64 keeps the build without them (the Go loops and the
# assembly stubs) compiling.
GOARCH=arm64 go vet ./...

echo "== no fused multiply-add in the float kernels' Go loops =="
# The spec lets a compiler fuse x*y + z into one rounding, and arm64 does.
# The Go loops of Dot, matMulTRow, addWeightedRows and addScanTile round
# each product explicitly, so every architecture gets the AVX2 kernels'
# bits; weightedSum's Quantized accumulator and ExactCausal do too, so
# arm64 gets amd64's bits there. Fail if the arm64 listing of one of them
# fuses anyway, or is missing (a renamed function must be renamed here
# too).
listing=$(GOARCH=arm64 go build -gcflags='elsa/internal/tensor=-S' -o /dev/null ./internal/tensor 2>&1
    GOARCH=arm64 go build -gcflags='elsa/internal/attention=-S' -o /dev/null ./internal/attention 2>&1)
for fn in tensor.Dot tensor.matMulTRow attention.addWeightedRows attention.addScanTile \
    'attention.(*Engine).weightedSum' attention.ExactCausal; do
    body=$(printf '%s\n' "$listing" | awk -v f="elsa/internal/$fn" '/^[^ \t]/ {on = ($1 == f && $2 == "STEXT")} on')
    if [ -z "$body" ]; then
        echo "no arm64 listing of $fn" >&2
        exit 1
    fi
    if printf '%s\n' "$body" | grep -Eq 'FN?M(ADD|SUB)'; then
        echo "arm64 fuses a multiply-add in $fn:" >&2
        printf '%s\n' "$body" | grep -E 'FN?M(ADD|SUB)' >&2
        exit 1
    fi
done

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
# through the same rule. A heartbeat that crosses an operator drain must
# not revive the drained member. An attend whose deadline expires while
# it is queued, held on a lane or on the wire to a worker must leave its
# pooled buffers alone until no lane reads them, and a client body must
# outlive every reader the transport takes of it; the tests poison each
# released buffer, so a read after release races with the poisoning.
# Run the pacing, refusal, stranded-op, reroute, stale-heartbeat and
# buffer-lifetime tests twenty times.
go test -race -count=20 -run '^(TestIdleLaneTakesLoneOp|TestHeldLanesHarvestWeightedBatch|TestNoStrandedOps|TestRerouteNeverSharesALane|TestPipelineRefusals|TestTightDeadlineServedOnIdleLane|TestWeightedDequeueDefersBackground|TestStepWavePreemptsBackground|TestMaxBatchDispatchesEarly|TestGracefulCloseDrainsPending|TestTableStaleHeartbeatKeepsOperatorDrain|TestCancelledAttendQueued|TestCancelledAttendOnHeldLane|TestCancelledAttendRemote|TestAttendBodyOutlivesRoundTrip)$' ./internal/serve/ ./internal/serve/cluster/ ./serve/client/
# Worker-loss recovery and a dispatch-only frontend's import move a
# session to a worker under its gate while probes flip worker health on
# other goroutines; run both twenty times too, in their own process.
go test -race -count=20 -run '^(TestWorkerLossRecoversFromShadow|TestSessionExportImportRoundTrip)$' ./internal/serve/

echo "== elsaperf logic tests =="
# elsaperf is its own module, so ./... above does not reach it; run the
# benchmark harness's own tests from inside it.
(cd elsaperf && go test -count=1 ./...)

echo "== fuzz smoke: /v1/attend decoder =="
# Ten seconds of coverage-guided inputs through the handler's decoder and
# the encoding/json path (envelope decode, unpackAttend,
# validateAttend): both agree, accept or 400, never panic.
go test -run '^$' -fuzz '^FuzzAttendEnvelope$' -fuzztime 10s ./internal/serve/

echo "== fuzz smoke: /v1/sessions/step decoder =="
# The same for a step wave: envelope decode, then the per-entry checks
# and packed-query decode of unpackStep.
go test -run '^$' -fuzz '^FuzzStepWave$' -fuzztime 10s ./internal/serve/

echo "== fuzz smoke: /v1/sessions/{id}/append decoder =="
# The same for an append body: the body scanner against envelope decode
# then unpackAppend, which must agree row for row, accept or 400, never
# panic.
go test -run '^$' -fuzz '^FuzzSessionAppend$' -fuzztime 10s ./internal/serve/

echo "== fuzz smoke: /v1/cluster/join handler =="
# Arbitrary bodies through a frontend's join handler: 200 or 4xx, never
# a panic, and an accepted member shows in GET /v1/cluster with the
# weight and state it sent. Worker probes dial nothing.
go test -run '^$' -fuzz '^FuzzClusterJoin$' -fuzztime 10s ./internal/serve/

echo "== fuzz smoke: /v1/sessions/import handler =="
# Arbitrary envelope bodies (seeded with a real export reply) through a
# server's import handler: 4xx or 200, never a panic, and an accepted
# session takes an append and a query. Its inputs are export replies of
# 300-600 bytes; minimizing each new one at the default 60 s budget
# would take the whole 10 s, so minimization is cut to 1 s.
go test -run '^$' -fuzz '^FuzzSessionImport$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/

echo "== fuzz smoke: packed-row codec =="
# Arbitrary bytes through wire.DecodeRow, and the same bytes read as
# float32s through wire.AppendRow, with the AVX2 base64 kernels and
# without: out, bad index, error text and encoded bytes all equal
# encoding/base64's.
go test -run '^$' -fuzz '^FuzzRowCodec$' -fuzztime 10s ./internal/wire/

echo "== fuzz smoke: hash kernels =="
# Arbitrary float32 bit patterns (NaN, ±Inf, −0, subnormals) for 1–17
# rows through the generic mode products + PackSigns, the pure-Go
# (4×4)^⊗3 sign kernel and the AVX2 kernel: all agree bit for bit.
go test -run '^$' -fuzz '^FuzzHashKernels$' -fuzztime 10s ./internal/kron/

echo "== fuzz smoke: score kernels =="
# Random head dimensions, key counts, cold watermarks and candidate lists,
# with arbitrary finite float32 bit patterns planted in keys, values and
# the query: the AVX2 dot, softmax·V and linear-scan kernels and their Go
# loops match tensor.Dot and the row-wise references bit for bit.
go test -run '^$' -fuzz '^FuzzScoreKernels$' -fuzztime 10s ./internal/attention/

echo "== fuzz smoke: stream state import =="
# Arbitrary session blobs (seeded with float and Quantized exports, hot
# and cold, and their truncations) through ImportStream: never a panic,
# and an accepted blob re-exports to a fixpoint and takes an Append and
# a Query.
go test -run '^$' -fuzz '^FuzzImportStream$' -fuzztime 10s ./internal/attention/

echo "== fuzz smoke: exp kernel =="
# Arbitrary float64 bit patterns through tensor.ExpInto, with the
# four-lane FMA kernel and with the Go loop: both equal math.Exp bit for
# bit, NaN, ±Inf, subnormal and out-of-range lanes included.
go test -run '^$' -fuzz '^FuzzExpInto$' -fuzztime 10s ./internal/tensor/

echo "== fuzz smoke: threshold file load =="
# Arbitrary bytes (seeded with SaveThreshold output and damaged copies)
# through LoadThreshold: never a panic, an allocation bounded by the
# input, and an accepted threshold saves and loads back bit for bit.
go test -run '^$' -fuzz '^FuzzLoadThreshold$' -fuzztime 10s .

echo "== fuzz smoke: engine snapshot load =="
# Arbitrary bytes (seeded with Save output, damaged copies and Kronecker
# batches whose dimensions multiply past their data) through LoadEngine:
# never a panic, an allocation bounded by the input, and an accepted
# engine saves and loads back to the same snapshot.
go test -run '^$' -fuzz '^FuzzLoadEngine$' -fuzztime 10s .

echo "== zero-alloc hot path =="
# The alloc assertions are the steady-state performance contract; run them
# explicitly so they can never be skipped under -short, with -count=1 to
# defeat test caching. Beside the zero-alloc pins: the packed decodes'
# constant allocation counts, the pooled /v1/attend path's bytes per op
# at both ends, and the engine reading contiguous rows in place without
# writing any backend's inputs.
go test -count=1 -run 'ZeroAlloc|PackedDecodeAllocs|AttendSteadyAllocs|AttendBodyReused|ToMatrix|BackendsLeaveRowsUnchanged' . ./internal/attention/ ./internal/serve/ ./serve/client/

echo "== perf trajectory (committed files) =="
# Gate the committed trajectories themselves: compare the two newest
# BENCH_*.json engine snapshots, and the two newest BENCH_*_serving.json
# serving snapshots, without re-measuring, so a PR that commits a
# regressed snapshot is caught even on noisy hardware. One keyed
# comparator (cmd/elsabench/gate.go) gates every family two snapshots
# share: engine ns/op; migration moves/s and resident bytes, autoscale
# convergence and mirror cost, exact-backend tokens/s. The exact
# family's absolute checks (differential bound, linear-scan memory
# ceiling) run on the newest snapshot whenever it has exact rows.
# Serving throughput and decode batching are measured out of process by
# elsaperf: its two newest committed BENCH_*_elsaperf.jsonl record files
# are replayed through `elsaperf steady -load`, which holds every
# end-to-end metric to BENCHMARK.json's bound and the runs' spread.
# Warns by default; PERF_STRICT=1 fails the build.
perf_warn() {
    if [ "${PERF_STRICT:-0}" = "1" ]; then
        echo "$1 (PERF_STRICT=1): failing" >&2
        exit 1
    fi
    echo "WARNING: $1 (set PERF_STRICT=1 to fail)" >&2
}
gate_committed() {
    local label="$1"; shift
    local files=("$@")
    if [ "${#files[@]}" -lt 2 ]; then
        echo "fewer than two committed $label snapshots; skipping"
        return
    fi
    local prev="${files[-2]}" newest="${files[-1]}"
    echo "comparing committed $newest vs $prev"
    go run ./cmd/elsabench -compare "$newest" -baseline "$prev" ||
        perf_warn "committed $newest regressed >15% vs $prev"
}
mapfile -t bench_files < <(ls -1 BENCH_*.json 2>/dev/null | grep -v '_serving\.json' | sort -V)
gate_committed engine "${bench_files[@]}"
mapfile -t serving_files < <(ls -1 BENCH_*_serving.json 2>/dev/null | sort -V)
gate_committed serving "${serving_files[@]}"
mapfile -t elsaperf_files < <(ls -1 BENCH_*_elsaperf.jsonl 2>/dev/null | sort -V)
if [ "${#elsaperf_files[@]}" -lt 2 ]; then
    echo "fewer than two committed elsaperf record files; skipping"
else
    prev="${elsaperf_files[-2]}" newest="${elsaperf_files[-1]}"
    echo "replaying committed $newest vs $prev"
    bash elsaperf/run.sh steady -load "$prev,$newest" ||
        perf_warn "committed $newest is worse than $prev beyond a bound, or too spread to tell"
fi

echo "== perf trajectory (fresh run) =="
# Compare ns/op against the newest committed BENCH_*.json. Measurements on
# shared CI machines are noisy, so a >15% regression warns by default; set
# PERF_STRICT=1 to make it fail the build.
baseline=$(ls -1 BENCH_*.json 2>/dev/null | grep -v '_serving\.json' | sort -V | tail -n 1 || true)
if [ -n "$baseline" ]; then
    echo "baseline: $baseline"
    perf_json=$(mktemp /tmp/elsabench.XXXXXX.json)
    go run ./cmd/elsabench -experiment bench -json "$perf_json" -baseline "$baseline" ||
        { rm -f "$perf_json"; perf_warn "ns/op regressed >15% vs $baseline"; }
    rm -f "$perf_json"
else
    echo "no committed BENCH_*.json baseline; skipping"
fi

echo "CI OK"
