#!/bin/sh
# Tier-1 verification plus the concurrency checks for the parallel
# experiment engine. Run from the repository root.
set -eu

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== benchmark module: go vet + go test =="
# bench/ is a separate Go module, so the root ./... never compiles it;
# this keeps an API change from silently breaking bench/run.sh.
go -C bench vet ./...
go -C bench test ./...

echo "== go test -race (parallel engine + sim + telemetry + serving plane) =="
go test -race ./internal/sim ./internal/experiments ./internal/telemetry ./cmd/internal/cli \
    ./internal/serve ./internal/archive

echo "== benchmark smoke: fetch port stays allocation-free =="
bench=$(go test -run=NONE -bench=BenchmarkFetchPort -benchtime=10x -benchmem .)
echo "$bench"
if ! echo "$bench" | grep -q "BenchmarkFetchPort.* 0 allocs/op"; then
    echo "ci.sh: BenchmarkFetchPort allocates on the hot path" >&2
    exit 1
fi

echo "== benchmark smoke: predecoded timing loop stays allocation-free =="
# The steady-state cycle loop (RunPipelineInto over the shared predecode
# table) must perform zero heap allocations; both ISA configurations are
# checked.
bench=$(go test -run=NONE -bench=BenchmarkPipelineSteadyState -benchtime=1x -benchmem .)
echo "$bench"
if [ "$(echo "$bench" | grep -c "BenchmarkPipelineSteadyState/.* 0 allocs/op")" -ne 2 ]; then
    echo "ci.sh: pipeline steady-state cycle loop allocates" >&2
    exit 1
fi

echo "== benchmark smoke: tracing entry point stays allocation-free =="
# The one cycle loop must allocate nothing with a nil sink (every Emit
# guard not taken) and nothing per event with a ring sink attached;
# both paths are gated at 0 allocs/op.
bench=$(go test -run=NONE -bench=BenchmarkPipelineTraced -benchtime=1x -benchmem .)
echo "$bench"
if [ "$(echo "$bench" | grep -c "BenchmarkPipelineTraced/.* 0 allocs/op")" -ne 2 ]; then
    echo "ci.sh: traced pipeline entry allocates" >&2
    exit 1
fi

echo "== benchmark smoke: functional machine stays allocation-free =="
# The functional machine's steady state (legacy Step loop, the compiled
# micro-op table, and the superblock-fused executor) must perform zero
# heap allocations on all three execution paths.
bench=$(go test -run=NONE -bench=BenchmarkMachineSteadyState -benchtime=1x -benchmem .)
echo "$bench"
if [ "$(echo "$bench" | grep -c "BenchmarkMachineSteadyState/.* 0 allocs/op")" -ne 3 ]; then
    echo "ci.sh: functional machine steady state allocates" >&2
    exit 1
fi

echo "== sampled estimator: accuracy gate on one kernel =="
# TestSampledAccuracy sweeps all 21 kernels x 4 configs asserting the
# sampled cycles and fetch energy land within 2% of the full pipeline;
# the full sweep runs in `go test ./...` above. This re-runs the single
# heaviest kernel explicitly so a sampling regression names itself even
# when someone trims the test matrix.
go test ./internal/sim -run 'TestSampledAccuracy/jpeg' -count=1

echo "== perf trajectory: pipeline benchmark record =="
# Refreshes BENCH_pipeline.json (schema v5: cycles/sec of the timing
# loop, the sampled estimator with its measured cycle error, instrs/sec
# of the functional machine on all three execution paths, the
# per-kernel Prepare cost, the design-space sweep, and the serving
# plane's hit/cold req/sec) so successive PRs can chart regressions; a
# per-entry delta table against the previous record prints first.
go run ./cmd/fitsbench -pipebench BENCH_pipeline.json

echo "== trace export: generate + validate round trip =="
# `powerfits trace` must emit a document its own -check accepts (the
# exact bytes are additionally pinned by TestGoldenChromeTrace).
trace_tmp=$(mktemp -d)
trap 'rm -rf "$trace_tmp"' EXIT
go run ./cmd/powerfits trace -kernel crc32 -config FITS8 -scale 1 -o "$trace_tmp/trace.json"
go run ./cmd/powerfits trace -check -in "$trace_tmp/trace.json"

echo "== telemetry plane: live scrape of a running suite =="
# Boots a scale-1 suite with the embedded debug server on an ephemeral
# port (the -telemetry-addrfile handshake publishes it), scrapes
# /metrics and /healthz while the server is up, and strict-parses both
# payloads with `powerfits scrape`. -telemetry-linger holds the server
# past suite completion so the scrapes always catch the final state.
tele_tmp=$(mktemp -d)
trap 'rm -rf "$tele_tmp" "$trace_tmp"' EXIT
go build -o "$tele_tmp/fitsbench" ./cmd/fitsbench
go build -o "$tele_tmp/powerfits" ./cmd/powerfits
"$tele_tmp/fitsbench" -scale 1 -q -exp headline \
    -telemetry 127.0.0.1:0 -telemetry-addrfile "$tele_tmp/addr" \
    -telemetry-linger 5s >/dev/null 2>"$tele_tmp/fitsbench.log" &
tele_pid=$!
addr=""
for _ in $(seq 1 100); do
    if [ -s "$tele_tmp/addr" ]; then addr=$(cat "$tele_tmp/addr"); break; fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "ci.sh: telemetry server never published its address" >&2
    cat "$tele_tmp/fitsbench.log" >&2
    kill "$tele_pid" 2>/dev/null || true
    exit 1
fi
"$tele_tmp/powerfits" scrape -url "http://$addr/metrics"
"$tele_tmp/powerfits" scrape -url "http://$addr/healthz" -health
if ! wait "$tele_pid"; then
    echo "ci.sh: instrumented fitsbench run failed" >&2
    cat "$tele_tmp/fitsbench.log" >&2
    exit 1
fi

echo "== serving plane: daemon smoke (cache hit + CLI equivalence) =="
# Boots `powerfits serve` on an ephemeral port (same -telemetry-addrfile
# handshake as the debug server), POSTs one scale-1 request twice, and
# asserts the contract end to end: the second response is a cache hit
# (the serve/cache hit counter moves, checked through `powerfits
# scrape`), both bodies are byte-identical, and both match the report a
# direct `powerfits run -o` computes locally. SIGTERM must drain
# gracefully (exit 0).
serve_tmp=$(mktemp -d)
trap 'rm -rf "$serve_tmp" "$trace_tmp" "$tele_tmp"' EXIT
"$tele_tmp/powerfits" serve -addr 127.0.0.1:0 -telemetry-addrfile "$serve_tmp/addr" \
    -dir "$serve_tmp/store" -j 2 >"$serve_tmp/serve.out" 2>"$serve_tmp/serve.log" &
serve_pid=$!
saddr=""
for _ in $(seq 1 100); do
    if [ -s "$serve_tmp/addr" ]; then saddr=$(cat "$serve_tmp/addr"); break; fi
    sleep 0.1
done
if [ -z "$saddr" ]; then
    echo "ci.sh: serve daemon never published its address" >&2
    cat "$serve_tmp/serve.log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
"$tele_tmp/powerfits" call -url "http://$saddr/synth" -kernel crc32 -scale 1 \
    -config FITS8 -o "$serve_tmp/first.json" 2>>"$serve_tmp/serve.log"
"$tele_tmp/powerfits" call -url "http://$saddr/synth" -kernel crc32 -scale 1 \
    -config FITS8 -o "$serve_tmp/second.json" 2>>"$serve_tmp/serve.log"
if ! cmp -s "$serve_tmp/first.json" "$serve_tmp/second.json"; then
    echo "ci.sh: cached serve response differs from the cold one" >&2
    exit 1
fi
"$tele_tmp/powerfits" scrape -url "http://$saddr/metrics" -o "$serve_tmp/metrics.txt" >/dev/null
if ! grep -q 'powerfits_hits_total{scope="serve/cache"} 1' "$serve_tmp/metrics.txt"; then
    echo "ci.sh: second serve request was not a cache hit:" >&2
    grep 'scope="serve/cache"' "$serve_tmp/metrics.txt" >&2 || true
    exit 1
fi
"$tele_tmp/powerfits" run -kernel crc32 -scale 1 -config FITS8 \
    -o "$serve_tmp/direct.json" >/dev/null 2>&1
if ! cmp -s "$serve_tmp/first.json" "$serve_tmp/direct.json"; then
    echo "ci.sh: serve response differs from the direct powerfits run report" >&2
    exit 1
fi
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "ci.sh: serve daemon did not drain cleanly on SIGTERM" >&2
    cat "$serve_tmp/serve.log" >&2
    exit 1
fi

echo "== incremental sweep gate: warm re-sweep does zero simulation =="
# Runs the same small design-space sweep twice against one run store.
# The cold pass simulates every point; the warm pass must resolve 100%
# of the grid from the archive (evaluated=0 in the structured log, skip
# count == point count) and reproduce the frontier document byte for
# byte — the determinism + incrementality contract of internal/sweep.
sweep_tmp=$(mktemp -d)
trap 'rm -rf "$sweep_tmp" "$serve_tmp" "$trace_tmp" "$tele_tmp"' EXIT
sweep_axes="-kernel crc32 -scale 1 -ks 4,5,6 -dicts 16,64 -caches 4K,8K"
go run ./cmd/powerfits sweep $sweep_axes -dir "$sweep_tmp/store" \
    -o "$sweep_tmp/cold.json" 2>"$sweep_tmp/cold.log" >/dev/null
go run ./cmd/powerfits sweep $sweep_axes -dir "$sweep_tmp/store" \
    -o "$sweep_tmp/warm.json" 2>"$sweep_tmp/warm.log" >/dev/null
if ! grep -q "points=12 evaluated=0 archive_skips=12" "$sweep_tmp/warm.log"; then
    echo "ci.sh: warm re-sweep simulated points it should have skipped:" >&2
    grep "sweep done" "$sweep_tmp/warm.log" >&2 || cat "$sweep_tmp/warm.log" >&2
    exit 1
fi
if ! cmp -s "$sweep_tmp/cold.json" "$sweep_tmp/warm.json"; then
    echo "ci.sh: warm sweep document differs from cold (determinism break)" >&2
    exit 1
fi

echo "== regression gate: scale-1 suite vs committed baseline =="
# Archives a fresh scale-1 run and diffs it against testdata/baseline.json.
# Any figure or per-kernel metric moving in the wrong direction fails the
# build (powerfits diff exits nonzero). After an intentional model change,
# refresh the baseline with:
#   go run ./cmd/fitsbench -scale 1 -q -exp headline -archive testdata/baseline.json
gate_tmp=$(mktemp -d)
trap 'rm -rf "$gate_tmp" "$sweep_tmp" "$serve_tmp" "$trace_tmp" "$tele_tmp"' EXIT
go run ./cmd/fitsbench -scale 1 -q -exp headline -archive "$gate_tmp/current.json" >/dev/null
go run ./cmd/powerfits diff -base testdata/baseline.json -new "$gate_tmp/current.json"

echo "ci.sh: all checks passed"
