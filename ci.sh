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

echo "== simplicity metric (informational, not a gate) =="
# The ROADMAP measures design progress as net non-test Go lines outside
# bench/; printed so every run records it.
echo "non-test Go lines outside bench/: $(find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
# Functions in shipping packages that none of the six binaries links
# (unlinked_test.go logs each with its line count); every one left
# should be a decoder, the facade, a bench/ entry point or a test seam.
echo "$(go test -tags unlinked -run '^TestUnlinkedFunctions$' -count=1 -v . |
    sed -n 's/.*\(shipping functions no binary links: .*\)/\1/p')"

echo "== go test =="
go test ./...

echo "== fuzz: power meter against its per-cycle reference =="
# A short fixed-time run of FuzzMeterMatchesReference on top of its
# committed seed corpus (which plain `go test` already replays). Two
# workers keep the run small.
go test ./internal/power -run='^$' -fuzz='^FuzzMeterMatchesReference$' -fuzztime=10s -parallel=2

echo "== fuzz: the executors and the assembler the shared passes rest on =="
# The same short runs past the seeds for the shipping executor
# (stepCompiled and the superblock loop) against the test-only reference
# interpreter, the segment memo against the plain cycle loop,
# the sampled fast-forward's warm-once witness against the per-batch
# one, builder-made programs on the simulator, the assembler's parser,
# and the FITS encoder against the programmable decoder.
# `go test -fuzz` takes one target per invocation.
go test ./internal/cpu -run='^$' -fuzz='^FuzzCompiledVsStep$' -fuzztime=10s -parallel=2
go test ./internal/cpu -run='^$' -fuzz='^FuzzMemoVsCycleLoop$' -fuzztime=10s -parallel=2
go test ./internal/sim -run='^$' -fuzz='^FuzzWarmOnce$' -fuzztime=10s -parallel=2
go test ./internal/asm -run='^$' -fuzz='^FuzzBuilderProgramExecution$' -fuzztime=10s -parallel=2
go test ./internal/asm -run='^$' -fuzz='^FuzzParse$' -fuzztime=10s -parallel=2
go test ./internal/isa/fits -run='^$' -fuzz='^FuzzFITSCodec$' -fuzztime=10s -parallel=2

echo "== benchmark module: go vet + go test =="
# bench/ is a separate Go module, so the root ./... never compiles it;
# this keeps an API change from silently breaking bench/run.sh.
go -C bench vet ./...
go -C bench test ./...

echo "== go test -race (parallel engine + sim + telemetry + serving plane + sweep) =="
# The sweep's workers share the machine-memory free list (internal/cpu).
go test -race ./internal/sim ./internal/experiments ./internal/telemetry ./cmd/internal/cli \
    ./internal/serve ./internal/archive ./internal/sweep ./internal/profile ./internal/cpu \
    ./internal/reuse

echo "== benchmark smoke: one pass over every Go benchmark =="
# One iteration of every benchmark in the root package and the serving
# plane. Each body's own b.Fatal checks run (the sweep's evaluated-count
# assertions, the serve hit/cold paths, Prepare, the sampled estimator),
# and the hot loops below are gated at 0 allocs/op. At -benchtime=1x a
# one-time allocation cannot average out to zero.
bench=$(go test -run=NONE -bench=. -benchtime=1x -benchmem . ./internal/serve)
echo "$bench"
# expect_zero_allocs NAME COUNT WHAT: exactly COUNT result lines of the
# benchmark NAME, or with a trailing slash of NAME's sub-benchmarks, must
# report 0 allocs/op. NAME is anchored at the line start and may carry
# the -N GOMAXPROCS suffix (absent when GOMAXPROCS is 1), so a benchmark
# whose name only starts with NAME does not join its gate.
expect_zero_allocs() {
    case "$1" in
        */) name="$1[^[:space:]]+" ;;
        *) name="$1(-[0-9]+)?" ;;
    esac
    if [ "$(echo "$bench" | grep -cE "^$name[[:space:]].* 0 allocs/op")" -ne "$2" ]; then
        echo "ci.sh: $3 allocates" >&2
        exit 1
    fi
}
# The I-cache fetch hot path: cache lookup plus the power stream's counts.
expect_zero_allocs "BenchmarkFetchPort" 1 "fetch port hot path"
# The power model: stream accesses and cycles, priced by a meter.
expect_zero_allocs "BenchmarkPowerMeter" 1 "power meter"
# A cached replay-unit summary applied to the power stream in one step.
expect_zero_allocs "BenchmarkStreamReplayRun" 1 "bulk replay unit"
# The steady-state cycle loop over the shared predecode table, both ISAs.
expect_zero_allocs "BenchmarkPipelineSteadyState/" 2 "pipeline steady-state cycle loop"
# One pipeline run feeding one power stream priced by two meters (FITS16, FITS8).
expect_zero_allocs "BenchmarkPipelineSharedPass" 1 "shared-pass cycle loop"
# The cycle loop with a sink argument: a nil sink and a ring sink.
expect_zero_allocs "BenchmarkPipelineTraced/" 2 "traced pipeline entry"
# The functional machine: the superblock run loop.
expect_zero_allocs "BenchmarkMachineSteadyState/" 1 "functional machine steady state"

echo "== sampled estimator: accuracy gate on one kernel =="
# TestSampledAccuracy sweeps all 21 kernels x 4 configs asserting the
# sampled cycles and fetch energy land within 2% of the full pipeline;
# the full sweep runs in `go test ./...` above. This re-runs the single
# heaviest kernel explicitly so a sampling regression names itself even
# when someone trims the test matrix.
go test ./internal/sim -run 'TestSampledAccuracy/jpeg' -count=1
# jpeg's ARM image is the one whose text the 8 KB cache cannot hold, so
# its sampled pass splits in two: a regression on the split path of the
# shared sampled pass names itself here.
go test ./internal/sim -run 'TestSampledPassMatchesSeparateRuns/jpeg' -count=1
# jpeg runs both functional-warming witnesses: warm-once in its holding
# passes, every batch in ARM8, whose cache does not hold the text.
go test ./internal/sim -run 'TestWarmOnceMatchesEveryBatchWitness/jpeg' -count=1
# The suite profiles each kernel from its counted ARM pass; jpeg's ARM16
# and ARM8 passes split, so both must count what profile.Collect counts.
go test ./internal/sim -run 'TestCountedPassProfileMatchesCollect/jpeg' -count=1

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
# A non-full ablation rides the grid so its embedded synth.Options JSON
# and run IDs pass through the same cold/warm identity check.
sweep_tmp=$(mktemp -d)
trap 'rm -rf "$sweep_tmp" "$serve_tmp" "$trace_tmp" "$tele_tmp"' EXIT
sweep_axes="-kernel crc32 -scale 1 -ks 4,5,6 -dicts 16,64 -ablations full,nodict -caches 4K,8K"
go run ./cmd/powerfits sweep $sweep_axes -dir "$sweep_tmp/store" \
    -o "$sweep_tmp/cold.json" 2>"$sweep_tmp/cold.log" >/dev/null
go run ./cmd/powerfits sweep $sweep_axes -dir "$sweep_tmp/store" \
    -o "$sweep_tmp/warm.json" 2>"$sweep_tmp/warm.log" >/dev/null
if ! grep -q "points=24 evaluated=0 archive_skips=24" "$sweep_tmp/warm.log"; then
    echo "ci.sh: warm re-sweep simulated points it should have skipped:" >&2
    grep "sweep done" "$sweep_tmp/warm.log" >&2 || cat "$sweep_tmp/warm.log" >&2
    exit 1
fi
if ! cmp -s "$sweep_tmp/cold.json" "$sweep_tmp/warm.json"; then
    echo "ci.sh: warm sweep document differs from cold (determinism break)" >&2
    exit 1
fi

echo "== run record: write, report and self-diff one run and one suite =="
# One observed kernel run and one observed scale-1 suite, each written as
# a run record with -window, rendered back by `powerfits report`. The run
# record must carry its stall table and hotspots and diff clean against
# itself; the suite record must carry one stall row per kernel x config.
rec_tmp=$(mktemp -d)
trap 'rm -rf "$rec_tmp" "$sweep_tmp" "$serve_tmp" "$trace_tmp" "$tele_tmp"' EXIT
"$tele_tmp/powerfits" run -kernel crc32 -config FITS8 -window 2048 \
    -archive "$rec_tmp/R.json" -phases "$rec_tmp/P.csv" >/dev/null 2>&1
"$tele_tmp/powerfits" report -in "$rec_tmp/R.json" >"$rec_tmp/run-report.txt"
for section in 'stall-cause breakdown' 'fetch-energy hotspots'; do
    if ! grep -q "$section" "$rec_tmp/run-report.txt"; then
        echo "ci.sh: run record report has no $section section" >&2
        exit 1
    fi
done
"$tele_tmp/powerfits" diff -base "$rec_tmp/R.json" -new "$rec_tmp/R.json" >/dev/null
"$tele_tmp/fitsbench" -scale 1 -q -exp headline -window 4096 \
    -archive "$rec_tmp/S.json" >/dev/null 2>&1
"$tele_tmp/powerfits" report -in "$rec_tmp/S.json" >"$rec_tmp/suite-report.txt"
stall_rows=$(sed -n '/^stall-cause breakdown/,/^$/p' "$rec_tmp/suite-report.txt" |
    grep -cE '^[a-z0-9_]+ +(ARM|FITS)(8|16) ' || true)
if [ "$stall_rows" -ne 84 ]; then
    echo "ci.sh: suite record report has $stall_rows stall rows, want 84" >&2
    exit 1
fi
rm -rf "$rec_tmp"

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
