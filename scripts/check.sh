#!/bin/sh
# Repo hygiene gate: formatting, vet, build, the race-sensitive test
# packages (obs has concurrent counters; core drives the traced
# pipeline; farm is the concurrent rewrite pool + cache + HTTP layer;
# harden's failpoints are armed via atomics; elfx parses hostile input;
# instr runs concurrent instrumented rewrites of one binary; cfg runs
# concurrent builds of one binary; emu/tiered runs concurrent machines,
# each with its own decode planes and translations), the
# hot-path allocation gates (cached plane decode, emulator fetch span,
# and arithmetic encode must stay allocation-free), one-iteration
# benchmark smokes to keep the rewrite and instrumentation
# benchmarks runnable, an end-to-end coverage-pass smoke (rewrite with
# the coverage pass, emulate, check the bitmap filled), and a fuzz
# smoke pass that replays the checked-in seed corpora under
# testdata/fuzz/ without the fuzzing engine, and the fleet e2e smoke
# (a coordinator fronting two in-process rewrite workers, including the
# kill-one-worker-mid-batch failover test), and the benchmark module's
# vet and tests. Run from the repo root.
# Fails fast on the first problem.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./internal/obs/... ./internal/core/... ./internal/farm/... \
    ./internal/harden/... ./internal/elfx/... ./internal/instr/... ./cmd/surimon/...
# Fleet e2e smoke under the race detector: the coordinator's hash ring,
# coalescing, admission control, and membership against real in-process
# workers — TestE2EKillWorkerMidBatch kills a worker mid-stream and
# requires every batch job to fail over to the survivor.
go test -race ./internal/fleet/...
# Chaos-soak gate, explicitly and bounded: three seeded fault schedules
# (drop, delay, 5xx, slow-body, probe flap over up to 2 of 3 workers)
# must lose zero jobs and execute zero duplicate pipelines, and killing
# a key's owning worker must be absorbed by a successor replica as a
# cache hit (TestE2EKillWorkerPrimary).
go test -race -count=1 -run 'TestChaosSoak|TestE2EKillWorkerPrimary' ./internal/fleet/
go test -race -run 'TestConcurrentBuilds' ./internal/cfg/...
# Tiered-emulator race gate: concurrent machines executing translated
# superblocks, each over its own decode planes
# (TestConcurrentMachinesTiered), plus translation-cache invalidation
# across reloads (TestPlaneInvalidationBetweenRuns).
go test -race -count=1 -run 'TestConcurrentMachinesTiered|TestPlaneInvalidationBetweenRuns' \
    ./internal/emu/tiered/
# Allocation gates: cached plane decode and the emulator fetch span must
# stay allocation-free; a whole rewrite must stay under its malloc and
# byte ceilings (each pipeline stage sizes its stream once).
go test -run 'Allocs$' -count=1 ./internal/x86/... ./internal/emu/... ./internal/core/...
# Observability gates: the disabled paths (nil collector, live collector
# without a flight recorder) must stay allocation-free, and the wire
# formats (Prometheus exposition, flight JSON, trace JSON) must match
# their goldens.
go test -run 'ZeroAlloc$' -count=1 ./internal/obs/
go test -run 'Golden|Flight|Quantile' -count=1 ./internal/obs/ ./internal/emu/
go test -run '^$' -bench 'Benchmark(Rewrite|RewriteFlight)$' -benchtime=1x . >/dev/null
# Tiered bench smoke: one iteration each of the engine ladder keeps the
# interpreter-vs-tiered rows of bench.sh runnable.
go test -run '^$' -bench 'Benchmark(EmulatorTiered|EmulatorHotInterp|EmulatorHotTiered|ValidateTiered)$' \
    -benchtime=1x . >/dev/null
go test -run '^$' -bench 'BenchmarkInstr(Rewrite|Run)(None|Coverage)$' -benchtime=1x \
    ./internal/instr >/dev/null
go test -run 'TestCoverageArtifact' -count=1 ./internal/instr >/dev/null
go test -run=Fuzz ./internal/elfx/... ./internal/ehframe/... \
    ./internal/x86/... ./internal/core/...
# Corpus-fuzzer gate: the C++-shaped generator and its minimizer under
# the race detector (the fuzzer drives the whole pipeline, including
# the seeded-FPRepair minimization proof and the checked-in regression
# replays), then a fixed-seed surifuzz soak — 25 seeds through both
# emulator engines must produce zero divergences, and running the same
# campaign twice must produce byte-identical reports.
go test -race -count=1 ./internal/gen/
fuzzdir=$(mktemp -d)
trap 'rm -rf "$fuzzdir"' EXIT
go build -o "$fuzzdir/surifuzz" ./cmd/surifuzz
"$fuzzdir/surifuzz" -seeds 25 -start 1 -shape small > "$fuzzdir/run1.txt"
"$fuzzdir/surifuzz" -seeds 25 -start 1 -shape small > "$fuzzdir/run2.txt"
cmp "$fuzzdir/run1.txt" "$fuzzdir/run2.txt"
grep -q '^findings: 0$' "$fuzzdir/run1.txt"
# The benchmark module (its own go.mod, outside `go test ./...`): its
# traced driver calls the stage APIs directly, so vet and test it here.
(cd benchmark && go vet . && go test -count=1 .)
echo "check.sh: OK"
