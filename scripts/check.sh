#!/bin/sh
# Repo hygiene gate: formatting, vet, build, the race-sensitive test
# packages (obs has concurrent counters; core drives the traced
# pipeline; farm is the concurrent rewrite pool + cache + HTTP layer;
# harden's failpoints are armed via atomics; elfx parses hostile input;
# instr runs concurrent instrumented rewrites of one binary; cfg runs
# concurrent builds of one binary; emu's tiered engine runs concurrent
# machines, each with its own decode planes and translations), the
# hot-path allocation gates (cached plane decode, emulator fetch span,
# and arithmetic encode must stay allocation-free) with the layout pins
# (the sizes of x86.Inst, its operand, the decode-plane entry, asm.Ins
# and serialize.Entry, and that none of them holds a pointer), a one-iteration
# smoke of the two profiling benchmarks (BenchmarkRewrite and
# BenchmarkEmulatorHotTiered), an end-to-end coverage-pass smoke
# (rewrite with the coverage pass, emulate, check the bitmap filled),
# the fixed-seed corpus-fuzzer soak, and a fuzz
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
# Farm-queue determinism under the race detector: the Table 2 and
# Table 4 loops run inline and over the shared FIFO queue at several
# worker counts, and must print byte-identical text.
go test -race -count=1 -run 'Farm' ./internal/eval/
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
# (TestConcurrentMachinesTiered), translation-cache invalidation across
# reloads (TestPlaneInvalidationBetweenRuns), and the engine staying in
# translated code: a warm corpus run interprets at most 0.1% of its
# steps (TestWarmRunStaysTranslated), endbr64-led indirect entries pass
# their check inside translated blocks (TestIndirectEntryEndbr), and
# execution re-enters translated code after a page-boundary or declined
# block end (TestReentryAfterForcedExit). The engine lives in package
# emu beside the interpreter it falls back to.
go test -race -count=1 \
    -run 'TestConcurrentMachinesTiered|TestPlaneInvalidationBetweenRuns|TestWarmRunStaysTranslated|TestIndirectEntryEndbr|TestReentryAfterForcedExit' \
    ./internal/emu/
# Allocation gates: cached plane decode and the emulator fetch span must
# stay allocation-free; a whole rewrite must stay under its malloc and
# byte ceilings (each pipeline stage sizes its stream once); a tiered
# emulator run must stay under its per-run byte ceiling
# (TestTieredRunAllocs: demand-zero stack, compact decode planes, slim
# block metadata). Layout pins (TestLayout): x86.Inst is 48 bytes, its
# operand x86.Arg 16, a decode-plane entry 56, asm.Ins 64 and
# serialize.Entry at most 80 (the element sizes of the CFG arena, the
# decode planes and S'), and a reflect walk finds no pointer, interface,
# string, slice, map, chan or func in any of them, so those slabs stay
# noscan for the garbage collector.
go test -run 'Allocs$|Layout$' -count=1 ./internal/x86/... ./internal/asm/ \
    ./internal/serialize/ ./internal/emu/... ./internal/core/...
# Byte-identity gates: assembler output, rewritten binaries and verdicts must match their checked-in manifests.
go test -count=1 -run 'Manifest$' ./internal/asm/ ./internal/core/
# Observability gates: the disabled paths (nil collector, live collector
# without a flight recorder) must stay allocation-free, and the wire
# formats (Prometheus exposition, flight JSON, trace JSON) must match
# their goldens.
go test -run 'ZeroAlloc$' -count=1 ./internal/obs/
go test -run 'Golden|Flight|Quantile' -count=1 ./internal/obs/ ./internal/emu/
# Profiling-benchmark smoke: one iteration each keeps the two entry
# points runnable.
go test -run '^$' -bench 'Benchmark(Rewrite|EmulatorHotTiered)$' -benchtime=1x . >/dev/null
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
