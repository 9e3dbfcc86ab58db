#!/usr/bin/env bash
# CI entry point: tier-1 verification plus Release and sanitizer passes.
#
#   scripts/ci.sh            # plain build + full ctest, then Release (-O2)
#                            # build + ctest, then ASan+UBSan ctest
#   scripts/ci.sh --fast     # plain build + full ctest + src/ header reach
#                            # check only
#
# The Release pass builds into a separate tree (build-release/) with
# -DCMAKE_BUILD_TYPE=Release: the perf-labelled benches gate their speedup
# shape checks there, at the optimization level the claims are made for, and
# an -O2-only miscompile or assert-hidden bug surfaces before merge. The
# sanitizer pass builds into build-asan/ with
# -DGEMINI_SANITIZE=address,undefined so the instrumented binaries never mix
# with the plain ones. TSan is available via -DGEMINI_SANITIZE=thread but is
# not part of the default CI matrix: the program creates no threads.
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "--fast" ]]; then
  fast=1
fi

echo "==> tier-1: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j

echo "==> tier-1: ctest"
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "==> tier-1: ctest -L policy (protection-policy engine)"
(cd build && ctest --output-on-failure -L policy)

# Code only its own tests reach is dead weight: every src/ header must be
# included, transitively, from a bench, example or perfbench source.
echo "==> tier-1: every src/ header reached from bench/, examples/ or perfbench/"
python3 scripts/check_reached_headers.py

# A cached metric handle always points at a metric: the registry's, or the
# discard sink when none is attached (src/obs/metrics.h). No src/ line may
# compare one with nullptr.
echo "==> tier-1: no src/ line compares a metric handle with nullptr"
handle='[A-Za-z0-9_]*(_counter_?|_gauge_|_gauges_(\[[^]]*\])?)'
if grep -rnE "${handle}[[:space:]]*[!=]=[[:space:]]*nullptr|nullptr[[:space:]]*[!=]=[[:space:]]*${handle}" src/; then
  echo "FAIL: null-guarded metric handle (point it at DiscardCounter()/DiscardGauge())" >&2
  exit 1
fi

# Each calibrated number (src/common/calibration.h) is defined once: no other
# src/, bench/ or examples/ line may spell one of the paper's anchors as a
# literal (tests may, to pin a constant's value).
echo "==> tier-1: calibrated literals appear only in src/common/calibration.h"
calibrated='0\.93e9|Seconds\(260\)|GbpsToBytesPerSecond\(20\)|Minutes\(5\.5\)|(^|[^0-9.])0\.035([^0-9]|$)'
if grep -rnE "$calibrated" src/ bench/ examples/ | grep -v '^src/common/calibration\.h:'; then
  echo "FAIL: calibrated literal outside src/common/calibration.h (use its named constant)" >&2
  exit 1
fi

if [[ "$fast" == "1" ]]; then
  echo "==> done (fast mode: Release and sanitizer passes skipped)"
  exit 0
fi

echo "==> release pass: configure + build (-DCMAKE_BUILD_TYPE=Release)"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j

echo "==> release pass: ctest"
(cd build-release && ctest --output-on-failure -j"$(nproc)")

# Keeps the event engine's micro cases (distinct timestamps, and a
# same-period timer storm), the KV store's per-heartbeat liveness work
# (expiry check and health scan over 256 and 1024 leased keys), the whole
# control plane (256 and 1024 agents on the store for a simulated minute,
# leases renewing by rule; `KvControlPlane` matches both KV cases), the
# delta write path's (building a delta, replaying an 8-link redo log, and
# the capture -> delta -> chain-append loop at 25% and 100% touched chunks)
# and the trainer's (deferred steps and the fused update + CRC capture pass
# at 1, 4 and 16 steps per capture) building and running. Not a speed gate.
echo "==> release pass: simulator, KV control-plane, delta-path and trainer micro-benchmarks (smoke)"
./build-release/bench/bench_micro_algorithms \
  --benchmark_filter='Simulator|KvControlPlane|RedoLog|DeltaCheckpoint|CaptureDeltaAppend|TrainerStepsPerCapture' \
  --benchmark_min_time=0.01

echo "==> sanitizer pass: configure + build (address,undefined)"
cmake -B build-asan -S . -DGEMINI_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j

echo "==> sanitizer pass: ctest -L obs (auditor, flight recorder, tracer determinism)"
(cd build-asan && ctest --output-on-failure -L obs)

echo "==> sanitizer pass: ctest -L policy (policy engine under ASan+UBSan)"
(cd build-asan && ctest --output-on-failure -L policy)

echo "==> sanitizer pass: ctest -L delta (incremental checkpoints under ASan+UBSan)"
(cd build-asan && ctest --output-on-failure -L delta)

echo "==> sanitizer pass: ctest (remaining suites)"
(cd build-asan && ctest --output-on-failure -LE 'obs|policy|delta' -j"$(nproc)")

GEMINI_BENCH_OUT_DIR="$(mktemp -d)" && trap 'rm -rf "$GEMINI_BENCH_OUT_DIR"' EXIT
export GEMINI_BENCH_OUT_DIR

# Byte-identity: these benches are deterministic (same seed, same bytes), so
# each is regenerated on the plain build and compared with its committed
# report; a change that moves a reported number must update the report too.
# Running them also gates their shape checks. Among them, bench_ext_deltas
# gates the incremental data path's headline claims: full-vs-delta runs end
# bit-identical, replicated checkpoint bytes drop >= 2x at <= 25% dirty
# fraction, and dense updates cost nothing extra. bench_ext_policies is the
# only one that reaches the gradient-replay and recompute recovery steps; its
# shape check gates the four policies' overhead/recovery ordering.
# bench_fig16_interleaving (every interleaving scheme and the sub-buffer sweep)
# and bench_ext_parallelism (every parallelism strategy) report the checkpoint
# executor's times in integer nanoseconds, so any change to a strategy's
# iteration walk or to the chunk-contention model shows up here.
echo "==> bench byte-identity: regenerate and cmp committed BENCH reports"
for bench in fig07_iteration_time fig09_recovery_probability fig14_recovery_timeline \
    fig16_interleaving ext_parallelism ext_cascade ext_deltas ext_auditor ext_policies; do
  "./build/bench/bench_$bench"
  if ! cmp "BENCH_$bench.json" "$GEMINI_BENCH_OUT_DIR/BENCH_$bench.json"; then
    echo "FAIL: BENCH_$bench.json differs from the committed report" >&2
    exit 1
  fi
done

# The auditor bench's shape check (run above) gates the zero-overhead and
# determinism claims, and an uncapped tracer dropping records is a regression
# even if the shape check were ever loosened.
echo "==> bench smoke: bench_ext_auditor tracer records"
if ! grep -q '"stable.tracer_dropped_records": 0' \
    "$GEMINI_BENCH_OUT_DIR/BENCH_ext_auditor.json"; then
  echo "FAIL: uncapped tracer dropped records during the auditor smoke run" >&2
  exit 1
fi

# The Chameleon selector must switch at least once under the policy bench's
# injected failure-rate shift (read from the byte-identity step's output).
echo "==> bench smoke: bench_ext_policies selector switches"
switches="$(sed -n 's/.*"chameleon.switches": \([0-9]*\).*/\1/p' \
    "$GEMINI_BENCH_OUT_DIR/BENCH_ext_policies.json")"
if [[ -z "$switches" || "$switches" -lt 1 ]]; then
  echo "FAIL: Chameleon selector never switched during the policy smoke run" >&2
  exit 1
fi

# Smoke-run the data-path bench from the Release tree: its shape check gates
# the slice-by-8 CRC speedup (>= 3x over the byte-wise reference), the
# dispatched hardware CRC speedup (>= 2x over slicing-by-8), and a
# nonzero capture->replicate->commit wall-clock at every payload size.
echo "==> bench smoke: bench_perf_datapath (Release)"
./build-release/bench/bench_perf_datapath

# Smoke-run the GeminiSystem benchmark on its control-plane workload. Its exit
# status covers bit-exact shards against a failure-free trainer, a recovery
# record for every injected failure, and identical results across runs.
echo "==> bench smoke: perfbench ctrl_scale"
python3 perfbench/run.py --workload ctrl_scale --seed 1 --seconds 1 --trace 0

# The recovery workload is the only end-to-end run of the delta write path,
# peer retrieval and re-protection; its exit status covers the same checks,
# so a recovered shard that is not bit-exact fails here.
echo "==> bench smoke: perfbench recovery_storm"
python3 perfbench/run.py --workload recovery_storm --seed 1 --seconds 1 --trace 0

echo "==> done"
