#!/usr/bin/env bash
# Tier-1 verification + perf trajectory, in one command:
#   configure, build, run the full test suite, then run the thread-scaling
#   benchmark and write the machine-readable BENCH_engine.json at the repo
#   root. CI and future PRs compare against that file.
#
# Usage: tools/run_tier1.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD_DIR" -S . -DDCMT_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Static analysis: the project linter must report a clean tree (DESIGN.md
# §11). Also covered by the dcmt_lint_tree ctest entry; running it
# standalone here gives a readable diagnostic list on failure. Skippable
# with DCMT_SKIP_LINT=1.
if [[ "${DCMT_SKIP_LINT:-0}" != "1" ]]; then
  "$BUILD_DIR"/tools/dcmt_lint --root=. src tests tools
fi

# Sanitizer trees: configure <build>-<name> with -DDCMT_SANITIZE=<kind>
# (warnings are errors there too), build it and run the whole ctest there.
#   sanitized_ctest <name> <kind>
sanitized_ctest() {
  local dir="${BUILD_DIR}-$1" kind="$2"
  cmake -B "$dir" -S . -DDCMT_SANITIZE="$kind" -DDCMT_WERROR=ON \
    -DDCMT_BUILD_BENCHMARKS=OFF -DDCMT_BUILD_EXAMPLES=OFF
  cmake --build "$dir" -j "$JOBS"
  TSAN_OPTIONS="suppressions=$(pwd)/tools/tsan.supp halt_on_error=1" \
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

# Hardening pass: the whole suite again under ASan/UBSan (non-recovering:
# any report fails its test) — the I/O, checkpoint and shard parsers, the
# raw-pointer SIMD kernels, the inference guard and the serving and
# continual layers included. Skippable (DCMT_SKIP_SANITIZE=1) because the
# instrumented build roughly doubles tier-1 wall time.
if [[ "${DCMT_SKIP_SANITIZE:-0}" != "1" ]]; then
  sanitized_ctest asan address,undefined
  echo "asan/ubsan stage OK"
fi

# Race detection: the whole suite again under ThreadSanitizer — the pool
# stress and determinism suites, the serving engine's spin-then-park
# dispatcher and the router, the stream prefetch worker, the micro-batch and
# kernel suites, checkpoint crash+resume and the continual loop included.
# TSan is incompatible with ASan, so it gets its own tree. Skippable
# (DCMT_SKIP_TSAN=1) — the instrumented run is the slowest stage.
if [[ "${DCMT_SKIP_TSAN:-0}" != "1" ]]; then
  sanitized_ctest tsan thread
  echo "tsan stage OK"
fi

# Router demo (DESIGN.md §16): the closed-loop CLI run — hot swap must be
# drop-free, the overload burst must shed — uninstrumented; the router
# suites run in the sanitizer stages above. Skippable with
# DCMT_SKIP_ROUTER=1.
if [[ "${DCMT_SKIP_ROUTER:-0}" != "1" ]]; then
  "$BUILD_DIR"/tools/dcmt_cli router-bench --requests=800 --clients=3 \
    || { echo "router demo FAILED: drops or unshed overload"; exit 1; }
  echo "router stage OK"
fi

# Observability determinism (DESIGN.md §12): train the same tiny run twice
# with --metrics-out/--trace-out and assert the exports are content-identical
# once timing-derived values are projected out — metrics via the
# "seconds|per_second" naming convention, traces by zeroing ts_ns/dur_ns.
# Skippable with DCMT_SKIP_OBS=1.
if [[ "${DCMT_SKIP_OBS:-0}" != "1" ]]; then
  OBS_DIR="$BUILD_DIR/obs_determinism"
  rm -rf "$OBS_DIR"
  mkdir -p "$OBS_DIR"
  "$BUILD_DIR"/tools/dcmt_cli generate --profile=ae-nl \
    --out="$OBS_DIR/train.csv" >/dev/null
  for run in 1 2; do
    "$BUILD_DIR"/tools/dcmt_cli train --train="$OBS_DIR/train.csv" --epochs=1 \
      --threads=2 --val-fraction=0.25 --ckpt="$OBS_DIR/model$run.bin" \
      --checkpoint-dir="$OBS_DIR/ckpt$run" \
      --metrics-out="$OBS_DIR/metrics$run.prom" \
      --trace-out="$OBS_DIR/trace$run.jsonl" >/dev/null
  done
  grep -vE '(seconds|per_second)' "$OBS_DIR/metrics1.prom" > "$OBS_DIR/m1.filtered"
  grep -vE '(seconds|per_second)' "$OBS_DIR/metrics2.prom" > "$OBS_DIR/m2.filtered"
  diff -u "$OBS_DIR/m1.filtered" "$OBS_DIR/m2.filtered" \
    || { echo "obs determinism FAILED: metrics exports differ"; exit 1; }
  sed -E 's/"(ts|dur)_ns":[0-9]+/"\1_ns":0/g' "$OBS_DIR/trace1.jsonl" > "$OBS_DIR/t1.filtered"
  sed -E 's/"(ts|dur)_ns":[0-9]+/"\1_ns":0/g' "$OBS_DIR/trace2.jsonl" > "$OBS_DIR/t2.filtered"
  diff -u "$OBS_DIR/t1.filtered" "$OBS_DIR/t2.filtered" \
    || { echo "obs determinism FAILED: trace exports differ"; exit 1; }
  # A metrics export that silently recorded nothing would also "diff clean".
  grep -q '^dcmt_train_steps_total [1-9]' "$OBS_DIR/metrics1.prom" \
    || { echo "obs determinism FAILED: no training metrics recorded"; exit 1; }
  echo "obs determinism OK"
fi

# Streaming data path (DESIGN.md §15): prove out-of-core training end to end
# through the CLI — generate a sharded dataset, train 50 steps through the
# StreamingBatcher and again through the materialized in-RAM path with the
# same shard plan, and require the per-step loss traces to be byte-identical.
# Skippable with DCMT_SKIP_STREAM=1.
if [[ "${DCMT_SKIP_STREAM:-0}" != "1" ]]; then
  STREAM_DIR="$BUILD_DIR/stream_equivalence"
  rm -rf "$STREAM_DIR"
  mkdir -p "$STREAM_DIR"
  "$BUILD_DIR"/tools/dcmt_cli gen-shards --profile=ae-nl \
    --exposures=20000 --shard-rows=4096 --out-dir="$STREAM_DIR/shards" >/dev/null
  for mode in 1 0; do
    "$BUILD_DIR"/tools/dcmt_cli train --model=dcmt \
      --train-shards="$STREAM_DIR/shards" --stream="$mode" \
      --steps=50 --epochs=3 --threads=2 \
      --ckpt="$STREAM_DIR/model$mode.bin" \
      --loss-trace-out="$STREAM_DIR/trace$mode.txt" >/dev/null
  done
  diff -u "$STREAM_DIR/trace1.txt" "$STREAM_DIR/trace0.txt" \
    || { echo "stream equivalence FAILED: loss traces differ"; exit 1; }
  # Empty traces would also diff clean; demand the full 50 steps.
  [[ "$(wc -l < "$STREAM_DIR/trace1.txt")" == "50" ]] \
    || { echo "stream equivalence FAILED: expected 50 recorded steps"; exit 1; }
  cmp "$STREAM_DIR/model1.bin" "$STREAM_DIR/model0.bin" \
    || { echo "stream equivalence FAILED: checkpoints differ"; exit 1; }
  echo "stream stage OK"
fi

# Continual training (DESIGN.md §17): the delayed-feedback day cycle —
# logging, as-of re-labelling, warm-started retraining, hot republish. The
# CLI runs a 2-day daily-refresh smoke uninstrumented (exits nonzero on any
# dropped request via the drop-free contract printed by the loop).
# Skippable with DCMT_SKIP_CONTINUAL=1.
if [[ "${DCMT_SKIP_CONTINUAL:-0}" != "1" ]]; then
  CONT_DIR="$BUILD_DIR/continual_smoke"
  rm -rf "$CONT_DIR"
  "$BUILD_DIR"/tools/dcmt_cli continual --work-dir="$CONT_DIR" \
    --users=80 --items=120 --days=2 --pvs=40 --candidates=6 --exposed=3 \
    --first-screen=2 --pretrain=1200 --epochs=1 --rows-per-shard=512 \
    --refresh=daily --lag-max=1 --threads=2 > "$CONT_DIR.log" \
    || { echo "continual demo FAILED"; cat "$CONT_DIR.log"; exit 1; }
  grep -q 'dropped=0' "$CONT_DIR.log" \
    || { echo "continual demo FAILED: router dropped requests"; exit 1; }
  echo "continual stage OK"
fi

# Interleaved repetitions here too: the 1/2/4-thread variants of a row are
# tens of microseconds apart, and sequential-order turbo / thermal drift is
# of the same size. Interleaving + averaging keeps the thread-scaling rows
# comparable.
"$BUILD_DIR"/bench/bench_parallel_scaling \
  --benchmark_enable_random_interleaving=true \
  --benchmark_repetitions=3 \
  --benchmark_out="$BUILD_DIR"/bench_parallel_raw.json \
  --benchmark_out_format=json
# Per-kernel microbenches (DESIGN.md §14): tower-shape GEMMs, the
# vectorized elementwise family, and each fused op next to its unfused
# composite so the fusion win is tracked per kernel.
"$BUILD_DIR"/bench/bench_kernels \
  --benchmark_out="$BUILD_DIR"/bench_kernels_raw.json \
  --benchmark_out_format=json
"$BUILD_DIR"/bench/bench_obs_overhead \
  --benchmark_out="$BUILD_DIR"/bench_obs_raw.json \
  --benchmark_out_format=json
# Interleaved repetitions: the taped-vs-frozen comparison is a few percent
# at full batch, so ordering/thermal drift within one process can flip it;
# random interleaving + mean-over-repetitions (bench_to_json averages
# duplicate rows) keeps the comparison fair.
"$BUILD_DIR"/bench/bench_serve \
  --benchmark_enable_random_interleaving=true \
  --benchmark_repetitions=3 \
  --benchmark_out="$BUILD_DIR"/bench_serve_raw.json \
  --benchmark_out_format=json
# Streaming data path (DESIGN.md §15): shard encode/decode MB/s and the
# prefetch-vs-serial epoch times (their ratio is the decode/assembly overlap
# the prefetch thread buys).
"$BUILD_DIR"/bench/bench_stream \
  --benchmark_out="$BUILD_DIR"/bench_stream_raw.json \
  --benchmark_out_format=json
# Router closed loop (DESIGN.md §16): one Zipf/diurnal run with a mid-run
# hot swap; the three BM_RouterClosedLoop{P50,P99,P999} rows carry the
# latency quantiles as manual time, so the fold below needs no
# aggregate-parsing support in bench_to_json.
"$BUILD_DIR"/bench/bench_router \
  --benchmark_out="$BUILD_DIR"/bench_router_raw.json \
  --benchmark_out_format=json
# Continual refresh cycle (DESIGN.md §17): the end-to-end price of a daily
# refresh next to the serve-only baseline — their difference is the retrain
# + republish machinery.
"$BUILD_DIR"/bench/bench_continual \
  --benchmark_out="$BUILD_DIR"/bench_continual_raw.json \
  --benchmark_out_format=json
"$BUILD_DIR"/tools/bench_to_json "$BUILD_DIR"/bench_parallel_raw.json \
  "$BUILD_DIR"/bench_kernels_raw.json \
  "$BUILD_DIR"/bench_obs_raw.json "$BUILD_DIR"/bench_serve_raw.json \
  "$BUILD_DIR"/bench_stream_raw.json "$BUILD_DIR"/bench_router_raw.json \
  "$BUILD_DIR"/bench_continual_raw.json \
  BENCH_engine.json

echo "tier-1 OK; perf trajectory written to BENCH_engine.json"
