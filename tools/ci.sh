#!/usr/bin/env bash
# CI entry point: regular build + full test suite + metrics-name lint +
# bench regression gate + a build and smoke run of the repository
# benchmark (perfbench/), then an AddressSanitizer+UndefinedBehavior-
# Sanitizer build running the whole ctest suite (any report is fatal:
# -fno-sanitize-recover=all), then a ThreadSanitizer build of the
# concurrency-bearing test binaries
# (the threaded ingest stage, the blocking buffer, the epoll API plane —
# event loops, worker pool, response cache, rate limiter, streaming
# export, keep-alive, stop-while-serving — the parallel
# traffic producer, parallel forest training, the pipeline runs at
# several producers x shards that annotate_test, federation_test and
# tracing_test drive, the durability layer's WAL appends beside producer
# and detector threads including the kill-at-random-commit recovery
# test, and concurrent banner-rule matching).
#
#   tools/ci.sh [build-dir] [tsan-build-dir] [asan-build-dir]
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
TSAN_BUILD="${2:-build-tsan}"
ASAN_BUILD="${3:-build-asan}"

echo "== build + test =="
cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j"$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure -j"$(nproc)"

echo "== metrics name lint =="
bash tools/check_metrics_names.sh

echo "== bench regression (non-TSan build) =="
cmake --build "$BUILD" -j"$(nproc)" \
  --target bench_ingest_throughput bench_annotate_throughput \
           bench_api_concurrency bench_wal_overhead bench_hotpath \
           bench_federation
BENCH_OUT=$(mktemp -d)
for b in bench_ingest_throughput bench_annotate_throughput \
         bench_api_concurrency bench_wal_overhead bench_hotpath \
         bench_federation; do
  echo "-- bench: $b"
  EXIOT_BENCH_DIR="$BENCH_OUT" "$BUILD/bench/$b" > /dev/null
done
sh tools/check_bench_regression.sh "$BENCH_OUT"
rm -rf "$BENCH_OUT"

echo "== repository benchmark: harness tests + 2 s smoke runs =="
# run.py exits 0 even when a workload's gate fails, so each result line
# (the last line of output) is checked for correct == true, failed == 0.
python3 perfbench/run.py --test
for w in feed replay; do
  echo "-- perfbench: $w"
  out=$(python3 perfbench/run.py --workload "$w" --seconds 2)
  printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("perfbench %s: correct=%s failed=%s"
             % (sys.argv[1], r.get("correct"), r.get("failed")))
print("ok   perfbench %s: %d operations, 0 failed"
      % (sys.argv[1], r["attempted"]))
' "$w"
done

echo "== AddressSanitizer + UndefinedBehaviorSanitizer: full ctest suite =="
cmake -B "$ASAN_BUILD" -S . -DEXIOT_SANITIZE=address,undefined \
  -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=all
cmake --build "$ASAN_BUILD" -j"$(nproc)"
ctest --test-dir "$ASAN_BUILD" --output-on-failure -j"$(nproc)"

echo "== ThreadSanitizer: pipeline / producer / annotate / federation / tracing / durability / fingerprint / flow / telescope / ml / api / batch tests =="
cmake -B "$TSAN_BUILD" -S . -DEXIOT_SANITIZE=thread
cmake --build "$TSAN_BUILD" -j"$(nproc)" \
  --target pipeline_test producer_test annotate_test federation_test \
           tracing_test durability_test fingerprint_test flow_test \
           telescope_test ml_test api_test api_cache_test api_epoll_test \
           robustness_test batch_test
for t in pipeline_test producer_test annotate_test federation_test \
         tracing_test durability_test fingerprint_test flow_test \
         telescope_test ml_test api_test api_cache_test api_epoll_test \
         robustness_test batch_test; do
  echo "-- tsan: $t"
  "$TSAN_BUILD/tests/$t"
done

echo "CI OK"
