#!/usr/bin/env sh
# Full reproduction pipeline: configure, build, test, run every
# figure/table bench and the three CLI demos, writing the canonical output
# files the repository documents (test_output.txt, bench_output.txt).
#
# Verification is delegated to scripts/check.sh --quick (lint + the
# canonical tier-1 build/ctest); run scripts/check.sh with no flags for the
# full sanitizer matrix.
#
# Usage:
#   scripts/reproduce.sh            figure/table benches + CLI demos
#   scripts/reproduce.sh --serve    also run the serving acceptance bench
#                                   (bench/serve_throughput), writing
#                                   BENCH_serve_throughput.json at the repo
#                                   root and failing if its comparisons fail
#   scripts/reproduce.sh --micro    only build + run bench/micro_kernels,
#                                   writing BENCH_micro_kernels.json at the
#                                   repo root
#   scripts/reproduce.sh --trace    only build + run a traced, validated
#                                   solve (tools/sssp_cli --trace), writing
#                                   trace.json at the repo root; fails if
#                                   the trace JSON does not parse or the
#                                   per-root accounting self-check
#                                   (check_engine_accounting) fails
#   scripts/reproduce.sh --update   only build + run the dynamic-update
#                                   acceptance bench (bench/
#                                   update_throughput), writing
#                                   BENCH_update_throughput.json at the repo
#                                   root; fails if repair is not
#                                   bit-identical to a fresh solve or the
#                                   median repair speedup is below the bar
#   scripts/reproduce.sh --mvcc     only build + run the MVCC serving
#                                   acceptance bench (bench/mvcc_serving),
#                                   writing BENCH_mvcc_serving.json at the
#                                   repo root; fails if the mixed-stream
#                                   query p99 exceeds 1.2x the update-free
#                                   control run or any sampled answer is
#                                   stale (dist/parent mismatch vs a fresh
#                                   solve of its stamped version)
#   scripts/reproduce.sh --async    only build + run the asynchronous-
#                                   engine acceptance bench (bench/
#                                   async_latency), writing
#                                   BENCH_async_latency.json at the repo
#                                   root; fails if ASYNC distances are not
#                                   bit-identical to OPT, the global-sync
#                                   reduction is below 10x on RMAT-1, or
#                                   ASYNC wins cold single-root p50 on no
#                                   row (docs/ASYNC.md)
#   scripts/reproduce.sh --tuner    only build + run the auto-tuner bake-off
#                                   bench (bench/tuner_bakeoff), writing
#                                   BENCH_tuner.json at the repo root; fails
#                                   if any engine's distances are not
#                                   bit-identical to OPT, the tuned config
#                                   loses more than 10% to the best
#                                   hand-picked config on any row, or it
#                                   beats the best single global config by
#                                   >5% on no row (docs/STEPPING.md)
set -eu

cd "$(dirname "$0")/.."

SERVE=0
MICRO=0
TRACE=0
UPDATE=0
MVCC=0
ASYNC=0
TUNER=0
for arg in "$@"; do
  case "$arg" in
    --serve) SERVE=1 ;;
    --micro) MICRO=1 ;;
    --trace) TRACE=1 ;;
    --update) UPDATE=1 ;;
    --mvcc) MVCC=1 ;;
    --async) ASYNC=1 ;;
    --tuner) TUNER=1 ;;
    *) echo "usage: scripts/reproduce.sh [--serve] [--micro] [--trace]" \
            "[--update] [--mvcc] [--async] [--tuner]" >&2
       exit 2 ;;
  esac
done

if [ "$TRACE" -eq 1 ]; then
  # Fast path for CI observability smoke: a traced + validated solve whose
  # exit status already encodes the accounting self-check (exit 3 = a
  # root's span sum disagreed with its reported BktTime/OtherTime).
  cmake -B build -S . >/dev/null
  cmake --build build -j --target sssp_cli
  ./build/tools/sssp_cli --scale 13 --ranks 4 --lanes 2 --algo opt \
    --roots 2 --validate --trace trace.json
  python3 - <<'EOF'
import json
with open("trace.json") as f:
    doc = json.load(f)
events = doc["traceEvents"]
complete = [e for e in events if e["ph"] == "X"]
assert complete, "trace.json has no complete ('X') span events"
names = {e["name"] for e in complete}
for needed in ("solve", "bucket_scan", "exchange"):
    assert needed in names, f"span {needed!r} missing from trace"
assert all(e["dur"] >= 0 for e in complete), "negative span duration"
print(f"trace.json OK: {len(complete)} spans, names: {sorted(names)}")
EOF
  echo "wrote trace.json (load it at ui.perfetto.dev)"
  exit 0
fi

if [ "$UPDATE" -eq 1 ]; then
  # Fast path for CI dynamic-update smoke: the bench's exit status encodes
  # both acceptance gates (repair/fresh bit-identity and the >=5x median
  # small-batch repair speedup over RMAT-1).
  cmake -B build -S . >/dev/null
  cmake --build build -j --target update_throughput
  ./build/bench/update_throughput BENCH_update_throughput.json
  echo "wrote BENCH_update_throughput.json"
  exit 0
fi

if [ "$MVCC" -eq 1 ]; then
  # Fast path for CI perf smoke: the bench's exit status encodes the MVCC
  # acceptance gates (query p99 within 1.2x of the update-free control and
  # zero stale answers across the sampled versions).
  cmake -B build -S . >/dev/null
  cmake --build build -j --target mvcc_serving
  ./build/bench/mvcc_serving BENCH_mvcc_serving.json
  echo "wrote BENCH_mvcc_serving.json"
  exit 0
fi

if [ "$ASYNC" -eq 1 ]; then
  # Fast path for CI perf smoke: the bench's exit status encodes the
  # asynchronous engine's acceptance gates (bit-exact distances vs OPT on
  # every measured solve, >=10x fewer global syncs on RMAT-1, and a cold
  # single-root p50 win on at least one row).
  cmake -B build -S . >/dev/null
  cmake --build build -j --target async_latency
  ./build/bench/async_latency BENCH_async_latency.json
  echo "wrote BENCH_async_latency.json"
  exit 0
fi

if [ "$TUNER" -eq 1 ]; then
  # Fast path for CI perf smoke: the bench's exit status encodes the
  # stepping/auto-tuner acceptance gates (every engine bit-identical to
  # OPT, tuned config within 10% of the best hand-picked config on every
  # row, and a >5% win over the best single global config somewhere).
  cmake -B build -S . >/dev/null
  cmake --build build -j --target tuner_bakeoff
  ./build/bench/tuner_bakeoff BENCH_tuner.json
  echo "wrote BENCH_tuner.json"
  exit 0
fi

if [ "$MICRO" -eq 1 ]; then
  # Micro-kernel numbers only: no test sweep, no figure benches.
  cmake -B build -S . >/dev/null
  cmake --build build -j --target micro_kernels
  ./build/bench/micro_kernels \
    --benchmark_out=BENCH_micro_kernels.json \
    --benchmark_out_format=json
  echo "wrote BENCH_micro_kernels.json"
  exit 0
fi

scripts/check.sh --quick 2>&1 | tee test_output.txt

{
  for b in build/bench/*; do
    # serve_throughput / update_throughput are acceptance benches with JSON
    # side effects; they run under --serve / --update, not the figure sweep.
    case "$b" in
      *serve_throughput*|*update_throughput*|*mvcc_serving*|*async_latency*|*tuner_bakeoff*)
        continue ;;
    esac
    if [ -x "$b" ] && [ ! -d "$b" ]; then
      echo "===== $b ====="
      "$b"
      echo
    fi
  done
} 2>&1 | tee bench_output.txt

echo "=== examples smoke ==="
./build/examples/example_quickstart
./build/examples/example_push_pull_demo
./build/tools/graph500_sssp 11 16 8 8

if [ "$SERVE" -eq 1 ]; then
  echo
  echo "=== serving benchmark (--serve) ==="
  ./build/bench/serve_throughput BENCH_serve_throughput.json
  echo "wrote BENCH_serve_throughput.json"
fi

echo
echo "done: see test_output.txt, bench_output.txt, EXPERIMENTS.md"
