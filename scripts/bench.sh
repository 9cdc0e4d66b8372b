#!/usr/bin/env bash
# Runs the micro-benchmarks and records the results at the repo root.
#
#   scripts/bench.sh                   # Release build dir ./build, 0.1 s/bench
#   BUILD_DIR=out scripts/bench.sh     # different build tree
#   MIN_TIME=0.5 scripts/bench.sh      # longer sampling for stabler numbers
#   FILTER='BM_Thermal' scripts/bench.sh  # subset of benchmarks
#
# Writes BENCH_micro.json (Google Benchmark JSON) at the repo root — the
# perf trajectory the README's Performance section points at — while
# still printing the human-readable console table.  Every benchmark runs
# 10 repetitions and only their aggregates (mean, median, stddev, cv) are
# kept; scripts/perf_gate.py compares the medians, because single
# samples on a shared host swing by more than the gate's tolerance.
# Repetitions run randomly interleaved across benchmarks, as in CI's perf
# smoke step, so a slow host phase spreads over all of them instead of
# landing on whichever benchmarks ran during it; twice CI's 5 keep a
# quarter of slow samples from moving the baseline's median.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
MIN_TIME="${MIN_TIME:-0.1}"
FILTER="${FILTER:-.}"

if [ ! -x "$BUILD_DIR/bench/micro_perf" ]; then
    GENERATOR_ARGS=()
    if command -v ninja >/dev/null 2>&1; then
        GENERATOR_ARGS=(-G Ninja)
    fi
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release "${GENERATOR_ARGS[@]}"
    cmake --build "$BUILD_DIR" -j --target micro_perf
fi

# BENCH_micro.json is the checked-in perf trajectory; refuse to record
# it from anything but a Release build (ALLOW_NON_RELEASE=1 overrides,
# e.g. for local profiling experiments).
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)
if [ "$BUILD_TYPE" != "Release" ] && [ "${ALLOW_NON_RELEASE:-0}" != "1" ]; then
    echo "error: $BUILD_DIR is a '$BUILD_TYPE' build; BENCH_micro.json must be recorded" >&2
    echo "from Release (set ALLOW_NON_RELEASE=1 to override, or point BUILD_DIR at a" >&2
    echo "Release tree)." >&2
    exit 1
fi

# Record the parallel topology alongside the numbers: Google Benchmark's
# own num_cpus only sees the affinity mask, which hides how wide the
# thread-pool bench (BM_FleetStep) actually ran.  LTSC_THREADS is the
# pool override honored across the library.
HW_THREADS=$(nproc --all 2>/dev/null || getconf _NPROCESSORS_CONF)
AFFINE_THREADS=$(nproc 2>/dev/null || echo "$HW_THREADS")
POOL_THREADS="${LTSC_THREADS:-$AFFINE_THREADS}"

# Provenance: which code and which build produced these numbers.  A
# dirty tree is marked so a baseline recorded from uncommitted work is
# distinguishable from the SHA it claims.
GIT_SHA=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    GIT_SHA="$GIT_SHA-dirty"
fi

"$BUILD_DIR/bench/micro_perf" \
    --benchmark_filter="$FILTER" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions=10 \
    --benchmark_report_aggregates_only=true \
    --benchmark_enable_random_interleaving=true \
    --benchmark_context=hw_threads="$HW_THREADS" \
    --benchmark_context=affine_threads="$AFFINE_THREADS" \
    --benchmark_context=pool_threads="$POOL_THREADS" \
    --benchmark_context=git_sha="$GIT_SHA" \
    --benchmark_context=build_type="$BUILD_TYPE" \
    --benchmark_out=BENCH_micro.json \
    --benchmark_out_format=json

echo
echo "wrote $(pwd)/BENCH_micro.json"
