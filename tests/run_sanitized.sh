#!/usr/bin/env sh
# Configures, builds, and runs the full test suite under a sanitizer:
#   asan (default) — AddressSanitizer + UndefinedBehaviorSanitizer
#                    (the SCCFT_SANITIZE CMake option)
#   tsan           — ThreadSanitizer (the SCCFT_SANITIZE_THREAD option)
#
# The coroutine-based runtime hands coroutine frames across scheduler events;
# the classes of bug that matter most here — a stale wake-up resuming a frame
# a restart already destroyed, a double resume, a container invalidating a
# parked handle — are exactly what ASan/UBSan catch and plain tests may miss.
# The TSan lane targets the OTHER concurrency surface: the worker pool behind
# --jobs (parallel_for_ordered), the per-thread log-capture stacks, and the
# synchronized memoization caches that the fault campaign and chaos soak
# share across workers.
#
# Usage: tests/run_sanitized.sh [build-dir] [asan|tsan]
#   default build-dir: build-sanitize (asan) / build-tsan (tsan)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
mode=asan
build_dir=
for arg in "$@"; do
  case "$arg" in
    asan|tsan) mode=$arg ;;
    *) build_dir=$arg ;;
  esac
done

case "$mode" in
  asan)
    build_dir=${build_dir:-"${repo_root}/build-sanitize"}
    sanitize_flags="-DSCCFT_SANITIZE=ON"
    ;;
  tsan)
    build_dir=${build_dir:-"${repo_root}/build-tsan"}
    sanitize_flags="-DSCCFT_SANITIZE_THREAD=ON"
    ;;
esac

cmake -B "${build_dir}" -S "${repo_root}" ${sanitize_flags}
cmake --build "${build_dir}" -j "$(nproc)"
# -LE bench skips the bench-sized smoke runs; the soaks below drive the same
# paths at sizes that suit instrumentation. Every `unit` test runs, the
# sccft_bench count pin (tests/bench_counts.cmake) included.
ctest --test-dir "${build_dir}" -j "$(nproc)" --output-on-failure -LE bench
# Drive the parallel campaign path (worker pool, per-thread log capture,
# synchronized memoization caches) under the sanitizer: data races on the
# shared caches or the capture stack would surface here, not in the serial
# suite. The chaos soak adds a second, storm-shaped parallel workload over
# the same pool (and exercises the oracle/artifact layers).
"${build_dir}/bench/fault_campaign" --jobs 4 --csv "${build_dir}/fault_campaign_sanitized.csv" > /dev/null
"${build_dir}/bench/chaos_soak" --runs 50 --jobs 4 --csv "${build_dir}/chaos_soak_sanitized.csv" > /dev/null
# Control-plane storms arm the watchdog + scrubber and attack the supervisor
# and channel bookkeeping themselves — the defense paths (watchdog expiry
# handlers, TMR scrub sweeps, flight-ring resync) run under the sanitizer too.
"${build_dir}/bench/chaos_soak" --runs 30 --jobs 4 --control-plane --csv "${build_dir}/chaos_soak_control_sanitized.csv" > /dev/null
# Reconfiguration storms open periodic live-resize windows while faults land
# inside them — the quiesce/apply/resume path, the suspended-rule deque, and
# the frontier-hold interactions all churn channel state under the sanitizer.
"${build_dir}/bench/chaos_soak" --runs 30 --jobs 4 --reconfigure --csv "${build_dir}/chaos_soak_reconfig_sanitized.csv" > /dev/null
# N-replica storms drive the payload-vote rig (the harness in vote mode with
# three interfaces, cross-replica double faults, vote-conviction sweeps) —
# the selective-replication machinery's hot path under the sanitizer.
"${build_dir}/bench/chaos_soak" --runs 30 --jobs 4 --nreplica 3 --csv "${build_dir}/chaos_soak_nreplica_sanitized.csv" > /dev/null
