#!/usr/bin/env bash
# CI-style verification: configure + build + ctest in plain, TSan, ASan(+UBSan) and
# Release configurations, failing on the first error.
#
# Usage:
#   tools/check.sh                # all four configurations
#   tools/check.sh plain          # just one (plain | thread | address | release)
#   tools/check.sh --oversub plain
#                                 # additionally run the oversubscription smoke (a
#                                 # short bench/abl_oversub sweep at 64 threads) after
#                                 # the plain test pass — a cheap "does the list-family
#                                 # watch-loop admission gate still survive
#                                 # oversubscription" canary
#
# The sanitizer passes run the concurrency-heavy lock tests (not the full suite) to keep
# wall-clock sane under the ~10x sanitizer slowdown; the plain pass runs everything —
# including the `bench_smoke` tier, which runs every bench binary with tiny durations so
# benches can rot neither at compile time nor at runtime.
# CTest labels split the tiers further: `unit` tests run under every configuration, but
# `stress` tests (the randomized fuzz batteries) run only in plain and TSan — their value
# under a sanitizer is catching data races, which is TSan's job; repeating them under
# ASan+UBSan would double the slowest part of the matrix for little coverage.
# The release pass builds everything with -DCMAKE_BUILD_TYPE=Release (still -Werror:
# -O3 enables diagnostics such as -Wrestrict that the default build never sees) and runs
# the unit tier.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# Peel option flags off before the remaining words become the configuration list.
OVERSUB=0
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --oversub) OVERSUB=1 ;;
    *) ARGS+=("$arg") ;;
  esac
done
CONFIGS=("${ARGS[@]:-plain thread address release}")
# Word-split the default string while leaving explicit args intact.
read -r -a CONFIGS <<<"${CONFIGS[*]}"

# Lock-free hot paths + the sync substrate: what TSan/ASan must stay clean on.
# VmStructuralFuzz is the structural-VM-op battery (optimistic mm_rb walks, epoch-
# reclaimed VMAs, range-scoped mmap/munmap); it carries the `stress` label, so the
# ASan+UBSan pass (-LE stress) skips it while TSan races it for real.
SANITIZED_TESTS='ListRangeLock|ListLockFree|ListRwRangeLock|FastPathHandoff|FairList|LockConformance|LockFuzz|Epoch|Sync|SpinLock|TicketLock|RwSpinLock|FairRwLock|RwSemaphore|TreeRangeLock|SegmentRangeLock|RangeOracle|VmStructuralFuzz|VmFaultUnmapRace|VmStripe|VmSweep|SkiplistRangeLock|SkipList|Admission|Topology|PerCpuCounter|VmLock|VmPageTable'

run_config() {
  local config="$1"
  local build_dir sanitize build_type=RelWithDebInfo
  case "$config" in
    plain)   build_dir=build-check;         sanitize="" ;;
    thread)  build_dir=build-check-tsan;    sanitize=thread ;;
    address) build_dir=build-check-asan;    sanitize=address ;;
    release) build_dir=build-check-release; sanitize=""; build_type=Release ;;
    *) echo "unknown configuration: $config (want plain|thread|address|release)" >&2
       exit 2 ;;
  esac

  echo "=== [$config] configure ==="
  cmake -B "$build_dir" -S . -DSRL_SANITIZE="$sanitize" -DCMAKE_BUILD_TYPE="$build_type"

  echo "=== [$config] build ==="
  cmake --build "$build_dir" -j "$JOBS"

  echo "=== [$config] test ==="
  if [[ "$config" == plain ]]; then
    ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
    if [[ "$OVERSUB" == 1 ]]; then
      # Oversubscription canary: far more threads than any CI core count, long enough
      # for the parking/cull machinery to engage. The hot mix drives the one remaining
      # gate site — the list-family watch loop (HarrisList::WaitForRelease and the
      # skiplist's wait) — directly; tree and stock are ungated references. Exit status
      # only — perf numbers from shared runners are not judged here (see
      # tools/perf_diff.py for trajectories).
      echo "=== [$config] oversubscription smoke ==="
      "$build_dir/bench/abl_oversub" \
        --variants=stock,tree,list,list-lf,skiplist --mixes=hot,adversarial \
        --threads=64 --gates=on,off --secs=0.2 --repeats=1
    fi
  elif [[ "$config" == release ]]; then
    ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" -L unit
  elif [[ "$config" == thread ]]; then
    # Sanitizers must abort the test process on any finding, not just log it.
    local tsan_options="halt_on_error=1 second_deadlock_stack=1"
    TSAN_OPTIONS="$tsan_options" \
      ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" -R "$SANITIZED_TESTS"
    # Real-core repeats of the gate hammers: one TSan pass per push rarely lands the
    # interleavings the admission Dekker park/exit pair exists for; twenty give each
    # hammer that many more schedules on the host's real cores.
    echo "=== [$config] admission hammer repeats ==="
    TSAN_OPTIONS="$tsan_options" "$build_dir/tests/admission_test" \
      --gtest_filter='AdmissionGate*:AdmissionSpinner*' --gtest_repeat=20
  else
    # ASan+UBSan: unit tier only (-LE stress); see the header comment.
    ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
    UBSAN_OPTIONS="halt_on_error=1" \
      ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" \
        -R "$SANITIZED_TESTS" -LE stress
  fi
}

for config in "${CONFIGS[@]}"; do
  run_config "$config"
done

echo "=== all configurations green ==="
