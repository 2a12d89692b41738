#!/usr/bin/env bash
# CI lanes beyond the tier-1 build+ctest. Usage:
#
#   tools/check.sh [lane] [build-dir]
#
# Lanes:
#   asan     (default) build under ASan+UBSan, run the tier-1 test suite.
#            Default build dir: build-asan.
#   werror   build the whole tree with -Werror (RE_WERROR=ON).
#            Default build dir: build-werror.
#   bench    smoke-run every bench_* binary with tiny iteration counts
#            (RE_BENCH_SMOKE=1, RE_MIX_COUNT=2); each must exit 0.
#            Default build dir: build (reuses the tier-1 build).
#   verify   run the differential-verification lane: `ctest -L verify`,
#            then `repf verify` against the committed golden plans
#            (plans_<machine>.golden) and simulator statistics
#            (sim_<machine>.golden) for both machines at --jobs 1 and
#            --jobs 8, compared byte-for-byte (determinism). The
#            differential suites against the reference models
#            (ReferenceCache, CursorDifferential for ReferenceCursor,
#            ReferenceSampler) then rerun at RE_TEST_SEED 1, 2024 and
#            0xDEADBEEF beside the default seed, so the lane sweeps four
#            fuzz draws, not one.
#            `tools/check.sh verify --bless` re-blesses both instead.
#            Default build dir: build.
#   chaos    run the chaos-engineering lane under ASan+UBSan: `ctest -L
#            chaos`, then a seeded `repf chaos --crash-check --jobs 2`
#            sweep, run twice and compared byte-for-byte (the
#            schedule-determinism contract: a failing seed from CI
#            reproduces locally with one flag). Default build dir:
#            build-asan.
#   serve    run the advisory-service lane under ASan+UBSan: `ctest -L
#            serve`, bench_serve + bench_serve_fairness smoke soaks
#            (overload, crash, fairness-isolation and poisoned-warm-start
#            gates), and double `repf serve` / `repf chaos --serve
#            --crash-check` / `repf chaos --serve --poison-warm-start`
#            runs compared byte-for-byte (the service determinism
#            contract). Default build dir: build-asan.
#   corun    run the shared-cache co-run lane under ASan+UBSan: `ctest -L
#            corun`, a bench_corun smoke run (interference-prediction +
#            determinism gates), then the full `repf corun` scenario
#            matrix against the committed co-run goldens, run twice at
#            --jobs 2 and compared byte-for-byte. `tools/check.sh corun
#            --bless` re-blesses the co-run goldens instead. Default
#            build dir: build-asan.
#   tsan     build under ThreadSanitizer (RE_SANITIZE=thread), run the
#            unit, verify and engine test labels, then `repf verify
#            --golden --jobs 8` on both machines — the engine's concurrency
#            under the race detector. Default build dir: build-tsan.
#   coverage Debug build with RE_COVERAGE=ON, full ctest, gcov aggregate
#            over src/; fails if line coverage drops more than 2 points
#            below the baseline recorded in DESIGN.md ("Coverage baseline:
#            NN.N %"). Default build dir: build-cov.
#   perfbench
#            run the benchmark's own tests (`python3
#            perfbench/test_perfbench.py`): every workload's smoke run
#            prints each end-to-end metric and matches its recorded digest,
#            a perturbed statistic trips the digest check, the 1- and
#            4-worker digests agree, and a traced pass equals an untraced
#            one. Builds perfbench's own Release tree (.bench_build/).
#   unit | integration
#            ctest label shortcuts against the tier-1 build
#            (`ctest -L unit` / `ctest -L integration`).
#
# Back-compat: an unknown first argument is treated as the build dir for
# the asan lane (the original single-lane interface).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

LANE="${1:-asan}"
case "$LANE" in
  asan|werror|bench|verify|chaos|serve|corun|tsan|coverage|perfbench|unit|integration) shift || true ;;
  *) LANE=asan ;;  # first arg is a build dir, keep it in $1
esac

run_asan() {
  local build_dir="${1:-build-asan}"
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRE_SANITIZE=address,undefined
  cmake --build "$build_dir" -j "$JOBS"

  # UBSan failures abort (halt_on_error) so ctest reports them as failures
  # instead of burying them in logs.
  export ASAN_OPTIONS="detect_leaks=0:halt_on_error=1"
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"

  echo "sanitizer lane clean"
}

run_werror() {
  local build_dir="${1:-build-werror}"
  cmake -B "$build_dir" -S . -DRE_WERROR=ON
  cmake --build "$build_dir" -j "$JOBS"
  echo "werror lane clean"
}

run_bench() {
  local build_dir="${1:-build}"
  if [[ ! -d "$build_dir" ]]; then
    cmake -B "$build_dir" -S .
  fi
  cmake --build "$build_dir" -j "$JOBS"

  export RE_BENCH_SMOKE=1
  export RE_MIX_COUNT=2
  local failed=0
  for bench in "$build_dir"/bench/bench_*; do
    [[ -x "$bench" && ! -d "$bench" ]] || continue
    local name
    name="$(basename "$bench")"
    echo "== smoke: $name"
    # Run from the build's bench dir so BENCH_*.json reports land there.
    case "$name" in
      bench_micro_components)
        # google-benchmark binary: cap each micro-bench at a token runtime
        # (plain seconds — the "Nx" repetition syntax needs benchmark >= 1.8).
        (cd "$build_dir/bench" && "./$name" --benchmark_min_time=0.01) \
          > /dev/null || failed=1 ;;
      *)
        (cd "$build_dir/bench" && "./$name") > /dev/null || failed=1 ;;
    esac
    [[ "$failed" == 1 ]] && { echo "FAILED: $name"; exit 1; }
  done
  echo "bench smoke lane clean"
}

ensure_build() {
  local build_dir="$1"
  if [[ ! -d "$build_dir" ]]; then
    cmake -B "$build_dir" -S .
  fi
  cmake --build "$build_dir" -j "$JOBS"
}

run_label() {
  local label="$1" build_dir="${2:-build}"
  ensure_build "$build_dir"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" -L "$label"
  echo "$label lane clean"
}

run_verify() {
  local build_dir="build"
  local bless=0
  if [[ "${1:-}" == "--bless" ]]; then
    bless=1
    shift || true
  fi
  build_dir="${1:-build}"
  ensure_build "$build_dir"

  if [[ "$bless" == 1 ]]; then
    "$build_dir/tools/repf" verify --bless --golden tests/golden
    "$build_dir/tools/repf" verify --bless --golden tests/golden --machine intel
    echo "plan and sim goldens re-blessed under tests/golden/"
    return
  fi

  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" -L verify
  for seed in 1 2024 0xDEADBEEF; do
    RE_TEST_SEED="$seed" ctest --test-dir "$build_dir" --output-on-failure \
      -j "$JOBS" -R '^(ReferenceCache|CursorDifferential|ReferenceSampler)\.'
    echo "== reference-model differential suites clean at RE_TEST_SEED=$seed"
  done

  # The oracle sweep must pass against the committed plan and simulator
  # goldens on both machines — and be byte-identical between the serial
  # path and an 8-worker fan-out (the determinism contract behind golden
  # snapshots, RE_TEST_SEED reproduction and --jobs).
  local out_a out_b
  out_a="$(mktemp)" ; out_b="$(mktemp)"
  trap 'rm -f "$out_a" "$out_b"' RETURN
  for machine in amd intel; do
    "$build_dir/tools/repf" verify --golden tests/golden --machine "$machine" \
      --jobs 1 > "$out_a"
    "$build_dir/tools/repf" verify --golden tests/golden --machine "$machine" \
      --jobs 8 > "$out_b"
    cmp -s "$out_a" "$out_b" || {
      echo "FAILED: repf verify --machine $machine differs at --jobs 1 vs 8"
      diff "$out_a" "$out_b" | head -20
      exit 1
    }
    echo "== repf verify --machine $machine: clean + identical at --jobs 1/8"
  done
  echo "verify lane clean"
}

run_chaos() {
  # Recovery paths are exactly where latent memory bugs hide (controllers
  # torn down mid-window, overlays swapped under the simulator), so this
  # lane runs the whole harness under ASan+UBSan.
  local build_dir="${1:-build-asan}"
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRE_SANITIZE=address,undefined
  cmake --build "$build_dir" -j "$JOBS"

  export ASAN_OPTIONS="detect_leaks=0:halt_on_error=1"
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" -L chaos

  # The full fault-rate sweep plus the plan-cache kill/corruption check,
  # run twice and compared byte-for-byte: same seed, same bytes.
  local out_a out_b
  out_a="$(mktemp)" ; out_b="$(mktemp)"
  trap 'rm -f "$out_a" "$out_b"' RETURN
  # --jobs 2 exercises the engine fan-out on the recovery path; the
  # byte-for-byte comparison doubles as the determinism gate for it.
  (cd "$build_dir" && tools/repf chaos --crash-check --jobs 2) > "$out_a"
  (cd "$build_dir" && tools/repf chaos --crash-check --jobs 2) > "$out_b"
  cmp -s "$out_a" "$out_b" || {
    echo "FAILED: repf chaos is not deterministic"
    diff "$out_a" "$out_b" | head -20
    exit 1
  }
  echo "== repf chaos --crash-check --jobs 2: gates hold + deterministic"
  echo "chaos lane clean"
}

run_serve() {
  # The service's robustness envelope lives in its failure paths (deadline
  # cancellation unwinding the optimize graph, breaker-gated shards,
  # journal recovery after torn appends), so the whole lane runs under
  # ASan+UBSan, and everything runs twice: same seed, same bytes.
  local build_dir="${1:-build-asan}"
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRE_SANITIZE=address,undefined
  cmake --build "$build_dir" -j "$JOBS"

  export ASAN_OPTIONS="detect_leaks=0:halt_on_error=1"
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" -L serve

  # bench_serve in smoke mode still enforces every gate (bounded queue,
  # no stale-as-fresh, p99 within deadline, cross-jobs digest equality).
  (cd "$build_dir/bench" && RE_BENCH_SMOKE=1 ./bench_serve) > /dev/null
  echo "== bench_serve smoke: overload + determinism gates hold"

  # bench_serve_fairness in smoke mode enforces the isolation invariant
  # (a chatty or slow-consumer tenant cannot move a victim's p99 or
  # degraded mix beyond the documented bound) plus the poison sweep.
  (cd "$build_dir/bench" && RE_BENCH_SMOKE=1 ./bench_serve_fairness) > /dev/null
  echo "== bench_serve_fairness smoke: isolation + warm-start gates hold"

  local out_a out_b
  out_a="$(mktemp)" ; out_b="$(mktemp)"
  trap 'rm -f "$out_a" "$out_b"' RETURN
  # The service sim at two worker counts, then the fault-rate sweep with
  # the journal crash check — each compared byte-for-byte across runs.
  (cd "$build_dir" && tools/repf serve --jobs 1) > "$out_a"
  (cd "$build_dir" && tools/repf serve --jobs 8) > "$out_b"
  cmp -s "$out_a" "$out_b" || {
    echo "FAILED: repf serve differs at --jobs 1 vs 8"
    diff "$out_a" "$out_b" | head -20
    exit 1
  }
  echo "== repf serve: gates hold + identical at --jobs 1/8"
  (cd "$build_dir" && tools/repf chaos --serve --crash-check --jobs 2) > "$out_a"
  (cd "$build_dir" && tools/repf chaos --serve --crash-check --jobs 2) > "$out_b"
  cmp -s "$out_a" "$out_b" || {
    echo "FAILED: repf chaos --serve is not deterministic"
    diff "$out_a" "$out_b" | head -20
    exit 1
  }
  echo "== repf chaos --serve --crash-check: gates hold + deterministic"
  # Poisoned warm start under the sanitizers: bit-flipped, stale-fingerprint
  # and truncated journals may only cost warmth (degrade-to-fresh), never
  # serve stale-as-fresh or crash — and the sweep itself must be
  # byte-deterministic across runs.
  (cd "$build_dir" && tools/repf chaos --serve --poison-warm-start) > "$out_a"
  (cd "$build_dir" && tools/repf chaos --serve --poison-warm-start) > "$out_b"
  cmp -s "$out_a" "$out_b" || {
    echo "FAILED: repf chaos --serve --poison-warm-start is not deterministic"
    diff "$out_a" "$out_b" | head -20
    exit 1
  }
  echo "== repf chaos --serve --poison-warm-start: gates hold + deterministic"
  echo "serve lane clean"
}

run_corun() {
  # The co-run path mixes a Fenwick-tree oracle, __int128 interleaving and
  # a fanned-out composition graph — prime sanitizer territory — so the
  # whole lane runs under ASan+UBSan.
  local bless=0
  if [[ "${1:-}" == "--bless" ]]; then
    bless=1
    shift || true
  fi
  local build_dir="${1:-build-asan}"
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRE_SANITIZE=address,undefined
  cmake --build "$build_dir" -j "$JOBS"

  export ASAN_OPTIONS="detect_leaks=0:halt_on_error=1"
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

  if [[ "$bless" == 1 ]]; then
    "$build_dir/tools/repf" corun --bless --golden tests/golden
    "$build_dir/tools/repf" corun --bless --golden tests/golden --machine intel
    echo "co-run goldens re-blessed under tests/golden/"
    return
  fi

  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" -L corun

  # bench_corun in smoke mode still enforces every gate (degradation
  # predicted + confirmed, composed error bound, jobs determinism).
  (cd "$build_dir/bench" && RE_BENCH_SMOKE=1 ./bench_corun) > /dev/null
  echo "== bench_corun smoke: interference + determinism gates hold"

  # The full scenario matrix against the committed co-run goldens on both
  # machines, run twice and compared byte-for-byte: same seed, same bytes.
  local out_a out_b
  out_a="$(mktemp)" ; out_b="$(mktemp)"
  trap 'rm -f "$out_a" "$out_b"' RETURN
  for machine in amd intel; do
    "$build_dir/tools/repf" corun --golden tests/golden --machine "$machine" \
      --jobs 2 > "$out_a"
    "$build_dir/tools/repf" corun --golden tests/golden --machine "$machine" \
      --jobs 2 > "$out_b"
    cmp -s "$out_a" "$out_b" || {
      echo "FAILED: repf corun --machine $machine is not deterministic"
      diff "$out_a" "$out_b" | head -20
      exit 1
    }
    echo "== repf corun --machine $machine: bounds hold + deterministic"
  done
  echo "corun lane clean"
}

run_tsan() {
  # The engine fans analysis out over a thread pool; this lane is the race
  # detector for it. The engine label carries the dedicated stress tests —
  # 64 concurrent windowed solves on one shared executor, the claim storm
  # (executor_test.cc: 16 workers x 8 rounds of tiny units, maximal
  # contention on the claim counter) and plan-cache contention; unit and
  # verify cover the refactored consumers.
  local build_dir="${1:-build-tsan}"
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRE_SANITIZE=thread
  cmake --build "$build_dir" -j "$JOBS"

  export TSAN_OPTIONS="halt_on_error=1"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" \
    -L 'unit|verify|engine'

  # The golden sweep at 8 workers: every fan-out in the verify path runs
  # under TSan, and the plans must still match the committed snapshots.
  for machine in amd intel; do
    "$build_dir/tools/repf" verify --golden tests/golden \
      --machine "$machine" --jobs 8 > /dev/null
    echo "== repf verify --machine $machine --jobs 8: clean under TSan"
  done
  echo "tsan lane clean"
}

run_coverage() {
  local build_dir="${1:-build-cov}"
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DRE_COVERAGE=ON
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" -j "$JOBS" --output-on-failure > /dev/null

  # Aggregate line coverage over src/ with plain gcov (no gcovr/lcov in the
  # image): sum per-file "Lines executed" over every instrumented object.
  local pct
  pct="$(
    cd "$build_dir" &&
    find src -name '*.gcda' | while read -r gcda; do
      gcov -n "${gcda%.gcda}.o" 2>/dev/null
    done | awk '
      /^File/ { f=$2; keep = index(f, "/src/") || index(f, "src/") == 2 }
      /^Lines executed/ && keep {
        split($0, a, ":"); split(a[2], b, "% of ")
        covered += b[1] / 100.0 * b[2]; total += b[2]
      }
      END { if (total) printf "%.1f", 100.0 * covered / total; else printf "0.0" }'
  )"
  echo "line coverage over src/: ${pct}%"

  local baseline
  baseline="$(sed -n 's/.*Coverage baseline: \([0-9.]*\) %.*/\1/p' DESIGN.md | head -1)"
  if [[ -z "$baseline" ]]; then
    echo "no coverage baseline recorded in DESIGN.md; current is ${pct}%"
    exit 1
  fi
  awk -v p="$pct" -v b="$baseline" 'BEGIN { exit !(p + 2.0 >= b) }' || {
    echo "FAILED: coverage ${pct}% is more than 2 points below baseline ${baseline}%"
    exit 1
  }
  echo "coverage lane clean (baseline ${baseline}%)"
}

run_perfbench() {
  python3 perfbench/test_perfbench.py
  echo "perfbench lane clean"
}

case "$LANE" in
  asan) run_asan "${1:-}" ;;
  werror) run_werror "${1:-}" ;;
  bench) run_bench "${1:-}" ;;
  verify) run_verify "${1:-}" "${2:-}" ;;
  chaos) run_chaos "${1:-}" ;;
  serve) run_serve "${1:-}" ;;
  corun) run_corun "${1:-}" "${2:-}" ;;
  tsan) run_tsan "${1:-}" ;;
  coverage) run_coverage "${1:-}" ;;
  perfbench) run_perfbench ;;
  unit) run_label unit "${1:-}" ;;
  integration) run_label integration "${1:-}" ;;
esac
