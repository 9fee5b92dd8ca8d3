#!/usr/bin/env bash
# CI entry point: static-analysis gates, then build and test three
# configurations.
#
#   lint             pathlint --strict (all fault-path contracts:
#                    sigsafe, stack-bound, no-alloc, lock-blocking,
#                    atomics; writes pathlint_report.json), the
#                    annotation negative-compile suite, a full-tree
#                    clang-tidy pass against the committed ratchet
#                    baseline and a clang -Wthread-safety -Werror
#                    build (clang legs skipped cleanly when clang is
#                    not installed)
#   build-release/   Release            the configuration the benches use;
#                                       its ctest must leave no new
#                                       /tmp/viyojit_* file behind
#   .bench_build/    perfbench          repository-benchmark smoke: one
#                                       short traced power-cut/restart
#                                       run per real-NvRegion workload
#                                       (one client; two clients on two
#                                       shards with a copier) and one on
#                                       the simulator
#   build-sanitize/  RelWithDebInfo     ASan + UBSan + -Werror
#   build-tsan/      RelWithDebInfo     TSan (VIYOJIT_SANITIZE=thread)
#
# `./ci.sh lint` runs only the lint stage.  The full run puts lint
# first: the gates are seconds, the build matrix is minutes.
#
# Lint is fail-fast.  Every stage after it runs even when an earlier
# one failed (a red smoke gate must not hide the sanitizer and TSan
# legs behind it): each runs through run_stage in its own `set -e`
# subshell, so its first failing command ends that stage only.  The
# script then exits 1 naming every failed stage.
#
# The release and sanitize configurations run the full ctest suite;
# the sanitizer pass is what catches the bit-twiddling mistakes the
# fast epoch paths invite (summary-mask indexing, shift widths,
# heap/cursor bookkeeping), and it builds with VIYOJIT_WERROR=ON so
# warning regressions fail CI instead of scrolling past.  The TSan
# pass runs the threaded suites against the sharded runtime, and the
# release build additionally gates on the concurrency smoke benchmark
# (sharding must not slow the single-threaded path down).

set -euo pipefail
cd "$(dirname "$0")"

JOBS=${JOBS:-$(nproc)}

run_lint() {
    # Fault-path contracts (tools/pathlint_contracts.ini): async-
    # signal-safety, the worst-case stack bound vs the installed
    # sigaltstack, allocation-freedom of fault path + emergency
    # drain, blocking discipline under locks, and explicit
    # memory_order on hot-path atomics.  Needs only the gcc
    # toolchain (the engine reads -S assembly and -fstack-usage
    # tables; a compiler without -fstack-usage skips just the
    # stack-bound contract, loudly, inside the tool).  --strict also
    # rejects stale allowlist entries so the audited set can only
    # shrink; pathlint_report.json is the CI artifact with the
    # computed stack bound.
    if command -v "${CXX:-g++}" >/dev/null 2>&1 \
            && command -v c++filt >/dev/null 2>&1; then
        echo "=== Lint: pathlint (fault-path contracts, --strict) ==="
        python3 tools/pathlint --strict --report pathlint_report.json
    else
        echo "WARNING: ${CXX:-g++} or c++filt not installed —" \
             "pathlint contracts SKIPPED (no fault-path audit ran)"
    fi

    # Thread-safety annotation contracts, from the breaking side:
    # broken TUs must trip clang, and must stay valid C++ for gcc.
    echo "=== Lint: annotation negative-compile suite ==="
    python3 tests/annotations_negcompile/run_negcompile.py
    if command -v clang++ >/dev/null 2>&1; then
        python3 tests/annotations_negcompile/run_negcompile.py \
            --compiler clang++
    else
        echo "clang++ not installed; clang negcompile leg skipped"
    fi

    # Full-tree annotation check: the contracts only have teeth under
    # clang, so build the tree with -Wthread-safety[-beta] + -Werror
    # when clang is available (CMakeLists.txt turns the flags on for
    # clang by default).
    if command -v clang++ >/dev/null 2>&1; then
        echo "=== Lint: clang -Wthread-safety build ==="
        cmake -B build-clang-tsa -S . \
              -DCMAKE_CXX_COMPILER=clang++ \
              -DCMAKE_BUILD_TYPE=RelWithDebInfo \
              -DVIYOJIT_WERROR=ON
        cmake --build build-clang-tsa -j "${JOBS}"
    else
        echo "clang++ not installed; -Wthread-safety build skipped" \
             "(annotations compile to no-ops under gcc)"
    fi

    # clang-tidy (.clang-tidy: bugprone-*, concurrency-*,
    # performance-*) over the FULL tree, ratcheted against the
    # committed tools/clang_tidy_baseline.txt — changed-files-only
    # linting let pre-existing warnings hide in untouched files.
    # The tool exits 77 when clang-tidy or the compile database is
    # unavailable; that is a loud skip, not a pass.
    echo "=== Lint: clang-tidy (full tree vs committed baseline) ==="
    local tidy_rc=0
    python3 tools/clang_tidy_baseline.py --build build-lint \
        || tidy_rc=$?
    if [[ "${tidy_rc}" -eq 77 ]]; then
        echo "WARNING: clang-tidy baseline pass SKIPPED (see above)"
    elif [[ "${tidy_rc}" -ne 0 ]]; then
        return "${tidy_rc}"
    fi

    echo "=== Lint OK ==="
}

# Run stage function $2 in a `set -e` subshell and record its name
# $1 in failed_stages when it fails.  Call it as a plain statement:
# bash ignores `set -e` inside any if/while condition or `||`, `&&`
# or `!` context, subshells included, so a failing command in the
# stage would then be skipped over instead of ending the stage.
failed_stages=()
run_stage() {
    local name=$1
    set +e
    ( set -e; "$2" )
    local rc=$?
    set -e
    if [[ "${rc}" -ne 0 ]]; then
        echo "=== Stage FAILED: ${name} (exit ${rc}) ===" >&2
        failed_stages+=("${name}")
    fi
}

stage_release() {
    echo "=== Release build ==="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-release -j "${JOBS}"
    # The suites make their backing images and `.meta` sidecars under
    # /tmp/viyojit_*; each test must remove what it made, so any file
    # there after the run that was not there before it fails CI.
    local tmp_before tmp_left
    tmp_before=$(compgen -G '/tmp/viyojit_*' | sort || true)
    ctest --test-dir build-release --output-on-failure -j "${JOBS}"
    tmp_left=$(comm -13 <(printf '%s\n' "${tmp_before}") \
                        <(compgen -G '/tmp/viyojit_*' | sort || true))
    if [[ -n "${tmp_left}" ]]; then
        echo "Release ctest left files behind:" >&2
        sed 's/^/  /' <<<"${tmp_left}" >&2
        exit 1
    fi
}

# Repository benchmark smoke (perfbench/, BENCHMARK.json): builds the
# perfbench package into .bench_build/ (its own CMake project over
# src/) and runs one short traced run of each real-NvRegion workload
# and of the simulator workload.  kv_read_2c is the only one with
# shards, a budget pool and a copier racing the background commit
# barrier.  Each run cuts power, restarts and verifies every
# acknowledged write, and the traced KV runs also restart from a
# pre-flush copy that must lose writes (the negative self-check).  A
# smoke, not a measurement: only "correct" is gated.
stage_perfbench() {
    echo "=== Repository benchmark smoke (perfbench restart-and-verify) ==="
    local run workload seconds last
    for run in "kv_update_1c 2" "kv_read_2c 2" "sim_update 3"; do
        read -r workload seconds <<<"${run}"
        if ! last=$(python3 perfbench/run.py --workload "${workload}" \
                        --seed 1 --seconds "${seconds}" --trace 1 \
                    | tail -n 1) \
           || ! python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' \
                    "${last}"; then
            echo "perfbench ${workload} smoke FAILED; last line: ${last:-}" >&2
            exit 1
        fi
        echo "perfbench ${workload}: correct"
    done
}

# Concurrency gates (bench/abl_concurrency.cc):
#  1. Sharding overhead: one thread over a sharded region must run
#     within 5% of the unsharded baseline (interleaved median-of-5).
#  2. Multicore scaling: 4 threads over 4 shards must reach >= 1.5x
#     the 1-thread throughput with fault p99 <= 2x (interleaved
#     median-of-3).  On a single-CPU host the scaling leg cannot
#     mean anything, so it prints a loud warning and passes — the
#     gate only has teeth where parallelism exists.
stage_concurrency() {
    echo "=== Concurrency smoke (parity + multicore scaling) ==="
    ./build-release/bench/abl_concurrency --smoke
}

# Coalesced-IO gate: batched run writeback must beat the per-page
# flush where locality exists and never lose where it does not
# (bench/abl_io_batching.cc; bars are relaxed under --smoke).
stage_io_batching() {
    echo "=== IO-batching smoke (per-page vs coalesced flush) ==="
    ./build-release/bench/abl_io_batching --smoke
}

# Copy-out compression gate: the measured-ratio budget multiplier
# must hold on compressible records and cost nothing measurable on
# incompressible data (bench/abl_compression.cc; bars relaxed under
# --smoke).
stage_compression() {
    echo "=== Compression smoke (effective-budget multiplier) ==="
    ./build-release/bench/abl_compression --smoke
}

# Smoke runs are gates, not measurements: they must leave the
# committed BENCH_*.json artifacts untouched.
stage_bench_artifacts() {
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1 \
            && ! git diff --quiet -- 'BENCH_*.json'; then
        echo "smoke stage modified committed BENCH_*.json artifacts:" >&2
        git diff --stat -- 'BENCH_*.json' >&2
        exit 1
    fi
}

stage_sanitize() {
    echo "=== ASan/UBSan build (-Werror) ==="
    cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DVIYOJIT_SANITIZE=ON -DVIYOJIT_WERROR=ON
    cmake --build build-sanitize -j "${JOBS}"
    ctest --test-dir build-sanitize --output-on-failure -j "${JOBS}"
}

# Seed-randomized torture pass: every CI run explores a different
# power-cut/fault trajectory under the sanitizers, one-shard and
# pooled (four shards on one battery).  The fixed-seed torture runs
# above are regression tests; this one is the search.
# A failure replays exactly with the printed seed (see EXPERIMENTS.md).
TORTURE_SEED=${VIYOJIT_TORTURE_SEED:-$(( $(date +%s) ^ $$ ))}
stage_torture() {
    echo "=== Randomized torture run (VIYOJIT_TORTURE_SEED=${TORTURE_SEED}) ==="
    if ! VIYOJIT_TORTURE_SEED="${TORTURE_SEED}" \
         ./build-sanitize/tests/torture_test \
         --gtest_filter='TortureTest.SurvivesSeededPowerCutsUnderFaultInjection:TortureTest.SurvivesPowerCutsDuringBatchedFlush:TortureTest.SurvivesPowerCutsDuringCompressedFlush:TortureTest.MultiShardDurabilityHoldsAtEveryCut'
    then
        echo "torture run FAILED; replay with:" >&2
        echo "  VIYOJIT_TORTURE_SEED=${TORTURE_SEED} ./build-sanitize/tests/torture_test" >&2
        exit 1
    fi
}

# Corruption-torture pass: the same randomized seed, but with the
# storage medium lying — silent bit flips, dropped writes, misdirected
# writes — plus power cuts landing mid-batched-flush.  The suite fails
# if even one corrupted page is silently accepted as durable
# (auditUnattributed must be zero); ZeroSilentAcceptanceAcrossSeeds
# alone covers three derived sub-seeds, so each CI run proves the
# verified-durability property on >= 3 distinct fault trajectories.
stage_corruption_torture() {
    echo "=== Randomized corruption torture (VIYOJIT_TORTURE_SEED=${TORTURE_SEED}) ==="
    if ! VIYOJIT_TORTURE_SEED="${TORTURE_SEED}" \
         ./build-sanitize/tests/torture_test \
         --gtest_filter='CorruptionTortureTest.*'
    then
        echo "corruption torture FAILED; replay with:" >&2
        echo "  VIYOJIT_TORTURE_SEED=${TORTURE_SEED} ./build-sanitize/tests/torture_test --gtest_filter='CorruptionTortureTest.*'" >&2
        exit 1
    fi
}

# TSan pass over the threaded suites.  report_signal_unsafe=0 stays
# because TSan's signal check is all-or-nothing per process — but it
# is no longer the audit.  The pathlint sigsafe contract (lint
# stage above) walks the handler's call graph and pins every
# signal-context call to a justified allowlist entry, so a NEW
# unsafe call fails CI even though TSan stays quiet.  Races and
# lock-order inversions still fail hard here.
stage_tsan() {
    echo "=== TSan build (threaded suites) ==="
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DVIYOJIT_SANITIZE=thread
    cmake --build build-tsan -j "${JOBS}" \
          --target concurrency_test torture_test runtime_test
    local suite
    for suite in concurrency_test torture_test runtime_test; do
        echo "--- TSan: ${suite} ---"
        TSAN_OPTIONS="report_signal_unsafe=0 halt_on_error=0 exitcode=66" \
            "./build-tsan/tests/${suite}"
    done
}

run_lint
if [[ "${1:-}" == "lint" ]]; then
    exit 0
fi

run_stage release stage_release
run_stage perfbench-smoke stage_perfbench
run_stage concurrency-smoke stage_concurrency
run_stage io-batching-smoke stage_io_batching
run_stage compression-smoke stage_compression
run_stage bench-artifacts stage_bench_artifacts
run_stage asan-ubsan stage_sanitize
run_stage randomized-torture stage_torture
run_stage randomized-corruption-torture stage_corruption_torture
run_stage tsan stage_tsan

if [[ "${#failed_stages[@]}" -ne 0 ]]; then
    echo "=== CI FAILED: ${failed_stages[*]} ===" >&2
    exit 1
fi
echo "=== CI OK: lint + three build configurations green ==="
