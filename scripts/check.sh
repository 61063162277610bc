#!/usr/bin/env bash
# One-shot gate: configure Release, build, run the unit tests, run the
# perfbench determinism self-test, run the event-core microbenchmark,
# smoke-test the op tracer (including validating the exported Chrome trace
# JSON), check the committed BENCH_*.json history is still valid JSON, run
# the transport perf-smoke (fig13 ladder), run the QoS and EC smokes
# (fig14/fig15 gates), run the store-backend perf smoke (fig16 gate:
# FlashStore >= FileStore), run the membership smoke (fig17 gate: crash
# detected within the heartbeat bound, zero false downs), run the chaos
# fault-injection soak (every leg on every {file, flash} store x {oracle,
# detected} membership cell), then under ASan+UBSan run the whole unit
# suite and re-run that soak (focused cells first, then the whole matrix;
# the suite and every chaos invocation under a wall-clock limit), then run
# the afceph_rt (src/rt/) concurrency stress harness natively and under
# ThreadSanitizer.
# Also prints the source line counts (scripts/loc.sh) after the unit tests,
# and compiles the scripts/heap_peak.sh allocation shim and the
# scripts/wall_profile.sh sampling shim so they do not rot.
# Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"

# run_leg <name> <seconds> <command...>: run one long invocation (a
# bench/chaos run or the sanitized unit suite) under a wall-clock limit, so
# a hang fails the gate with the leg's name instead of wedging it. Each
# limit is about 3x the invocation's measured wall time on a 4-core x86
# machine.
run_leg() {
  local name=$1 limit=$2 rc=0
  shift 2
  timeout -k 10 "$limit" "$@" || rc=$?
  if [ "$rc" -eq 124 ]; then
    echo "FAIL: leg '$name' exceeded its ${limit}s limit (hung?)" >&2
  fi
  return "$rc"
}

# -Werror: the Release build is warning-free and must stay so.
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD_DIR" -j "$(nproc)"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo
echo "=== scripts/loc.sh (source line counts, informational: never fails the gate) ==="
scripts/loc.sh || true

echo
echo "=== scripts/heap_peak.c (heap attribution shim still compiles) ==="
cc -O2 -shared -fPIC -Wall -Wextra -Werror -o "$BUILD_DIR/heap_peak.so" scripts/heap_peak.c

echo
echo "=== scripts/wall_profile.c (CPU-time sampling shim still compiles) ==="
cc -O2 -shared -fPIC -Wall -Wextra -Werror -o "$BUILD_DIR/wall_profile.so" scripts/wall_profile.c

echo
echo "=== perfbench self-test (untraced and traced repetitions agree) ==="
# Every modeled value and sim.events_per_op must match across untraced and
# traced repetitions of all three benchmark workloads: the cheap guard that
# host-side container work never reorders simulator events.
python3 perfbench/run.py --selftest --seed 42

echo
echo "=== bench/micro_sim (timing wheel vs reference heap) ==="
"$BUILD_DIR/bench/micro_sim"

echo
echo "=== bench/trace_smoke (op tracer end to end, AFC_SIM_TRACE=1) ==="
TRACE_JSON="$BUILD_DIR/trace_smoke.json"
AFC_SIM_TRACE=1 AFC_SIM_TRACE_OUT="$TRACE_JSON" "$BUILD_DIR/bench/trace_smoke"
python3 -m json.tool "$TRACE_JSON" > /dev/null
echo "trace JSON OK: $TRACE_JSON"

echo
echo "=== BENCH_*.json perf trajectory (committed history stays valid JSON) ==="
for bench_json in BENCH_*.json; do
  [ -e "$bench_json" ] || { echo "FAIL: no BENCH_*.json trajectory committed" >&2; exit 1; }
  python3 -m json.tool "$bench_json" > /dev/null
  echo "trajectory OK: $bench_json"
done

echo
echo "=== transport perf-smoke (fig13 ladder @ 16 OSDs) ==="
"$BUILD_DIR/bench/fig13_transport" --smoke
echo "perf-smoke OK (sharded+batched >= community)"

echo
echo "=== QoS isolation smoke (fig14 noisy neighbor, open-loop engine) ==="
# The harness itself is the gate: it exits non-zero unless the well-behaved
# tenant's p99 under a flood stays <= 2x its solo p99 with QoS on, AND the
# QoS-off run demonstrably degrades (the flood must actually hurt).
"$BUILD_DIR/bench/fig14_qos" --smoke
echo "qos-smoke OK (steady p99 bounded under flood)"

echo
echo "=== EC vs replication smoke (fig15, healthy write p99 + degraded reads) ==="
# The harness is the gate: EC(4+2) healthy 4K-write p99 must stay within 2x
# of 3-replication's, and the degraded window must actually serve
# reconstructed (decode-from-k) reads.
"$BUILD_DIR/bench/fig15_ec" --smoke
echo "ec-smoke OK (EC write p99 bounded vs 3-rep)"

echo
echo "=== store-backend smoke (fig16 perf gate: FlashStore >= FileStore) ==="
# The harness is the gate: sustained 4K random write on the raw-device
# backend must not regress below FileStore-optimized, or it exits non-zero.
"$BUILD_DIR/bench/fig16_store" --smoke
echo "store-smoke OK (flash >= file on sustained 4K random write)"

echo
echo "=== membership smoke (fig17 gate: detection bound + zero false downs) ==="
# The harness is the gate: in detected mode a crashed OSD must be marked
# down (and the map republished) within hb_grace + 2*hb_interval, and no
# healthy OSD may ever be marked down, or it exits non-zero.
"$BUILD_DIR/bench/fig17_membership" --smoke
echo "membership-smoke OK (crash detected within bound, 0 false downs)"

echo
echo "=== bench/chaos (fault injection + recovery invariants, 22 mode cells) ==="
run_leg all 250 "$BUILD_DIR/bench/chaos"

echo
echo "=== unit suite under ASan+UBSan ==="
# Every test target, at the default 8 MiB stack. Leak detection stays on,
# with one suppression: coroutine frames still suspended at exit (device
# worker loops; RPC waiters stranded by injected crashes — their reply never
# arrives, by design). See scripts/lsan.supp.
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
cmake -B "$ASAN_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAFC_SANITIZE=ON
cmake --build "$ASAN_BUILD_DIR" -j "$(nproc)" --target \
  chaos afceph_core_tests afceph_osd_tests afceph_fault_tests afceph_rt_tests stress_rt
LSAN_OPTIONS="suppressions=$PWD/scripts/lsan.supp" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  run_leg asan-unit-suite 180 ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure -j "$(nproc)"
echo "sanitized unit suite OK"

echo
echo "=== bench/chaos under ASan+UBSan ==="
# The corruption cell first, on its own: torn-write replay, CRC verification
# and scrub repair walk raw record bytes, so a memory bug there should fail
# with a focused label before the full soak runs.
LSAN_OPTIONS="suppressions=$PWD/scripts/lsan.supp" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  run_leg asan-corruption 25 "$ASAN_BUILD_DIR/bench/chaos" \
    --leg=corruption --store=file --membership=oracle
# The EC leg next, same rationale: GF(256) encode/decode, shard gather and
# parity scrub index into matrix/chunk buffers — exactly the code a bounds
# bug would hide in.
LSAN_OPTIONS="suppressions=$PWD/scripts/lsan.supp" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  run_leg asan-ec 90 "$ASAN_BUILD_DIR/bench/chaos" --leg=ec --store=file --membership=oracle
# The corruption leg's flash cell: FlashStore's WAL replay, deferred-ledger
# bookkeeping and extent COW run under the same torn/flip stack — raw
# record bytes again.
LSAN_OPTIONS="suppressions=$PWD/scripts/lsan.supp" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  run_leg asan-store 30 "$ASAN_BUILD_DIR/bench/chaos" \
    --leg=corruption --store=flash --membership=oracle
# The membership leg: heartbeat state, monitor report lists and the fencing
# paths churn under crashes, partitions and gray failures — lifetime bugs
# (timer tokens, connection teardown) surface here first.
LSAN_OPTIONS="suppressions=$PWD/scripts/lsan.supp" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  run_leg asan-membership 60 "$ASAN_BUILD_DIR/bench/chaos" --leg=membership --store=file
# Then the whole matrix: every leg on every cell.
LSAN_OPTIONS="suppressions=$PWD/scripts/lsan.supp" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  run_leg asan-all 1200 "$ASAN_BUILD_DIR/bench/chaos"
echo "sanitized chaos soak OK"

echo
echo "=== rt stress harness (native, 100 seeded iterations) ==="
"$BUILD_DIR/tests/stress_rt" --iters 100 --seed 1

echo
echo "=== rt stress + unit tests under TSan ==="
# TSan cannot be combined with ASan, so it gets its own build tree. The
# stress harness exercises every rt/ primitive with randomized thread
# fleets and mid-flight close()/shutdown(); any data race or lifecycle
# violation fails the run. scripts/tsan.supp is empty on purpose — keep it
# that way unless a race is provably benign AND documented there.
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
cmake -B "$TSAN_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAFC_SANITIZE=thread
cmake --build "$TSAN_BUILD_DIR" -j "$(nproc)" --target stress_rt afceph_rt_tests
TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp:halt_on_error=1:second_deadlock_stack=1" \
  "$TSAN_BUILD_DIR/tests/stress_rt" --iters 25 --seed 1
TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp:halt_on_error=1:second_deadlock_stack=1" \
  "$TSAN_BUILD_DIR/tests/afceph_rt_tests"
echo "TSan rt stress OK"
