#!/usr/bin/env bash
# Tier-1 check: configure + build from a clean tree with -Wall -Wextra and
# run the full ctest suite, then rebuild the concurrency-sensitive tests
# under ThreadSanitizer and run them. Mirrors .github/workflows/ci.yml.
#
# Usage: tools/check.sh [--lint] [--no-tsan] [--asan] [--perf-smoke] [--chaos]
#   --lint        run only the source lint checks (removed API usage,
#                 wall-clock reads in virtual-time paths) and exit; the
#                 ci.yml lint job runs this
#   --asan        additionally rebuild the concurrency tests under
#                 ASan+UBSan and run them (mirrors the ci.yml asan job)
#   --perf-smoke  additionally run the fig07 + overload perf-smoke points
#                 and compare p50/p99 against
#                 bench/baselines/BENCH_fig07_baseline.json
#                 (mirrors the ci.yml perf-smoke job)
#   --chaos       additionally run the fig_chaos worker-failure drill
#                 (zero lost requests, recovery within budget) and compare
#                 recovery time against
#                 bench/baselines/BENCH_chaos_baseline.json
#                 (mirrors the ci.yml chaos job)
set -euo pipefail

cd "$(dirname "$0")/.."

lint_only=0
run_tsan=1
run_asan=0
run_perf=0
run_chaos=0
for arg in "$@"; do
  case "$arg" in
    --lint) lint_only=1 ;;
    --no-tsan) run_tsan=0 ;;
    --asan) run_asan=1 ;;
    --perf-smoke) run_perf=1 ;;
    --chaos) run_chaos=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "==> api: removed pre-unification submission surface stays gone"
# The old API (SyncEngine::TakeOutputs, EffectiveAdmission, loose
# ServerOptions admission fields, positional deadline/terminate arguments)
# was deprecated for one release and is now removed. Nothing in-tree —
# sources and headers, including the conformance test — may mention it.
deprecated=$(grep -rn --include='*.cc' --include='*.cpp' --include='*.h' \
    -e '\.TakeOutputs(' \
    -e 'EffectiveAdmission(' \
    -e '\.queue_timeout_micros *=' \
    -e '\.max_queued_requests *=' \
    -e '/\*terminate=\*/' \
    src examples bench tests tools \
    | grep -v 'admission\.' || true)
if [[ -n "$deprecated" ]]; then
  echo "removed API usage found (migrate to SubmitOptions / EngineOptions.admission):" >&2
  echo "$deprecated" >&2
  exit 1
fi

echo "==> device: the asynchronous device seam stays gone"
# Each worker runs its stream on one synchronous WorkerDevice
# (src/device/worker_device.h); the fence, staging-arena, capability-flag,
# registry and sim-backend layer it replaced must not come back.
seam=$(grep -rn --include='*.cc' --include='*.cpp' --include='*.h' \
    -e 'Device\(Registry\|Event\|Caps\|Arena\)' -e 'Sim\(Backend\)' \
    src examples bench tests tools || true)
if [[ -n "$seam" ]]; then
  echo "removed device-seam API found (use WorkerDevice / CostModel):" >&2
  echo "$seam" >&2
  exit 1
fi

echo "==> sim: no wall-clock reads inside deterministic virtual-time paths"
# The simulator's timeline (and the slack policy's launch instants inside
# it) must be a pure function of the event queue: a steady_clock read in
# these files would silently break resumable, bit-reproducible runs. The
# shard manager serves both clocks, so it takes `now` from its engine and
# never reads one itself.
wallclock=$(grep -n \
    -e 'steady_clock' -e 'system_clock' -e 'high_resolution_clock' \
    -e 'NowMicros' \
    src/core/sim_engine.cc src/runtime/sim_worker.cc src/runtime/event_queue.cc \
    src/core/shard_manager.h src/core/shard_manager.cc \
    || true)
if [[ -n "$wallclock" ]]; then
  echo "wall-clock read inside a virtual-time path (take the engine's now):" >&2
  echo "$wallclock" >&2
  exit 1
fi

if [[ "$lint_only" == 1 ]]; then
  echo "==> lint passed"
  exit 0
fi

echo "==> tier-1: clean configure + build + ctest"
rm -rf build-check
cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-check -j "$(nproc)"
ctest --test-dir build-check --output-on-failure -j "$(nproc)"

if [[ "$run_tsan" == 1 ]]; then
  echo "==> tsan: concurrency tests under -fsanitize=thread"
  rm -rf build-tsan
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  cmake --build build-tsan -j "$(nproc)" \
    --target server_test obs_test thread_pool_test determinism_test \
    robustness_test cancellation_test sharding_test api_conformance_test \
    numa_placement_test watchdog_test util_test device_test
  ctest --test-dir build-tsan --output-on-failure \
    -R 'server_test|obs_test|thread_pool_test|determinism_test|robustness_test|cancellation_test|sharding_test|api_conformance_test|numa_placement_test|watchdog_test|util_test|device_test'
fi

if [[ "$run_asan" == 1 ]]; then
  echo "==> asan: concurrency tests under -fsanitize=address,undefined"
  rm -rf build-asan
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  cmake --build build-asan -j "$(nproc)" \
    --target server_test obs_test thread_pool_test determinism_test \
    robustness_test cancellation_test sharding_test api_conformance_test \
    numa_placement_test watchdog_test util_test device_test \
    shard_manager_test sim_engine_test
  ctest --test-dir build-asan --output-on-failure \
    -R 'server_test|obs_test|thread_pool_test|determinism_test|robustness_test|cancellation_test|sharding_test|api_conformance_test|numa_placement_test|watchdog_test|util_test|device_test|shard_manager_test|sim_engine_test'
fi

if [[ "$run_perf" == 1 ]]; then
  echo "==> perf-smoke: fig07 + overload points vs committed baseline"
  cmake --build build-check -j "$(nproc)" --target fig07_lstm_throughput_latency fig_overload
  (cd build-check && ./bench/fig07_lstm_throughput_latency --smoke --out BENCH_fig07.json)
  (cd build-check && ./bench/fig_overload --smoke --out BENCH_overload.json)
  python3 tools/compare_bench.py \
    bench/baselines/BENCH_fig07_baseline.json \
    build-check/BENCH_fig07.json \
    --metric p50_ms:0.25 --metric p99_ms:0.5 \
    --assert-ratio tasks_per_sec:shards=2,workers=4:shards=1,workers=4:1.5 \
    --min-cores 4

  echo "==> perf-smoke: SLA-aware batch formation vs greedy at fixed p99 SLA"
  (cd build-check && ./bench/fig_overload --smoke --slack --out BENCH_slack.json)
  # Within-run gates: at 2x overload, slack-aware formation must hold
  # goodput-at-SLA at least at greedy's level, and serve (not shed) at
  # least as large a fraction of the offered load (0.95 absorbs run-to-run
  # Poisson jitter). Gated on --min-cores 2 so single-core hosts skip
  # loudly (the manager and worker threads need their own cores for
  # latency numbers to mean anything).
  python3 tools/compare_bench.py \
    bench/baselines/BENCH_slack_baseline.json \
    build-check/BENCH_slack.json \
    --keys load,slack \
    --metric p99_ms:0.75 \
    --assert-ratio goodput_sla_rps:slack=1,load=2:slack=0,load=2:1.0 \
    --assert-ratio served_rate:slack=1,load=2:slack=0,load=2:0.95 \
    --min-cores 2

  echo "==> perf-smoke: NUMA placement A/B vs committed baseline"
  # Rows match by policy alone (worker/shard counts scale with the host's
  # topology). The pin+replicate-vs-none ratio gate is skipped loudly below
  # --min-nodes 2, where all three policies coincide by construction.
  cmake --build build-check -j "$(nproc)" --target abl_locality
  (cd build-check && ./bench/abl_locality --numa-only --smoke --out BENCH_numa.json)
  python3 tools/compare_bench.py \
    bench/baselines/BENCH_numa_baseline.json \
    build-check/BENCH_numa.json \
    --keys policy \
    --metric p50_ms:1.0 \
    --assert-ratio "tasks_per_sec:policy=pin+replicate:policy=none:1.2" \
    --min-cores 2 --min-nodes 2
fi

if [[ "$run_chaos" == 1 ]]; then
  echo "==> chaos: worker hang/kill drill, watchdog quarantine + recovery"
  # fig_chaos gates zero lost requests, drill firing, and recovery within
  # the budget internally (non-zero exit on any violation); compare_bench
  # then tracks recovery-time and p99-blip regressions against the
  # committed baseline (hang + exit rows only — the control row has no
  # recovery to compare). The exit-mode recovery is probe-timing-dominated
  # (single-digit ms), hence the wide recovery threshold.
  cmake --build build-check -j "$(nproc)" --target fig_chaos
  (cd build-check && ./bench/fig_chaos --smoke --recovery-budget-ms 2000 \
      --out BENCH_chaos.json)
  python3 tools/compare_bench.py \
    bench/baselines/BENCH_chaos_baseline.json \
    build-check/BENCH_chaos.json \
    --keys mode \
    --metric recovery_ms:9.0 --metric p99_ms:1.5 \
    --min-cores 2
fi

echo "==> all checks passed"
