#!/usr/bin/env bash
# ci.sh — full local CI sweep (README.md "Continuous integration").
#
# Builds and tests three configurations:
#   build/       Release + -Werror  (the tier-1 configuration)
#   build-asan/  Debug + ASan/UBSan (-DGS_SANITIZE=address,undefined)
#   build-tsan/  Debug + TSan       (-DGS_SANITIZE=thread)
#
# The sanitizer runs execute the same ctest suite; test_check and the
# multi-worker ThreadPool/Device tests give TSan real cross-thread traffic
# to look at. If clang-tidy is installed, the curated .clang-tidy profile
# is run over src/; otherwise that stage is skipped with a notice (the
# container used for development does not ship clang-tidy).
#
# Usage: ./ci.sh [jobs]     (defaults to nproc)
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${1:-$(nproc)}"

run_config() {
  local dir="$1"; shift
  echo "==> configure ${dir} ($*)"
  cmake -B "${dir}" -S . "$@" > /dev/null
  echo "==> build ${dir}"
  cmake --build "${dir}" -j "${JOBS}" > /dev/null
  echo "==> test ${dir}"
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
}

# One charge site (DESIGN.md "One ledger"): only vgpu::Ledger
# (src/vgpu/ledger.{hpp,cpp}) turns a charge into modeled time or a trace
# slice, so the device's launches and copies and the host's steps are
# priced and published by the same code. The scan fails on any other file
# under src/ that calls MachineModel::kernel_seconds / transfer_seconds
# with arguments (a member call; DeviceStats::transfer_seconds() takes
# none), or passes the "kernel" or "transfer" category to a Track's
# complete() (the statement up to its `;`, which may span lines).
echo "==> kernel and transfer charges go through src/vgpu/ledger only"
charge_sites=$(find src -name '*.hpp' -o -name '*.cpp' | sort \
  | grep -v '^src/vgpu/ledger\.\(hpp\|cpp\)$' \
  | xargs perl -0777 -ne '
      sub at { 1 + (substr($_, 0, $_[0]) =~ tr/\n//) }
      while (/(?:\.|->)(?:kernel|transfer)_seconds\((?!\s*\))/g) {
        printf "%s:%d: roofline time\n", $ARGV, at($-[0]);
      }
      while (/(?:\.|->)complete\s*\(([^;]*?)\)\s*;/sg) {
        my ($pos, $args) = ($-[0], $1);
        printf "%s:%d: %s slice\n", $ARGV, at($pos), $1
          if $args =~ /"(kernel|transfer)"/;
      }')
if [ -n "${charge_sites}" ]; then
  echo "${charge_sites}"
  echo "charges priced or traced outside vgpu::Ledger"; exit 1
fi

# One observer hook (OBSERVABILITY.md "Where observers attach"): only the
# solve frame reads the observer fields of a SolverOptions. The pattern
# matches a member access (`.` or `->`) of one of the seven field names
# that is not an assignment (`=` but not `==`) or a method call (`(`),
# on any line of src/ that is not a `//` comment; assignments such as the
# service's per-job trace collector stay allowed.
echo "==> observer fields are read only by src/simplex/solve_frame.hpp"
observer_reads=$(grep -rnP --include='*.hpp' --include='*.cpp' \
  '(\.|->)(trace_sink|checker|analyzer|metrics|recorder|profiler|telemetry)\b(?!\s*(=(?!=)|\())' \
  src | grep -vP '^[^:]+:\d+:\s*//' \
  | grep -v '^src/simplex/solve_frame.hpp:' || true)
if [ -n "${observer_reads}" ]; then
  echo "${observer_reads}"
  echo "observer fields read outside the solve frame"; exit 1
fi

# The Release build compiles warnings-clean under -Wall -Wextra and keeps
# it that way: any new warning fails CI.
run_config build        -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror

# Bench regression gate (OBSERVABILITY.md "Metrics"): regenerate the
# machine-readable bench artifact from the Release build and diff it
# against the committed baseline. Modeled runtimes get a 25% band;
# health-warning counts at the fixed seeds must not increase.
echo "==> bench-json regression gate"
if command -v python3 > /dev/null 2>&1; then
  (cd build && ./bench/bench_json BENCH_solver.json)
  python3 bench/compare_bench.py BENCH_solver.json build/BENCH_solver.json

  # Exit-code contract of the gate itself: a missing input is a usage
  # error (2), a doctored runtime is a regression (1). Both must stay
  # distinguishable from "within bands" (0).
  echo "==> compare_bench exit-code contract"
  rc=0
  python3 bench/compare_bench.py BENCH_solver.json /nonexistent.json \
    2> /dev/null || rc=$?
  [ "${rc}" -eq 2 ] || {
    echo "expected exit 2 on missing input, got ${rc}"; exit 1; }
  rc=0
  python3 - <<'EOF' || rc=$?
import json, subprocess, sys
doc = json.load(open("BENCH_solver.json"))
def inflate(node):
    if isinstance(node, dict):
        for k, v in node.items():
            if isinstance(v, (int, float)) and (
                    k.endswith("_ms") or k.endswith("_seconds")):
                node[k] = v * 10  # way past the 25% band
            else:
                inflate(v)
    elif isinstance(node, list):
        for v in node:
            inflate(v)
inflate(doc)
json.dump(doc, open("build/bench_doctored.json", "w"))
sys.exit(subprocess.run(
    [sys.executable, "bench/compare_bench.py", "BENCH_solver.json",
     "build/bench_doctored.json"],
    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode)
EOF
  [ "${rc}" -eq 1 ] || {
    echo "expected exit 1 on doctored runtimes, got ${rc}"; exit 1; }

  # A doctored launch/transfer budget (kernel_launches / h2d_bytes grown
  # past the 5% band) must also fail: the iteration-slimming work in the
  # device engine is gated, not just modeled runtime.
  rc=0
  python3 - <<'EOF' || rc=$?
import json, subprocess, sys
doc = json.load(open("BENCH_solver.json"))
def inflate(node):
    if isinstance(node, dict):
        for k, v in node.items():
            if isinstance(v, (int, float)) and k in (
                    "kernel_launches", "h2d_bytes"):
                node[k] = v * 1.2  # past the 5% budget band
            else:
                inflate(v)
    elif isinstance(node, list):
        for v in node:
            inflate(v)
inflate(doc)
json.dump(doc, open("build/bench_budget_doctored.json", "w"))
sys.exit(subprocess.run(
    [sys.executable, "bench/compare_bench.py", "BENCH_solver.json",
     "build/bench_budget_doctored.json"],
    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode)
EOF
  [ "${rc}" -eq 1 ] || {
    echo "expected exit 1 on doctored launch budget, got ${rc}"; exit 1; }

  # A baseline that predates a whole candidate section must be reported
  # as stale (exit 2, "regenerate the baseline"), not as a regression:
  # CI acts differently on the two (refresh vs investigate).
  rc=0
  python3 - <<'EOF' || rc=$?
import json, subprocess, sys
doc = json.load(open("BENCH_solver.json"))
doc.pop("memory")  # pretend the baseline predates the memory section
json.dump(doc, open("build/bench_stale_base.json", "w"))
sys.exit(subprocess.run(
    [sys.executable, "bench/compare_bench.py", "build/bench_stale_base.json",
     "BENCH_solver.json"],
    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode)
EOF
  [ "${rc}" -eq 2 ] || {
    echo "expected exit 2 on stale baseline, got ${rc}"; exit 1; }

  # Perf-smoke subset gate: the quick --tiny sweep (first two points, no
  # breakdown) must sit inside the committed baseline's bands when aligned
  # by problem size with --subset. This is the fast path CI runs on every
  # push; the full regeneration above catches the rest.
  echo "==> perf-smoke (bench_json --tiny vs committed baseline)"
  (cd build && ./bench/bench_json bench_tiny.json --tiny)
  python3 bench/compare_bench.py --subset BENCH_solver.json build/bench_tiny.json

  # Service throughput floor (SERVICE.md): the traffic bench exits 1 if
  # batched dispatch drops below 10x the sequential device baseline.
  echo "==> perf-smoke (svc_traffic --tiny throughput floor)"
  (cd build && ./bench/svc_traffic --tiny)
else
  echo "==> python3 not installed; skipping bench-json gate"
fi

# Static launch-graph analysis gate (CHECKING.md "Static analysis"): every
# engine's captured kernel stream — device double/float, the dense
# product form, sparse, batch, and a service-style batch round — must carry
# zero dataflow hazards, zero uninitialized device reads, zero
# cost-declaration findings, and waste at most 1% of its PCIe traffic on
# redundant transfers, and the checker on the same capture must report
# nothing. Exits 1 with the offending reports otherwise.
echo "==> analyze-gate (static dataflow analysis over all engines)"
(cd build && ./bench/analyze_gate)

# Recorder gates (OBSERVABILITY.md "Recorder"): the byte format carries no
# timestamps, so on every engine, on a two-phase instance, record -> record
# must be byte-identical and record -> replay must verify every decision;
# the product form must make the same decisions on the host, dual, sparse
# and device engines; and the crafted float-vs-double witness must diverge
# at pivot 0 with both candidates reported.
echo "==> recorder round-trip + divergence gates"
(
  cd build
  for engine in device device-float sparse host tableau dual; do
    ./examples/lp_cli ../data/testprob.mps --engine "${engine}" \
      --record="ci_${engine}_a.gsrec" > /dev/null
    ./examples/lp_cli ../data/testprob.mps --engine "${engine}" \
      --record="ci_${engine}_b.gsrec" > /dev/null
    cmp "ci_${engine}_a.gsrec" "ci_${engine}_b.gsrec"
    ./examples/lp_cli ../data/testprob.mps --engine "${engine}" \
      --replay="ci_${engine}_a.gsrec" | grep 'replay: verified'
  done
  # The product form's decisions on every engine that runs it, on an
  # instance long enough to refactor (1,406 pivots, 4 refactors): record
  # twice and compare, replay, and agree with the host engine's recording
  # pivot for pivot with zero d_q and theta deltas.
  pf=(--gen sparse:300:7 --basis product-form)
  for engine in host dual sparse device; do
    ./examples/lp_cli "${pf[@]}" --engine "${engine}" \
      --record="ci_pf_${engine}_a.gsrec" > /dev/null
    ./examples/lp_cli "${pf[@]}" --engine "${engine}" \
      --record="ci_pf_${engine}_b.gsrec" > /dev/null
    cmp "ci_pf_${engine}_a.gsrec" "ci_pf_${engine}_b.gsrec"
    ./examples/lp_cli "${pf[@]}" --engine "${engine}" \
      --replay="ci_pf_${engine}_a.gsrec" | grep 'replay: verified'
  done
  for engine in dual sparse device; do
    ./examples/lp_cli --diff ci_pf_host_a.gsrec "ci_pf_${engine}_a.gsrec" \
      | grep -F 'max |d_q delta| = 0, max |theta delta| = 0'
  done
  ./examples/lp_cli ../data/precision_tie.lp --engine device \
    --record=ci_tie_d.gsrec > /dev/null
  ./examples/lp_cli ../data/precision_tie.lp --engine device-float \
    --record=ci_tie_f.gsrec > /dev/null
  # tee -a: a plain tee reopens stderr with O_TRUNC, which would erase
  # everything logged so far when stderr is a file (./ci.sh > log 2>&1).
  ./examples/lp_cli --diff ci_tie_d.gsrec ci_tie_f.gsrec \
    | tee -a /dev/stderr | grep -q 'diverge at pivot 0'
)

# Profiler gates (OBSERVABILITY.md "Profiler"): the roofline profiler's
# kernel totals must reconcile bit-exactly with DeviceStats (lp_cli exits
# 1 and prints nothing matching the grep otherwise), and every admitted
# service request must carry a stage span tree that tiles its latency to
# 1e-9 (svc_traffic exits 1 on a coverage or tiling miss).
echo "==> profiler reconciliation + request-span tiling gates"
(
  cd build
  ./examples/lp_cli --gen dense:32:11 --profile=ci_profile.json \
    | grep 'profile: reconciled bit-exactly'
  ./bench/svc_traffic --tiny --profile \
    | grep 'stage spans tile'
)

# Telemetry + SLO gates (OBSERVABILITY.md "Telemetry & SLOs"): the
# sampled series live on the modeled clock, so two identical runs must
# write byte-identical gs-telemetry-v1 artifacts; the baseline SLO spec
# (matched to the committed bench numbers) must attain every objective;
# a doctored, unattainable spec must exit 1 (the burn-rate alerting and
# error-budget accounting are load-bearing, not decorative); and the
# engine-level series surface in lp_cli must write its artifact.
echo "==> telemetry + SLO gates"
(
  cd build
  ./bench/svc_traffic --tiny --telemetry=ci_telemetry.json \
    --slo='p99<=20ms,miss<=0.01,reject<=0.01,hit>=0' \
    | grep 'slo: all objectives attained'
  ./bench/svc_traffic --tiny --telemetry=ci_telemetry2.json \
    --slo='p99<=20ms,miss<=0.01,reject<=0.01,hit>=0' > /dev/null
  cmp ci_telemetry.json ci_telemetry2.json
  rc=0
  ./bench/svc_traffic --tiny --slo='p99<=0.0001ms' > /dev/null 2>&1 || rc=$?
  [ "${rc}" -eq 1 ] || {
    echo "expected exit 1 on unattainable SLO spec, got ${rc}"; exit 1; }
  ./examples/lp_cli --gen dense:32:11 --telemetry=ci_engine_telemetry.json \
    | grep 'telemetry: wrote'
)

# Basis-oracle + dual-engine gates (DESIGN.md "Basis oracles",
# SERVICE.md warm-start): the static analyzer and roofline profiler must
# account the dual engine and the product-form device path natively —
# analyze_gate covers the sparse/product-form kernel stream (including the
# single-block eta chains), one solve of the CSR product form must be
# clean under both the checker and the analyzer (no race, OOB, NaN,
# hazard, uninitialized read or cost-declaration finding: exit 0), and
# the profiler must reconcile bit-exactly over both. The Klee–Minty cube is
# the classic exponential-path/cycling stressor: the dual engine must
# finish it optimally (anti-cycling smoke) rather than stall.
echo "==> basis-oracle + dual-engine gates"
(
  cd build
  ./bench/analyze_gate --tiny
  ./examples/lp_cli --gen dense:32:11 --engine dual \
    --profile=ci_dual_profile.json \
    | grep 'profile: reconciled bit-exactly'
  ./examples/lp_cli --gen sparse:96:7 --engine sparse --basis product-form \
    --profile=ci_pf_profile.json \
    | grep 'profile: reconciled bit-exactly'
  ./examples/lp_cli --gen sparse:64 --engine sparse --basis product-form \
    --check --analyze > /dev/null
  ./examples/lp_cli --gen klee:12 --engine dual \
    | grep -i 'status: *optimal'
)

# Two-clock benchmark (perfbench/README.md, BENCHMARK.json): the runner's
# self-checks (a wrong answer exits nonzero, a failed solve is counted,
# the seed changes the inputs but no metric name, a bare checkout refuses
# to run), then one pass of every workload on its shrunken shape, which
# must verify every answer: sparse_pf (launch-bound eta chains),
# dense_paper (the explicit-inverse device loop) and service_mix (every
# service route, the batch engine's lock-step loop included).
echo "==> perfbench self-checks + workload smokes"
if command -v python3 > /dev/null 2>&1; then
  CARGO_TARGET_DIR=build/perfbench python3 perfbench/tests/test_perfbench.py
  for workload in sparse_pf dense_paper service_mix; do
    CARGO_TARGET_DIR=build/perfbench python3 perfbench/run.py \
      --workload "$workload" --small --seconds 0 > /dev/null
  done
else
  echo "==> python3 not installed; skipping perfbench checks"
fi

run_config build-asan   -DCMAKE_BUILD_TYPE=Debug -DGS_SANITIZE=address,undefined
run_config build-tsan   -DCMAKE_BUILD_TYPE=Debug -DGS_SANITIZE=thread

if command -v clang-tidy > /dev/null 2>&1; then
  echo "==> clang-tidy (profile: .clang-tidy, warnings are errors)"
  # Use the Release compile database; header-filter keeps output to our
  # code. The profile sets WarningsAsErrors: '*' — every enabled check is
  # a curated, fix-worthy diagnostic, so any hit exits non-zero and fails
  # this stage.
  find src -name '*.cpp' -print0 |
    xargs -0 clang-tidy -p build --quiet
else
  echo "==> clang-tidy not installed; skipping lint stage"
fi

echo "==> ci.sh: all configurations passed"
