#!/usr/bin/env bash
# Combined-observer and recorder coverage for lp_cli, run under ctest.
#
#   cli_observability.sh <path-to-lp_cli> <source data dir>
#
# Checks, end to end against the real binary:
#   1. Enabling --trace/--metrics/--check/--analyze/--record/--profile/
#      --telemetry individually or all at once leaves the solve
#      bit-identical to a plain run (status, iterations, objective,
#      modeled time), the recording written by the combined run is
#      byte-identical to the record-only run, and the analyze, profile and
#      telemetry JSON artifacts (deterministic: modeled time only) are
#      byte-identical between the solo and combined runs.
#   2. A record -> replay round trip verifies every decision with zero
#      mismatches and reproduces the same solve.
#   3. A float-vs-double pair on data/precision_tie.lp diverges at pivot 0
#      and `lp_cli --diff` says so.
set -u
LP_CLI=$1
DATA=$2
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
cd "$TMP" || exit 1

GEN=dense:24:7
fail() { echo "FAIL: $*" >&2; exit 1; }

# Deterministic solve lines only: wall-clock time is stripped, the modeled
# (simulated) time must match exactly.
solve_lines() {
  grep -E '^(status|iterations|objective|modeled time):' "$1" \
    | sed 's/ ms, wall:.*$/ ms/'
}

"$LP_CLI" --gen $GEN >plain.out || fail "plain run"
"$LP_CLI" --gen $GEN --trace trace_solo.json >trace.out || fail "--trace run"
"$LP_CLI" --gen $GEN --metrics=metrics_solo.json >metrics.out \
  || fail "--metrics run"
"$LP_CLI" --gen $GEN --check >check.out || fail "--check run"
"$LP_CLI" --gen $GEN --analyze=analyze_solo.json >analyze.out \
  || fail "--analyze run"
"$LP_CLI" --gen $GEN --record=solo.gsrec >record.out || fail "--record run"
"$LP_CLI" --gen $GEN --profile=prof_solo.json >profile.out \
  || fail "--profile run"
"$LP_CLI" --gen $GEN --telemetry=tel_solo.json >telemetry.out \
  || fail "--telemetry run"
"$LP_CLI" --gen $GEN --trace trace_comb.json --metrics=metrics_comb.json \
  --check --analyze=analyze_comb.json --record=comb.gsrec \
  --profile=prof_comb.json --telemetry=tel_comb.json >combined.out \
  || fail "combined run"

solve_lines plain.out >expected.txt
for f in trace.out metrics.out check.out analyze.out record.out \
         profile.out telemetry.out combined.out; do
  solve_lines "$f" >got.txt
  diff expected.txt got.txt >/dev/null \
    || fail "$f: solve differs from plain run (observers must be inert)"
done
cmp -s solo.gsrec comb.gsrec \
  || fail "combined-run recording differs from record-only recording"
grep -q 'gs-analyze-v1' analyze_solo.json \
  || fail "analyze artifact is missing its schema tag"
cmp -s analyze_solo.json analyze_comb.json \
  || fail "combined-run analyze report differs from analyze-only run"
grep -q 'profile: reconciled bit-exactly' profile.out \
  || fail "--profile run did not report bit-exact reconciliation"
cmp -s prof_solo.json prof_comb.json \
  || fail "combined-run profile differs from profile-only run"
test -s prof_solo.json.folded \
  || fail "--profile did not write the collapsed-stack flamegraph"
cmp -s tel_solo.json tel_comb.json \
  || fail "combined-run telemetry differs from telemetry-only run"
grep -q 'gs-telemetry-v1' tel_solo.json \
  || fail "telemetry artifact is missing its schema tag"

# Record -> replay round trip.
"$LP_CLI" --gen $GEN --replay=solo.gsrec >replay.out \
  || { cat replay.out >&2; fail "replay exited nonzero"; }
grep -q 'replay: verified' replay.out \
  || fail "replay did not report verification"
solve_lines replay.out >got.txt
diff expected.txt got.txt >/dev/null \
  || fail "replay solve differs from original run"

# Float-vs-double divergence witness.
"$LP_CLI" "$DATA/precision_tie.lp" --engine device --record=tie_d.gsrec \
  >/dev/null || fail "double solve of precision_tie.lp"
"$LP_CLI" "$DATA/precision_tie.lp" --engine device-float \
  --record=tie_f.gsrec >/dev/null || fail "float solve of precision_tie.lp"
"$LP_CLI" --diff tie_d.gsrec tie_f.gsrec >diff.out \
  || { cat diff.out >&2; fail "--diff exited nonzero"; }
grep -q 'diverge at pivot 0' diff.out \
  || { cat diff.out >&2; fail "--diff did not report divergence at pivot 0"; }

echo "cli_observability: all checks passed"
