#!/usr/bin/env bash
# lp_cli --scale runs the engine --engine names, run under ctest.
#
#   cli_scale_engines.sh <path-to-lp_cli> <source data dir>
#
# For every engine on data/refinery.lp ('>=' and '=' rows, phase 1) and
# data/wyndor.lp ('<=' rows only): the recording of a --scale geometric
# solve carries the engine name the unscaled solve records, and replaying
# it under the same scaling verifies every decision.
set -u
LP_CLI=$1
DATA=$2
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
cd "$TMP" || exit 1

fail() { echo "FAIL: $*" >&2; exit 1; }

# The engine name in the header of the recording a replay run loaded.
loaded_engine() {
  sed -n 's/^replay: loaded [^ ]* (\([^,]*\),.*$/\1/p' "$1"
}

for model in refinery wyndor; do
  for engine in device device-float host dual tableau sparse; do
    run="$model/$engine"
    lp="$DATA/$model.lp"
    "$LP_CLI" "$lp" --engine "$engine" --record=plain.gsrec >/dev/null \
      || fail "$run: unscaled record run"
    "$LP_CLI" "$lp" --engine "$engine" --scale geometric \
      --record=scaled.gsrec >/dev/null || fail "$run: scaled record run"
    "$LP_CLI" "$lp" --engine "$engine" --replay=plain.gsrec >plain.out \
      || fail "$run: unscaled replay"
    "$LP_CLI" "$lp" --engine "$engine" --scale geometric \
      --replay=scaled.gsrec >scaled.out || fail "$run: scaled replay"
    grep -q 'replay: verified' scaled.out \
      || fail "$run: scaled replay did not verify"
    want=$(loaded_engine plain.out)
    got=$(loaded_engine scaled.out)
    test -n "$want" || fail "$run: no engine name in the unscaled recording"
    test "$got" = "$want" \
      || fail "$run: --scale recorded '$got', the engine records '$want'"
  done
done
echo "cli_scale_engines: every engine runs under --scale"
