#!/usr/bin/env sh
# Kill-and-resume smoke test for the crash-safe run subsystem
# (docs/checkpoint-format.md), once per issue mode. Each cycle starts
# easybo_cli with --checkpoint and a per-call wall sleep so the run has a
# real wall footprint, SIGKILLs it mid-run, resumes with --resume, and
# asserts that the resumed run completes with the same final best as an
# uninterrupted reference run (bit-identical proposal stream =>
# bit-identical best). Run by CI on the plain build; usable locally as:
#
#   sh scripts/kill_resume_smoke.sh [path/to/easybo_cli]
#
set -eu

cli=${1:-build/examples/easybo_cli}
[ -x "$cli" ] || { echo "kill_resume_smoke: $cli not built" >&2; exit 1; }

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

common="--problem branin --sims 40 --init 8 --seed 7"

# cycle NAME ALGO-ARGS: one reference / kill / resume / compare round.
cycle() {
  name=$1
  args="$common $2"
  dir="$workdir/$name"
  mkdir "$dir"

  # Reference: the same seeded run, uninterrupted.
  # shellcheck disable=SC2086
  "$cli" $args > "$dir/reference.out"
  ref_best=$(sed -n 's/.*best = \([^,]*\),.*/\1/p' "$dir/reference.out")
  [ -n "$ref_best" ] || { echo "kill_resume_smoke[$name]: no best in reference output" >&2; exit 1; }

  # Journaled run, SIGKILLed mid-flight. 40 evals x 60 ms of injected
  # sleep ~= 2.4 s of wall time; the kill lands about a third in.
  # shellcheck disable=SC2086
  "$cli" $args --checkpoint "$dir/run" --inject-sleep-ms 60 \
    > "$dir/killed.out" 2>&1 &
  pid=$!
  sleep 0.9
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true

  [ -s "$dir/run.journal" ] || { echo "kill_resume_smoke[$name]: no journal written before the kill" >&2; exit 1; }
  # A finished run holds the header plus a suggest and an eval record
  # per evaluation.
  lines=$(wc -l < "$dir/run.journal" | tr -d ' ')
  echo "kill_resume_smoke[$name]: killed mid-run with $lines journal lines"
  if [ "$lines" -ge 81 ]; then
    echo "kill_resume_smoke[$name]: the run finished before the kill; raise --inject-sleep-ms" >&2
    exit 1
  fi

  # Resume must finish the run and land on the reference best exactly.
  # shellcheck disable=SC2086
  "$cli" $args --resume "$dir/run" > "$dir/resumed.out" 2> "$dir/resumed.err"
  grep -q "resumed from" "$dir/resumed.err" || { echo "kill_resume_smoke[$name]: no resume note" >&2; exit 1; }
  res_best=$(sed -n 's/.*best = \([^,]*\),.*/\1/p' "$dir/resumed.out")
  res_sims=$(sed -n 's/.* \([0-9]*\) sims.*/\1/p' "$dir/resumed.out")

  [ "$res_sims" = "40" ] || { echo "kill_resume_smoke[$name]: resumed run completed $res_sims/40 sims" >&2; exit 1; }
  if [ "$res_best" != "$ref_best" ]; then
    echo "kill_resume_smoke[$name]: resumed best $res_best != reference best $ref_best" >&2
    exit 1
  fi
  echo "kill_resume_smoke[$name]: resume completed 40/40 sims, best = $res_best (matches reference)"
}

cycle async "--algo easybo --batch 4"
cycle sync-easybo "--algo easybo-s --batch 4"
cycle sync-pbo "--algo pbo --batch 4"
# easybo-s is EasyBO-S, a synchronous batch; lcb is a sequential run.
cycle sequential "--algo lcb"
