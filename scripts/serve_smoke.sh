#!/usr/bin/env sh
# Session-server smoke test (docs/service-protocol.md). Boots
# easybo_serve on a TCP port, interleaves two named sessions over the
# line protocol, SIGKILLs the server mid-conversation, restarts it on
# the same state directory, and drives one of the sessions onward — the
# resumed stream must pick up at the next tag with no repeats and no
# gaps (every mutation is durable before its reply). Run by CI on the
# plain build; usable locally as:
#
#   sh scripts/serve_smoke.sh [path/to/easybo_serve]
#
set -eu

serve=${1:-build/examples/easybo_serve}
[ -x "$serve" ] || { echo "serve_smoke: $serve not built" >&2; exit 1; }

workdir=$(mktemp -d)
# Per-run port: a fixed one races against a previous run's server that
# is still releasing it.
port=$(( 20000 + $$ % 20000 ))
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

# The load generator client: one request line, one reply line over TCP.
# busybox/dash-friendly; python3 is already a CI docs dependency.
req() {
  python3 -c '
import socket, sys
with socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10) as s:
    f = s.makefile("rw")
    f.write(sys.argv[2] + "\n"); f.flush()
    print(f.readline(), end="")
' "$port" "$1"
}

wait_up() {
  for _ in $(seq 1 50); do
    if req "STATUS nosuch" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "serve_smoke: server did not come up on port $port" >&2
  exit 1
}

config='{"dim":2,"mode":"sequential","init_points":4,"max_sims":12,
"sobol_candidates":64,"random_candidates":32,"refine_evals":30,
"trainer_max_iters":10,"trainer_restarts":1,"seed":"11"}'
config=$(printf '%s' "$config" | tr -d '\n')

# Both server generations stream live telemetry (docs/telemetry.md);
# obs_tail.py summarizes the files at the end of the smoke.
"$serve" --state-dir "$workdir/state" --port "$port" \
  --stream "$workdir/stream1.jsonl" \
  > "$workdir/serve1.log" 2>&1 &
pid=$!
wait_up

# Two interleaved sessions: alternate suggest/observe turns between them.
[ "$(req "NEW a $config")" = "OK created a" ] || { echo "serve_smoke: NEW a failed" >&2; exit 1; }
[ "$(req 'NEW b {"dim":2,"mode":"sequential","init_points":4,"max_sims":12,"sobol_candidates":64,"random_candidates":32,"refine_evals":30,"trainer_max_iters":10,"trainer_restarts":1,"seed":"22"}')" = "OK created b" ] \
  || { echo "serve_smoke: NEW b failed" >&2; exit 1; }

turn() { # turn <session> <expected-tag>
  out=$(req "SUGGEST $1")
  tag=$(printf '%s' "$out" | sed -n 's/^OK {"tag":\([0-9]*\),.*/\1/p')
  [ "$tag" = "$2" ] || { echo "serve_smoke: $1 expected tag $2, got: $out" >&2; exit 1; }
  ok=$(req "OBSERVE $1 $tag 0.5")
  [ "$ok" = 'OK {"action":"observed"}' ] || { echo "serve_smoke: OBSERVE $1 $tag: $ok" >&2; exit 1; }
}

for t in 0 1 2; do
  turn a "$t"
  turn b "$t"
done

# SIGKILL mid-conversation: no shutdown handler runs, only the on-disk
# files survive. Still inside their 4-point initial designs, neither
# session has refit, so each has a journal and no snapshot: both resume
# from their journals alone.
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
echo "serve_smoke: killed server after 3 interleaved turns per session"

for s in a b; do
  [ -s "$workdir/state/$s.journal" ] || { echo "serve_smoke: no journal for session $s" >&2; exit 1; }
  [ ! -e "$workdir/state/$s.snapshot" ] || { echo "serve_smoke: session $s has a snapshot before its first refit" >&2; exit 1; }
done

"$serve" --state-dir "$workdir/state" --port "$port" \
  --stream "$workdir/stream2.jsonl" \
  > "$workdir/serve2.log" 2>&1 &
pid=$!
wait_up

# Resume both sessions from their journals, then finish a's budget: tags
# must continue exactly where the killed process stopped (3..11).
for s in a b; do
  status=$(req "STATUS $s")
  printf '%s' "$status" | grep -q '"observed":3' \
    || { echo "serve_smoke: resumed status of $s wrong: $status" >&2; exit 1; }
done
for t in 3 4 5 6 7 8 9 10 11; do
  turn a "$t"
done
out=$(req "SUGGEST a")
printf '%s' "$out" | grep -q "budget exhausted" \
  || { echo "serve_smoke: expected exhausted budget, got: $out" >&2; exit 1; }
# Its model-based suggestions refit, and each refit wrote the snapshot.
[ -s "$workdir/state/a.snapshot" ] || { echo "serve_smoke: no snapshot for session a after its refits" >&2; exit 1; }

echo "serve_smoke: sessions a and b resumed from their journals; a completed 12/12 sims"

# Tear the server down cleanly (TERM runs the bye frame) and make the
# telemetry streams account for the run: both generations must have
# produced events, dropped nothing, and be parseable by obs_tail.py.
kill "$pid"
wait "$pid" 2>/dev/null || true
pid=
tail=$(dirname -- "$0")/obs_tail.py
summary=$(python3 "$tail" "$workdir/stream1.jsonl" "$workdir/stream2.jsonl")
printf '%s\n' "$summary"
printf '%s\n' "$summary" | grep -q '^fleet: 2 stream(s), [1-9][0-9]* events, 0 dropped$' \
  || { echo "serve_smoke: telemetry streams incomplete or dropped events" >&2; exit 1; }
echo "serve_smoke: telemetry streams reconcile (0 dropped across both generations)"
