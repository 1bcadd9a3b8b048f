#!/usr/bin/env sh
# Session-server chaos test (docs/failure-model.md). Exercises the three
# hard things at once that serve_smoke.sh exercises one at a time:
#
#   phase 1  concurrent clients — several parallel connections drive
#            disjoint sessions to exhaustion through one server;
#   phase 2  kill -9 mid-traffic, restart on the same state directory,
#            and verify every session resumes exactly where it stopped
#            (tag continuity, no repeats, no gaps);
#   phase 3  storage-fault injection — restart the server with --inject-*
#            flags so journal/snapshot writes fail on a schedule; every
#            affected request must get a clean ERR (storage / quarantined)
#            while the server stays up and the health plane degrades,
#            then a clean restart + CLOSE recovers every session to its
#            full budget.
#
# Run by CI on the plain build; usable locally as:
#
#   sh scripts/serve_chaos.sh [path/to/easybo_serve]
#
set -eu

serve=${1:-build/examples/easybo_serve}
[ -x "$serve" ] || { echo "serve_chaos: $serve not built" >&2; exit 1; }

workdir=$(mktemp -d)
port=$(( 20000 + $$ % 20000 ))
pid=""
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

req() {
  python3 -c '
import socket, sys
with socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=20) as s:
    f = s.makefile("rw")
    f.write(sys.argv[2] + "\n"); f.flush()
    print(f.readline(), end="")
' "$port" "$1"
}

wait_up() {
  for _ in $(seq 1 100); do
    if req "STATUS" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "serve_chaos: server did not come up on port $port" >&2
  exit 1
}

start_server() { # start_server <log-name> [extra flags...]
  log=$1; shift
  "$serve" --state-dir "$workdir/state" --port "$port" "$@" \
    > "$workdir/$log" 2>&1 &
  pid=$!
  wait_up
}

stop_server() {
  kill "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  pid=""
}

nsessions=6
max_sims=8
config_for() { # config_for <seed>
  printf '{"dim":2,"mode":"sequential","init_points":3,"max_sims":%s,"sobol_candidates":32,"random_candidates":16,"refine_evals":15,"trainer_max_iters":8,"trainer_restarts":1,"seed":"%s"}' \
    "$max_sims" "$1"
}

# One client process: holds a single connection and drives one session
# through n suggest/observe turns, checking tag continuity from $3.
drive() { # drive <session> <turns> <first-tag>
  python3 -c '
import json, socket, sys
name, turns, first = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
with socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=60) as s:
    f = s.makefile("rw")
    def req(line):
        f.write(line + "\n"); f.flush()
        return f.readline().rstrip("\n")
    for k in range(turns):
        out = req("SUGGEST " + name)
        if not out.startswith("OK "):
            sys.exit(f"{name}: SUGGEST: {out}")
        tag = json.loads(out[3:])["tag"]
        if tag != first + k:
            sys.exit(f"{name}: expected tag {first + k}, got {tag}")
        out = req(f"OBSERVE {name} {tag} 0.5")
        if not out.startswith("OK "):
            sys.exit(f"{name}: OBSERVE {tag}: {out}")
' "$port" "$@"
}

# === Phase 1: concurrent clients =====================================
start_server serve1.log
i=0
while [ "$i" -lt "$nsessions" ]; do
  [ "$(req "NEW s$i $(config_for $((100 + i)))")" = "OK created s$i" ] \
    || { echo "serve_chaos: NEW s$i failed" >&2; exit 1; }
  i=$((i + 1))
done

# Half the budget each, all sessions in parallel, one connection per
# session.
half=$((max_sims / 2))
i=0
while [ "$i" -lt "$nsessions" ]; do
  drive "s$i" "$half" 0 &
  eval "client_$i=$!"
  i=$((i + 1))
done
i=0
while [ "$i" -lt "$nsessions" ]; do
  eval "wait \"\$client_$i\"" \
    || { echo "serve_chaos: concurrent client s$i failed" >&2; exit 1; }
  i=$((i + 1))
done
echo "serve_chaos: phase 1 ok ($nsessions concurrent clients, $half turns each)"

# === Phase 2: kill -9 and resume =====================================
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
start_server serve2.log

i=0
while [ "$i" -lt "$nsessions" ]; do
  status=$(req "STATUS s$i")
  printf '%s' "$status" | grep -q "\"observed\":$half" \
    || { echo "serve_chaos: s$i resumed wrong: $status" >&2; exit 1; }
  i=$((i + 1))
done
echo "serve_chaos: phase 2 ok (kill -9, all $nsessions sessions resumed at $half observations)"

# === Phase 3: storage faults =========================================
stop_server
# A bounded fault budget (--inject-fs-max): the schedule fires across
# the recovery traffic and then drains, so every session can finish —
# an unbounded schedule can align with a session's op pattern and fault
# the same request forever, which models a dead disk, not a flaky one.
start_server serve3.log --inject-enospc-every 5 --inject-eio-every 11 \
  --inject-fs-max 30

# Drive every session toward its remaining budget, tolerating storage
# ERRs the documented way: CLOSE a quarantined session and retry. The
# server itself must never die, and no session may lose a committed
# observation or accept an uncommitted one.
storage_errs=0
i=0
while [ "$i" -lt "$nsessions" ]; do
  t="$half"
  attempts=0
  while [ "$t" -lt "$max_sims" ]; do
    attempts=$((attempts + 1))
    [ "$attempts" -le 200 ] \
      || { echo "serve_chaos: s$i wedged at tag $t" >&2; exit 1; }
    out=$(req "SUGGEST s$i")
    case $out in
      "OK "*) ;;
      "ERR storage"*|"ERR quarantined"*|"ERR cannot"*)
        storage_errs=$((storage_errs + 1))
        req "CLOSE s$i" >/dev/null 2>&1 || true
        continue ;;
      *) echo "serve_chaos: s$i SUGGEST: $out" >&2; exit 1 ;;
    esac
    tag=$(printf '%s' "$out" | sed -n 's/^OK {"tag":\([0-9]*\),.*/\1/p')
    [ "$tag" = "$t" ] \
      || { echo "serve_chaos: s$i expected tag $t, got: $out" >&2; exit 1; }
    # A failed OBSERVE leaves its tag pending (the append rolled back,
    # and the SUGGEST before it stays committed): CLOSE clears the
    # quarantine and the same OBSERVE is sent again.
    while :; do
      attempts=$((attempts + 1))
      [ "$attempts" -le 200 ] \
        || { echo "serve_chaos: s$i wedged observing tag $t" >&2; exit 1; }
      out=$(req "OBSERVE s$i $tag 0.5")
      case $out in
        "OK "*) t=$((t + 1)); break ;;
        "ERR storage"*|"ERR quarantined"*|"ERR cannot"*)
          storage_errs=$((storage_errs + 1))
          req "CLOSE s$i" >/dev/null 2>&1 || true ;;
        *) echo "serve_chaos: s$i OBSERVE $tag: $out" >&2; exit 1 ;;
      esac
    done
  done
  i=$((i + 1))
done
[ "$storage_errs" -gt 0 ] \
  || { echo "serve_chaos: fault injection never fired" >&2; exit 1; }

# The health plane counted the faults and the server is still answering.
health=$(req "STATUS")
printf '%s' "$health" | grep -q '"io_faults":[1-9]' \
  || { echo "serve_chaos: health shows no io_faults: $health" >&2; exit 1; }
echo "serve_chaos: phase 3 ok (survived $storage_errs storage errors under injection)"

# === Final audit: clean restart, every session complete ==============
stop_server
start_server serve4.log
i=0
while [ "$i" -lt "$nsessions" ]; do
  status=$(req "STATUS s$i")
  printf '%s' "$status" | grep -q "\"observed\":$max_sims" \
    || { echo "serve_chaos: s$i incomplete after recovery: $status" >&2; exit 1; }
  out=$(req "SUGGEST s$i")
  printf '%s' "$out" | grep -q "budget exhausted" \
    || { echo "serve_chaos: s$i not exhausted: $out" >&2; exit 1; }
  i=$((i + 1))
done
health=$(req "STATUS")
printf '%s' "$health" | grep -q '"storage":"ok"' \
  || { echo "serve_chaos: storage not ok after clean restart: $health" >&2; exit 1; }

echo "serve_chaos: all $nsessions sessions recovered to $max_sims/$max_sims sims after chaos"

# === Phase 4: slow session under the worker pool =====================
# One session (slow0) gets an injected 800 ms SUGGEST slowdown against a
# 300 ms request deadline: every one of its SUGGESTs must be deadline-cut
# with state rolled back, while six fast sessions sharing the same
# 4-worker pool run to exhaustion with bounded turnaround (the pool's
# hard bound is deadline + watchdog grace). Afterwards the health plane
# must reconcile exactly against the telemetry stream
# (obs_tail.py --check-health), and a restart without injection must
# hand slow0 tag 0 — its cut SUGGESTs consumed nothing.
stop_server
nfast=6
deadline_ms=300
grace_ms=2000
start_server serve5.log --serve-workers 4 \
  --request-deadline-ms "$deadline_ms" --queue-wait-ms 2000 \
  --watchdog-grace-ms "$grace_ms" \
  --inject-sleep-ms 800 --inject-sleep-session slow0 \
  --stream "$workdir/phase4.stream.jsonl"

[ "$(req "NEW slow0 $(config_for 900)")" = "OK created slow0" ] \
  || { echo "serve_chaos: NEW slow0 failed" >&2; exit 1; }
i=0
while [ "$i" -lt "$nfast" ]; do
  [ "$(req "NEW f$i $(config_for $((200 + i)))")" = "OK created f$i" ] \
    || { echo "serve_chaos: NEW f$i failed" >&2; exit 1; }
  i=$((i + 1))
done

# Fast fleet: one thread per session, full budget each, pooled p99
# turnaround must stay under the server's own bound.
python3 -c '
import json, socket, sys, threading
port, nfast, turns = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
bound = float(sys.argv[4])
import time
lat, errs = [], []
lock = threading.Lock()
def drive(name):
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
            f = s.makefile("rw")
            def req(line):
                t0 = time.monotonic()
                f.write(line + "\n"); f.flush()
                out = f.readline().rstrip("\n")
                with lock:
                    lat.append(time.monotonic() - t0)
                return out
            for k in range(turns):
                out = req("SUGGEST " + name)
                if not out.startswith("OK "):
                    raise RuntimeError(f"{name}: SUGGEST: {out}")
                tag = json.loads(out[3:])["tag"]
                if tag != k:
                    raise RuntimeError(f"{name}: expected tag {k}, got {tag}")
                out = req(f"OBSERVE {name} {tag} 0.5")
                if not out.startswith("OK "):
                    raise RuntimeError(f"{name}: OBSERVE {tag}: {out}")
    except Exception as e:
        with lock:
            errs.append(str(e))
threads = [threading.Thread(target=drive, args=(f"f{i}",))
           for i in range(nfast)]
for t in threads: t.start()
for t in threads: t.join()
if errs:
    sys.exit("fast sessions hit errors: " + "; ".join(errs))
lat.sort()
p99 = lat[min(len(lat) - 1, int(0.99 * len(lat)))]
print(f"serve_chaos: fast fleet {len(lat)} requests, "
      f"p99={p99 * 1000:.1f}ms (bound {bound * 1000:.0f}ms)")
if p99 > bound:
    sys.exit(f"fast-session p99 {p99:.3f}s exceeds bound {bound:.3f}s")
' "$port" "$nfast" "$max_sims" "$(python3 -c "print(($deadline_ms + $grace_ms) / 1000.0 + 0.2)")" &
fast_fleet=$!

# Meanwhile the slow session keeps getting cut — and keeps tag 0.
cuts=0
k=0
while [ "$k" -lt 4 ]; do
  out=$(req "SUGGEST slow0")
  case $out in
    "ERR deadline slow0"*) cuts=$((cuts + 1)) ;;
    *) echo "serve_chaos: slow0 expected a deadline cut, got: $out" >&2
       exit 1 ;;
  esac
  k=$((k + 1))
done

wait "$fast_fleet" \
  || { echo "serve_chaos: fast fleet failed under the slow session" >&2; exit 1; }

# Health plane: the cuts were counted, and the snapshot reconciles
# against the stream's serve.* counters once the server says bye.
health=$(req "STATUS")
printf '%s' "$health" | grep -q '"deadline_cut":[1-9]' \
  || { echo "serve_chaos: health shows no deadline cuts: $health" >&2; exit 1; }
printf '%s\n' "$health" > "$workdir/phase4.health.json"
stop_server
python3 scripts/obs_tail.py --check-health "$workdir/phase4.health.json" \
  "$workdir/phase4.stream.jsonl" \
  || { echo "serve_chaos: health/stream reconciliation failed" >&2; exit 1; }

# Restart with no injection: the cut SUGGESTs consumed nothing, so
# slow0 starts from tag 0 and runs normally.
start_server serve6.log --serve-workers 4 \
  --request-deadline-ms "$deadline_ms" --queue-wait-ms 2000 \
  --watchdog-grace-ms "$grace_ms"
out=$(req "SUGGEST slow0")
printf '%s' "$out" | grep -q '^OK {"tag":0,' \
  || { echo "serve_chaos: slow0 did not restart at tag 0: $out" >&2; exit 1; }
tag=$(printf '%s' "$out" | sed -n 's/^OK {"tag":\([0-9]*\),.*/\1/p')
out=$(req "OBSERVE slow0 $tag 0.5")
case $out in
  "OK "*) ;;
  *) echo "serve_chaos: slow0 OBSERVE after restart: $out" >&2; exit 1 ;;
esac
echo "serve_chaos: phase 4 ok ($cuts deadline cuts on slow0, fast fleet unaffected, health reconciled, tag 0 preserved)"
