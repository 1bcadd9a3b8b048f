#!/usr/bin/env python3
"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--suggest-limit-ms <ms>]
    python3 perfbench/run.py --self-test

Run from the repository root. The first run builds the workload runner
(perfbench/perfbench.cpp, a Release build against ../src) under
.bench_build/. The run prints a report, then as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics untraced (--trace 0), the per-layer metrics from a traced run
(--trace 1). It exits non-zero when an output check fails or the open-loop
generator fell behind its schedule. NOTES.md explains the workloads,
metrics and layers.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402

WORKLOADS = ("opamp_async_b15", "classe_async_b15", "serve_open_loop")
# Open-loop generator slip (p99) beyond which a serve run is invalid.
MAX_LATE_MS = 5.0
CHILD_TIMEOUT_S = 170.0
FS_NAMES = {0xEF53: "ext2/3/4", 0x794C7630: "overlayfs", 0x01021994: "tmpfs",
            0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: library sources (src/) not found; "
                         "run from the repository root")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise SystemExit("perfbench: cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run([cmake, "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run([cmake, "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def run_child(binary, args):
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, f"raw-{os.getpid()}.json")
    # One malloc arena: peak RSS then counts the program's live memory, not
    # how many per-thread arenas lock contention happened to create.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    proc = subprocess.Popen([binary] + args + [out], stdout=sys.stderr,
                            env=env)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: workload runner timed out")
    if code != 0:
        raise SystemExit(f"perfbench: workload runner exited with {code}")
    with open(out) as f:
        raw = json.load(f)
    os.remove(out)
    return raw


def write_spans(name, seed, run):
    """Writes a traced run's spans, one JSON line each; returns the path."""
    path = os.path.join(ROOT, ".bench_build", "traces",
                        f"{name}-seed{seed}.spans.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for phase, start, end in run.get("spans", []):
            f.write(json.dumps({"phase": phase, "layer":
                                m.PHASE_LAYER.get(phase), "start": start,
                                "end": end}) + "\n")
    return path


def context_lines(raw):
    fs = raw.get("fs_magic")
    fs_name = FS_NAMES.get(int(fs, 16), fs) if fs else "unknown"
    load = " ".join(f"{v:.2f}" for v in raw.get("loadavg", []))
    return [f"context: nproc={raw['nproc']} build={raw['build_type']} "
            f"state_fs={fs_name} loadavg_at_start={load}"]


# ---------------------------------------------------------------------------
# BO workloads
# ---------------------------------------------------------------------------

def bo_run_numbers(raw, run):
    first = raw["init_points"]
    starts, ends = run["cb_start"], run["cb_end"]
    gaps = [(ends[k - 1], starts[k]) for k in range(first, len(starts))]
    lengths = [b - a for a, b in gaps]
    cpu = [run["cpu_start"][k] - run["cpu_end"][k - 1]
           for k in range(first, len(starts))]
    level, tail_s = m.tail(lengths)
    return {
        "cpu_gaps": cpu,
        "gaps": gaps,
        "run_wall_s": run["t_end"] - starts[0],
        "gap_p50_ms": statistics.median(lengths) * 1e3,
        "gap_tail_level": level,
        "gap_tail_ms": tail_s * 1e3,
        "gap_mean_ms": statistics.fmean(lengths) * 1e3,
        "objective_s": sum(e - s for s, e in zip(starts, ends)),
        "stream_hash": m.stream_hash(run["xs"]),
    }


def bo_checks(raw, trace):
    failures = []
    for run in raw["runs"]:
        failures += m.check_bo_stream(run["xs"], run["ys"], raw["lower"],
                                      raw["upper"], raw["budget"],
                                      run["best_y"])
    if trace and (m.stream_hash(raw["runs"][0]["xs"]) !=
                  m.stream_hash(raw["runs"][1]["xs"])):
        failures.append("the traced run proposed a different stream")
    return failures


def bo_report(raw, trace):
    run = raw["runs"][0]
    nums = bo_run_numbers(raw, run)
    untraced = raw["runs"][:1] if trace else raw["runs"]
    cpu_gaps = [bo_run_numbers(raw, r)["cpu_gaps"] for r in untraced]
    turn_cpu = statistics.fmean([g for gaps in cpu_gaps for g in gaps]) * 1e3
    lines = context_lines(raw)
    tl = nums["gap_tail_level"]
    n_gaps = len(nums["gaps"])
    setup = statistics.median(raw["setup_s"])
    e2e = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "turn_cpu_ms": (turn_cpu, "ms"),
    }
    lines += [
        f"runs: {len(untraced)} untraced paper-budget run(s), seeds "
        f"{raw['seed']}..{raw['seed'] + len(untraced) - 1}; named metrics "
        "below are the first run's",
        "end-to-end (untraced run):",
        f"  setup_s            {setup:.6f} s  (median of "
        f"{len(raw['setup_s'])} circuit + engine constructions; "
        f"{statistics.median(raw['setup_cpu_s']):.6f} s CPU)",
        f"  peak_rss_mb        {e2e['peak_rss_mb'][0]:.1f} MB",
        f"  failed_frac        0 of {len(run['xs'])} evaluations",
        f"  run_wall_s         {nums['run_wall_s']:.4f} s  (first proposal "
        "to budget exhausted)",
        f"  gap_p50_ms         {nums['gap_p50_ms']:.4f} ms  "
        f"(n={n_gaps} worker idle gaps)",
        f"  gap_p{tl:g}_ms{' ' * max(1, 9 - len(f'{tl:g}'))}"
        f"{nums['gap_tail_ms']:.4f} ms  (n={n_gaps}, "
        f"{n_gaps - m.nearest_rank(n_gaps, tl)} beyond)",
        f"  gap_mean_ms        {nums['gap_mean_ms']:.4f} ms",
        f"  turn_cpu_ms        {turn_cpu:.4f} ms  (proposer CPU per gap, "
        f"mean over all {sum(len(g) for g in cpu_gaps)} gaps)",
        f"  best_fom           {run['best_y']:.10g}",
        "info:",
        f"  stream_hash        {nums['stream_hash']}",
        f"  virtual_makespan_s {run['makespan']:.10g}",
    ]
    if not trace:
        return lines, e2e, sum(len(r["xs"]) for r in untraced)

    traced = raw["runs"][1]
    tnums = bo_run_numbers(raw, traced)
    totals = m.span_totals(traced["spans"])
    counters = traced["counters"]
    base = tnums["run_wall_s"]
    acq_s = totals.get("acq_maximize", 0.0)
    inner = counters.get("acq.inner_evals", 0)
    gp_refit = totals.get("hyper_refit", 0.0)
    gp_fit = totals.get("model_fit", 0.0)
    io_s = totals.get("checkpoint", 0.0)
    self_s, gap_total = m.gap_self(tnums["gaps"], traced["spans"])
    layer = {
        "acq.maximize_s": (acq_s, "s"),
        "acq.inner_evals": (inner, "count"),
        "acq.us_per_eval": (acq_s / inner * 1e6 if inner else 0.0, "us"),
        "acq.share": (acq_s / base, "frac"),
        "gp.hyper_refit_s": (gp_refit, "s"),
        "gp.hyper_refits": (counters.get("bo.hyper_refit", 0), "count"),
        "gp.model_fit_s": (gp_fit, "s"),
        "gp.chol_refactor": (counters.get("gp.chol_refactor", 0), "count"),
        "gp.chol_extend": (counters.get("gp.chol_extend", 0), "count"),
        "gp.hallucinate": (counters.get("gp.hallucinate", 0), "count"),
        "gp.jitter_escalation": (counters.get("gp.jitter_escalation", 0),
                                 "count"),
        "bo.gap_self_s": (self_s, "s"),
        "io.journal_appends": (counters.get("ckpt.journal_appends", 0),
                               "count"),
        "io.snapshots": (counters.get("ckpt.snapshots", 0), "count"),
        "io.share": (io_s / base, "frac"),
        "serve.queue_wait_share": (0.0, "frac"),
        "serve.outside_exec_share": (0.0, "frac"),
        "serve.shed": (0, "count"),
        "serve.queue_shed": (0, "count"),
        "serve.deadline_cut": (0, "count"),
        "trace.overhead_frac": (base / nums["run_wall_s"] - 1.0, "frac"),
    }
    io_writes = layer["io.journal_appends"][0] + layer["io.snapshots"][0]
    extra = {
        "io.checkpoint_s": (io_s, "s"),
        "io.ms_per_write": (io_s / io_writes * 1e3 if io_writes else 0.0,
                            "ms"),
        "serve.queue_wait_p90_ms": (0.0, "ms"),
        "serve.exec_p50_ms": (0.0, "ms"),
        "serve.exec_p90_ms": (0.0, "ms"),
        "serve.outside_exec_ms": (0.0, "ms"),
    }
    lines += layer_lines(layer, extra)
    lines.append(f"  (acq.us_per_eval base: acq.inner_evals = {inner}; "
                 f"bo.gap_self_s over {len(tnums['gaps'])} gaps totalling "
                 f"{gap_total:.4f} s)")
    rows = [
        ("acq.maximize_s", acq_s), ("gp.hyper_refit_s", gp_refit),
        ("gp.model_fit_s", gp_fit), ("io.checkpoint_s", io_s),
        ("bo.gap_self_s", self_s),
        ("objective callbacks", tnums["objective_s"]),
    ]
    lines += share_table("run_wall_s (traced)", base, rows)
    lines += predictions([
        ("acq.maximize_s >= 70% of run_wall_s", acq_s / base >= 0.70),
        ("io.checkpoint_s is 0", io_s == 0.0),
    ])
    return lines, layer, len(run["xs"])


# ---------------------------------------------------------------------------
# serve_open_loop
# ---------------------------------------------------------------------------

def serve_turn_cpu_ms(run):
    """Process CPU per turn over the window: host, transport and client."""
    turns = sum(1 for r in run["requests"] if r[1] == 1)
    return run["window_cpu_s"] / turns * 1e3


def serve_rung_numbers(run, rung):
    # Request records: [rung, is_suggest, session, due, send, reply, late, ok].
    reqs = [r for r in run["requests"] if r[0] == rung]
    sug = [r[5] - r[3] for r in reqs if r[1] == 1 and r[7] == 1]
    obs = [r[5] - r[3] for r in reqs if r[1] == 0 and r[7] == 1]
    failed = sum(1 for r in reqs if r[7] != 1)
    level, sug_tail = m.tail(sug)
    olevel, obs_tail = m.tail(obs)
    third = max(1, len(sug) // 3)
    growing = (statistics.median(sug[-third:]) >
               2.0 * statistics.median(sug[:third]) + 1e-3)
    return {
        "n_suggest": len(sug), "n_observe": len(obs), "failed": failed,
        "suggest_p50_ms": statistics.median(sug) * 1e3,
        "suggest_tail_level": level, "suggest_tail_ms": sug_tail * 1e3,
        "observe_p50_ms": statistics.median(obs) * 1e3,
        "observe_tail_level": olevel, "observe_tail_ms": obs_tail * 1e3,
        "growing": growing,
    }


def serve_report(raw, trace, limit_ms):
    primary = raw["runs"][-1] if trace else raw["runs"][0]
    run = raw["runs"][0]
    lines = context_lines(raw)
    late = [r[6] for r in primary["requests"] + run["requests"]]
    late_p99 = m.percentile(late, 99.0)
    if late_p99 * 1e3 > MAX_LATE_MS:
        raise SystemExit(
            f"perfbench: invalid run: open-loop generator lateness p99 = "
            f"{late_p99 * 1e3:.2f} ms exceeds {MAX_LATE_MS} ms; the "
            "generator fell behind its schedule")
    rungs = [serve_rung_numbers(run, i) for i in range(len(raw["rates"]))]
    max_ok = 0.0
    for rate, rung in zip(raw["rates"], rungs):
        if (rung["suggest_tail_ms"] > limit_ms or rung["failed"]
                or rung["growing"]):
            break
        max_ok = rate
    nominal = rungs[0]
    setup = statistics.median(raw["setup_s"])
    turn_cpu = serve_turn_cpu_ms(run)
    e2e = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "turn_cpu_ms": (turn_cpu, "ms"),
    }
    attempted = len(primary["requests"])
    failed = sum(1 for r in primary["requests"] if r[7] != 1)
    sl, ol = nominal["suggest_tail_level"], nominal["observe_tail_level"]
    lines += [
        f"load: {raw['sessions']} sequential sessions (max_live "
        f"{raw['max_live']}), {raw['connections']} connections, "
        f"{raw['serve_workers']} serve workers, open loop at "
        + ", ".join(f"{r:g}" for r in raw["rates"]) + " turns/s for "
        + ", ".join(f"{s * raw['seconds']:g}" for s in raw["shares"])
        + f" s, {raw['sim_delay_s'] * 1e3:g} ms client simulation per turn",
        "end-to-end (untraced run):",
        f"  setup_s            {setup:.6f} s  (median of "
        f"{len(raw['setup_s'])} host restarts, each re-opening "
        f"{raw['sessions']} sessions by NEW; "
        f"{statistics.median(raw['setup_cpu_s']):.6f} s CPU)",
        f"  peak_rss_mb        {e2e['peak_rss_mb'][0]:.1f} MB",
        f"  failed_frac        {failed} of {attempted} requests",
        f"  suggest_p50_ms     {nominal['suggest_p50_ms']:.4f} ms  "
        f"(n={nominal['n_suggest']} at {raw['rates'][0]:g} turns/s, timed "
        "from due)",
        f"  suggest_p{sl:g}_ms     {nominal['suggest_tail_ms']:.4f} ms",
        f"  observe_p50_ms     {nominal['observe_p50_ms']:.4f} ms  "
        f"(n={nominal['n_observe']})",
        f"  observe_p{ol:g}_ms     {nominal['observe_tail_ms']:.4f} ms",
        f"  max_rate_ok        {max_ok:g} turns/s  (SUGGEST tail <= "
        f"{limit_ms:g} ms, no failures, no growing backlog)",
        f"  turn_cpu_ms        {turn_cpu:.4f} ms  (process CPU per turn over "
        "the window)",
        "ladder:",
    ]
    for rate, rung in zip(raw["rates"], rungs):
        lines.append(
            f"  {rate:5g} turns/s  suggest p50 {rung['suggest_p50_ms']:.3f} "
            f"p{rung['suggest_tail_level']:g} {rung['suggest_tail_ms']:.3f} ms"
            f"  observe p50 {rung['observe_p50_ms']:.3f} ms  "
            f"n={rung['n_suggest']}  failed={rung['failed']}  "
            f"backlog {'growing' if rung['growing'] else 'steady'}")
    lines += [
        "info:",
        f"  generator_late_p99_ms {late_p99 * 1e3:.4f} ms  "
        f"(max {max(late) * 1e3:.4f} ms)",
        f"  warmup_s           {run['warmup_s']:.4f} s",
        f"  verified           {raw['verify']['proposals']} proposals in "
        f"{raw['verify']['sessions']} session streams",
    ]
    if not trace:
        return lines, e2e, attempted, failed

    traced = raw["runs"][1]
    window = traced["window"]
    totals = m.span_totals(traced["spans"], window)
    counters = {k: v - traced["counters_at_mark"].get(k, 0)
                for k, v in traced["counters"].items()}
    before, after = traced["status_before"], traced["status_after"]

    def delta(key, field):
        return after[key][field] - before[key][field]

    exec_s = delta("exec", "total")
    wait_s = delta("queue_wait", "total")
    n_exec = delta("exec", "count")
    client_s = sum(r[5] - r[4] for r in traced["requests"])
    acq_s = totals.get("acq_maximize", 0.0)
    inner = counters.get("acq.inner_evals", 0)
    gp_refit = totals.get("hyper_refit", 0.0)
    gp_fit = totals.get("model_fit", 0.0)
    io_s = totals.get("checkpoint", 0.0)
    self_s = exec_s - acq_s - gp_refit - gp_fit - io_s
    outside_s = client_s - wait_s - exec_s
    layer = {
        "acq.maximize_s": (acq_s, "s"),
        "acq.inner_evals": (inner, "count"),
        "acq.us_per_eval": (acq_s / inner * 1e6 if inner else 0.0, "us"),
        "acq.share": (acq_s / exec_s, "frac"),
        "gp.hyper_refit_s": (gp_refit, "s"),
        "gp.hyper_refits": (counters.get("bo.hyper_refit", 0), "count"),
        "gp.model_fit_s": (gp_fit, "s"),
        "gp.chol_refactor": (counters.get("gp.chol_refactor", 0), "count"),
        "gp.chol_extend": (counters.get("gp.chol_extend", 0), "count"),
        "gp.hallucinate": (counters.get("gp.hallucinate", 0), "count"),
        "gp.jitter_escalation": (counters.get("gp.jitter_escalation", 0),
                                 "count"),
        "bo.gap_self_s": (self_s, "s"),
        "io.journal_appends": (counters.get("ckpt.journal_appends", 0),
                               "count"),
        "io.snapshots": (counters.get("ckpt.snapshots", 0), "count"),
        "io.share": (io_s / exec_s, "frac"),
        "serve.queue_wait_share": (wait_s / client_s, "frac"),
        "serve.outside_exec_share": (outside_s / client_s, "frac"),
        "serve.shed": (after["shed"] - before["shed"], "count"),
        "serve.queue_shed": (after["queue_shed"] - before["queue_shed"],
                             "count"),
        "serve.deadline_cut": (after["deadline_cut"] -
                               before["deadline_cut"], "count"),
        "trace.overhead_frac": (serve_turn_cpu_ms(traced) / turn_cpu - 1.0,
                                "frac"),
    }
    io_writes = layer["io.journal_appends"][0] + layer["io.snapshots"][0]
    extra = {
        "io.checkpoint_s": (io_s, "s"),
        "io.ms_per_write": (io_s / io_writes * 1e3 if io_writes else 0.0,
                            "ms"),
        "serve.queue_wait_p90_ms": (after["queue_wait"]["p90"] * 1e3, "ms"),
        "serve.exec_p50_ms": (after["exec"]["p50"] * 1e3, "ms"),
        "serve.exec_p90_ms": (after["exec"]["p90"] * 1e3, "ms"),
        "serve.outside_exec_ms": (outside_s / n_exec * 1e3, "ms"),
    }
    lines += layer_lines(layer, extra)
    lines.append(
        f"  (window of {len(traced['requests'])} requests; acq.us_per_eval "
        f"base: acq.inner_evals = {inner}; bo.gap_self_s = host exec minus "
        "acq, gp and io spans; STATUS p50/p90 are streaming estimates "
        "since boot; trace.overhead_frac compares turn_cpu_ms)")
    rows = [
        ("acq.maximize_s", acq_s), ("gp.hyper_refit_s", gp_refit),
        ("gp.model_fit_s", gp_fit), ("io.checkpoint_s", io_s),
        ("bo.gap_self_s", self_s),
    ]
    lines += share_table("host exec (STATUS exec total)", exec_s, rows)
    lines += predictions([
        ("acq.maximize_s <= 10% of host exec", acq_s / exec_s <= 0.10),
        ("io.checkpoint_s >= 50% of host exec", io_s / exec_s >= 0.50),
    ])
    return lines, layer, len(traced["requests"]), failed


# ---------------------------------------------------------------------------
# Report pieces
# ---------------------------------------------------------------------------

def layer_lines(layer, extra):
    lines = ["per-layer (traced run):"]
    for name, (value, unit) in list(layer.items()) + list(extra.items()):
        shown = f"{value:.6g}" if isinstance(value, float) else f"{value}"
        lines.append(f"  {name:<26} {shown} {unit}")
    return lines


def share_table(base_name, base, rows):
    lines = [f"layer shares (base: {base_name} = {base:.4f} s):"]
    for name, seconds in rows:
        _, text = m.ratio_text(name, seconds, "base", base, "s")
        lines.append(f"  {text}")
    return lines


def predictions(items):
    return ["workload-design predictions:"] + [
        f"  {'holds   ' if ok else 'VIOLATED'} {what}" for what, ok in items]


def emit(lines, correct, attempted, failed, values):
    for line in lines:
        print(line)
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suggest-limit-ms", type=float, default=10.0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        import unittest
        suite = unittest.defaultTestLoader.discover(HERE, "test_*.py")
        ok = unittest.TextTestRunner(stream=sys.stderr).run(suite)
        return 0 if ok.wasSuccessful() else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    trace = args.trace == 1
    started = time.time()
    header = (f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
    if args.workload == "serve_open_loop":
        state = os.path.join(WORK, f"state-{os.getpid()}")
        try:
            raw = run_child(binary, ["serve", str(args.seed),
                                     f"{args.seconds:g}", str(args.trace),
                                     state])
        finally:
            shutil.rmtree(state, ignore_errors=True)
        failures = m.check_serve(raw["verify"], [
            e for run in raw["runs"] for e in run["errors"]])
        lines, values, attempted, failed = serve_report(
            raw, trace, args.suggest_limit_ms)
    else:
        problem = args.workload.split("_")[0]
        raw = run_child(binary, ["bo", problem, str(args.seed),
                                 f"{args.seconds:g}", str(args.trace)])
        failures = bo_checks(raw, trace)
        lines, values, attempted = bo_report(raw, trace)
        failed = 0
    lines = [header] + lines
    if trace:
        path = write_spans(args.workload, args.seed, raw["runs"][1])
        lines.append(f"spans: {os.path.relpath(path, ROOT)}")
    lines.append(f"checks: {'ok' if not failures else 'FAILED'}"
                 f"  (runner wall {time.time() - started:.1f} s)")
    lines += [f"  {f}" for f in failures]
    emit(lines, not failures, attempted, failed, values)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
