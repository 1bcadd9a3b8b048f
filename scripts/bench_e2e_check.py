#!/usr/bin/env python3
"""End-to-end benchmark record gate.

Reads BENCH_e2e.json: parent/change pairs of perfbench runs, one row per
workload, seed and speed-up. Every row declares the gain it claims in a
`gate` object: `metric` (a lower-is-better number both sides hold) and
`min_gain` (the least parent / change ratio). For every row it asserts
the contract of a speed-up that must not change what the program does,
and parent[metric] / change[metric] >= min_gain.

- Paper-budget BO rows (every workload but serve_open_loop) hold the
  numbers `python3 perfbench/run.py --workload <w> --seed <s> --seconds 0
  --trace 1` printed: run_wall_s and turn_cpu_ms from its untraced run,
  the acq.* and gp.* layer numbers from its traced run, and the
  stream_hash. Both sides must have an equal stream_hash (the proposal
  streams are bit-identical) and equal acq.inner_evals (the same number
  of acquisition evaluations).
- serve_open_loop rows hold the numbers `python3 perfbench/run.py
  --workload serve_open_loop --seed <s> --seconds 30 --trace 1` printed:
  turn_cpu_ms and setup_s from its untraced run, the acq.* and io.* layer
  numbers from its traced run, and its stream check: `verified`, the
  proposals compared with standalone runs, and `mismatched`, the session
  streams that differ. Both sides must have mismatched 0 and equal
  verified, acq.inner_evals, io.snapshots and io.journal_appends (the
  same turns, the same acquisition work, the same durable writes).
- A serve row whose change moves the durable writes on purpose declares
  how in `writes`; no other value is accepted. Under
  "journal_per_command" (every SUGGEST and OBSERVE journaled, snapshots
  only right after a hyperparameter refit) both sides must also hold
  gp.hyper_refits, equal on both, and instead of the write equalities
  the change must have exactly twice the parent's io.journal_appends and
  exactly as many io.snapshots as gp.hyper_refits.

A row without a well-formed gate fails. It reads committed numbers only,
so it needs no build and no benchmark run. Stdlib only, so the CI job
needs no pip installs.

Usage:
    bench_e2e_check.py BENCH_e2e.json
"""

import json
import sys

# Per kind of row: every field a side must hold, the fields both sides
# must share, the fields that must be 0 on both, and the numbers printed
# for information only.
BO = {
    "fields": ("run_wall_s", "turn_cpu_ms", "acq.maximize_s",
               "acq.inner_evals", "acq.us_per_eval", "gp.hyper_refit_s",
               "stream_hash"),
    "equal": ("stream_hash", "acq.inner_evals"),
    "zero": (),
    "information": ("run_wall_s", "turn_cpu_ms", "acq.maximize_s",
                    "acq.us_per_eval", "gp.hyper_refit_s"),
}
SERVE = {
    "fields": ("turn_cpu_ms", "setup_s", "acq.maximize_s", "acq.inner_evals",
               "io.checkpoint_s", "io.ms_per_write", "io.share",
               "io.snapshots", "io.journal_appends", "verified",
               "mismatched"),
    "equal": ("verified", "acq.inner_evals", "io.snapshots",
              "io.journal_appends"),
    "zero": ("mismatched",),
    "information": ("turn_cpu_ms", "setup_s", "acq.maximize_s",
                    "io.checkpoint_s", "io.ms_per_write", "io.share"),
}


# Declared write rules: serve rows that move the durable writes on
# purpose (see the docstring).
JOURNAL_PER_COMMAND = dict(
    SERVE,
    fields=SERVE["fields"] + ("gp.hyper_refits",),
    equal=("verified", "acq.inner_evals", "gp.hyper_refits"))
WRITE_RULES = {"journal_per_command": JOURNAL_PER_COMMAND}


def kind_of(row):
    """The rules of a row, or a failure message naming its bad rule."""
    if row.get("workload") != "serve_open_loop":
        return "a write rule on a BO row" if "writes" in row else BO
    if "writes" not in row:
        return SERVE
    rule = WRITE_RULES.get(row["writes"])
    if rule is None:
        return (f"unknown write rule {row['writes']!r} (known: "
                f"{sorted(WRITE_RULES)})")
    return rule


def check_writes(label, kind, parent, change):
    """The write relations of a declared rule; returns the failures."""
    if kind is not JOURNAL_PER_COMMAND:
        return []
    failures = []
    relations = (
        ("io.journal_appends", change["io.journal_appends"],
         2 * parent["io.journal_appends"], "2 x parent"),
        ("io.snapshots", change["io.snapshots"], change["gp.hyper_refits"],
         "change gp.hyper_refits"))
    for field, got, want, what in relations:
        held = got == want
        print(f"{label}: change {field} {got} = {what} {want} "
              f"[{'ok' if held else 'FAIL'}]")
        if not held:
            failures.append(f"{label}: change {field} {got} is not "
                            f"{what} ({want})")
    return failures


def read_gate(label, row, kind):
    """Returns (metric, min_gain), or a failure message."""
    gate = row.get("gate")
    if not isinstance(gate, dict):
        return f"{label}: no gate (need {{\"metric\", \"min_gain\"}})"
    metric, min_gain = gate.get("metric"), gate.get("min_gain")
    if metric not in kind["information"]:
        return (f"{label}: gate metric {metric!r} is not one of "
                f"{list(kind['information'])}")
    if isinstance(min_gain, bool) or not isinstance(min_gain, (int, float)) \
            or not min_gain > 1.0:
        return f"{label}: gate min_gain {min_gain!r} must be a number > 1"
    return metric, float(min_gain)


def check_row(row):
    """Returns the failures of one parent/change row."""
    label = f"{row.get('workload', '?')} seed {row.get('seed', '?')}"
    if "parent_commit" in row:
        label += f" vs {row['parent_commit']}"
    kind = kind_of(row)
    if isinstance(kind, str):
        return [f"{label}: {kind}"]
    gate = read_gate(label, row, kind)
    if isinstance(gate, str):
        return [gate]
    metric, min_gain = gate
    failures = []
    sides = {}
    for side in ("parent", "change"):
        numbers = row.get(side)
        if not isinstance(numbers, dict):
            return [f"{label}: missing the {side} side"]
        missing = [f for f in kind["fields"] if f not in numbers]
        if missing:
            failures.append(f"{label}: {side} lacks {missing}")
        sides[side] = numbers
    if failures:
        return failures
    parent, change = sides["parent"], sides["change"]

    for field in kind["equal"]:
        same = parent[field] == change[field]
        print(f"{label}: {field} {parent[field]} -> {change[field]} "
              f"[{'ok' if same else 'FAIL'}]")
        if not same:
            failures.append(f"{label}: {field} changed")
    failures += check_writes(label, kind, parent, change)
    for field in kind["zero"]:
        zero = parent[field] == 0 and change[field] == 0
        print(f"{label}: {field} {parent[field]} -> {change[field]} "
              f"(must be 0) [{'ok' if zero else 'FAIL'}]")
        if not zero:
            failures.append(f"{label}: {field} is not 0 on both sides")
    gain = parent[metric] / change[metric]
    print(f"{label}: {metric} {parent[metric]:.4g} -> {change[metric]:.4g}"
          f" = {gain:.2f}x (need >= {min_gain:.2f}x) "
          f"[{'ok' if gain >= min_gain else 'FAIL'}]")
    for field in kind["information"]:
        if field != metric:
            print(f"{label}: {field} {parent[field]:.4g} -> "
                  f"{change[field]:.4g} (information)")
    if gain < min_gain:
        failures.append(f"{label}: {metric} gain {gain:.2f}x < "
                        f"{min_gain:.2f}x")
    return failures


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        doc = json.load(f)
    rows = doc.get("rows", [])
    failures = [] if rows else [f"{argv[1]}: no rows"]
    for row in rows:
        failures += check_row(row)
    if failures:
        print("bench_e2e_check: FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"bench_e2e_check: {len(rows)} row(s) hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
