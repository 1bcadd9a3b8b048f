#!/usr/bin/env python3
"""End-to-end benchmark record gate.

Reads BENCH_e2e.json: parent/change pairs of paper-budget perfbench runs,
one row per workload, seed and speed-up, each side holding the numbers
`python3 perfbench/run.py --workload <w> --seed <s> --seconds 0 --trace 1`
printed (run_wall_s and turn_cpu_ms from its untraced run, the acq.* and
gp.* layer numbers from its traced run, and the stream_hash). Every row
declares the gain it claims in a `gate` object: `metric` (a lower-is-
better number both sides hold) and `min_gain` (the least parent / change
ratio). For every row it asserts the contract of a speed-up that must not
change what the optimizer does:

- equal stream_hash (the proposal streams are bit-identical);
- equal acq.inner_evals (the same number of acquisition evaluations);
- parent[metric] / change[metric] >= min_gain.

A row without a well-formed gate fails. It reads committed numbers only,
so it needs no build and no benchmark run. Stdlib only, so the CI job
needs no pip installs.

Usage:
    bench_e2e_check.py BENCH_e2e.json
"""

import json
import sys

FIELDS = ("run_wall_s", "turn_cpu_ms", "acq.maximize_s", "acq.inner_evals",
          "acq.us_per_eval", "gp.hyper_refit_s", "stream_hash")
INFORMATION = ("run_wall_s", "turn_cpu_ms", "acq.maximize_s",
               "acq.us_per_eval", "gp.hyper_refit_s")


def read_gate(label, row):
    """Returns (metric, min_gain), or a failure message."""
    gate = row.get("gate")
    if not isinstance(gate, dict):
        return f"{label}: no gate (need {{\"metric\", \"min_gain\"}})"
    metric, min_gain = gate.get("metric"), gate.get("min_gain")
    if metric not in FIELDS or metric == "stream_hash":
        return f"{label}: gate metric {metric!r} is not a recorded number"
    if isinstance(min_gain, bool) or not isinstance(min_gain, (int, float)) \
            or not min_gain > 1.0:
        return f"{label}: gate min_gain {min_gain!r} must be a number > 1"
    return metric, float(min_gain)


def check_row(row):
    """Returns the failures of one parent/change row."""
    label = f"{row.get('workload', '?')} seed {row.get('seed', '?')}"
    if "parent_commit" in row:
        label += f" vs {row['parent_commit']}"
    gate = read_gate(label, row)
    if isinstance(gate, str):
        return [gate]
    metric, min_gain = gate
    failures = []
    sides = {}
    for side in ("parent", "change"):
        numbers = row.get(side)
        if not isinstance(numbers, dict):
            return [f"{label}: missing the {side} side"]
        missing = [f for f in FIELDS if f not in numbers]
        if missing:
            failures.append(f"{label}: {side} lacks {missing}")
        sides[side] = numbers
    if failures:
        return failures
    parent, change = sides["parent"], sides["change"]

    same_stream = parent["stream_hash"] == change["stream_hash"]
    same_evals = parent["acq.inner_evals"] == change["acq.inner_evals"]
    gain = parent[metric] / change[metric]
    print(f"{label}: stream_hash {parent['stream_hash']} -> "
          f"{change['stream_hash']} [{'ok' if same_stream else 'FAIL'}]")
    print(f"{label}: acq.inner_evals {parent['acq.inner_evals']} -> "
          f"{change['acq.inner_evals']} [{'ok' if same_evals else 'FAIL'}]")
    print(f"{label}: {metric} {parent[metric]:.4g} -> {change[metric]:.4g}"
          f" = {gain:.2f}x (need >= {min_gain:.2f}x) "
          f"[{'ok' if gain >= min_gain else 'FAIL'}]")
    for field in INFORMATION:
        if field != metric:
            print(f"{label}: {field} {parent[field]:.4g} -> "
                  f"{change[field]:.4g} (information)")
    if not same_stream:
        failures.append(f"{label}: the change proposed a different stream")
    if not same_evals:
        failures.append(f"{label}: acq.inner_evals changed")
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
