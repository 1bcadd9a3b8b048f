#!/usr/bin/env python3
"""GP hot-path performance trend gate.

Reads a google-benchmark JSON file produced by bench/micro_gp (a fresh
run, and optionally the committed BENCH_micro_gp.json baseline) and
asserts three scaling contracts of the GP hot path:

- the zero-copy hallucination overlay: BM_HallucinateOverlay/2048 must be
  at least MIN_OVERLAY_SPEEDUP x faster than BM_HallucinateDeepCopy/2048
  (k = 8 pending points — the penalized-proposal hot path);
- the batched paired posterior query: BM_PosteriorBatched/256 (32 points
  per call through one kernel cross block and one multi-right-hand-side
  forward solve) must be at least MIN_BATCHED_SPEEDUP x faster than
  BM_PosteriorSplit/256 (a full predict() on the base model plus one on
  its k = 14 overlay, per point — what acquisition screening used to
  cost);
- the fused LML gradient: BM_GpLmlGradient/256 (one pass over the lower
  triangle with a per-pair value-and-gradient call, and the tiled
  inverse) must be at least MIN_GRADIENT_SPEEDUP x faster than
  BM_LmlGradientDense/256 (the dense reference the bench keeps: serial
  inverse, n x n W and d + 1 Gram-gradient matrices).

The check is a WITHIN-RUN ratio, so it holds on any machine and any
sane compiler — absolute times are never compared against the committed
baseline. When a baseline file is supplied, the same invariant is
re-checked on it (a committed baseline that violates its own contract is
stale) and the fresh/baseline ratio drift is reported for information
only.

Usage:
    bench_gp_trend.py FRESH.json [BASELINE.json]

Stdlib only, so the CI job needs no pip installs.
"""

import json
import sys

MIN_OVERLAY_SPEEDUP = 5.0
MIN_BATCHED_SPEEDUP = 1.8
MIN_GRADIENT_SPEEDUP = 2.5

# (label, numerator benchmark, denominator benchmark, min ratio)
INVARIANTS = [
    (
        "overlay >= {:.0f}x deep-copy at n=2048, k=8".format(MIN_OVERLAY_SPEEDUP),
        "BM_HallucinateDeepCopy/2048",
        "BM_HallucinateOverlay/2048",
        MIN_OVERLAY_SPEEDUP,
    ),
    (
        "batched paired query >= {:.1f}x split at n=256, k=14".format(
            MIN_BATCHED_SPEEDUP),
        "BM_PosteriorSplit/256",
        "BM_PosteriorBatched/256",
        MIN_BATCHED_SPEEDUP,
    ),
    (
        "fused LML gradient >= {:.1f}x dense at n=256".format(
            MIN_GRADIENT_SPEEDUP),
        "BM_LmlGradientDense/256",
        "BM_GpLmlGradient/256",
        MIN_GRADIENT_SPEEDUP,
    ),
]


def load_times(path):
    """Map benchmark name -> real_time in nanoseconds."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    times = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            raise SystemExit(f"{path}: unknown time_unit {unit!r}")
        times[bench["name"]] = float(bench["real_time"]) * scale
    return times


def check(path, times):
    failures = []
    for label, numerator, denominator, min_ratio in INVARIANTS:
        missing = [n for n in (numerator, denominator) if n not in times]
        if missing:
            failures.append(f"{label}: missing benchmarks {missing}")
            continue
        ratio = times[numerator] / times[denominator]
        verdict = "ok" if ratio >= min_ratio else "FAIL"
        print(
            f"{path}: {label}: {numerator} / {denominator} = "
            f"{ratio:.2f} (need >= {min_ratio:.2f}) [{verdict}]"
        )
        if ratio < min_ratio:
            failures.append(f"{label}: ratio {ratio:.2f} < {min_ratio:.2f}")
    return failures


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2

    fresh_path = argv[1]
    fresh = load_times(fresh_path)
    failures = check(fresh_path, fresh)

    if len(argv) == 3:
        base_path = argv[2]
        base = load_times(base_path)
        failures += check(base_path, base)
        # Informational drift report: flag, but do not fail on, absolute
        # changes — CI machines differ from whoever committed the baseline.
        common = sorted(set(fresh) & set(base))
        for name in common:
            drift = fresh[name] / base[name]
            if drift > 2.0 or drift < 0.5:
                print(
                    f"note: {name} drifted {drift:.2f}x vs baseline "
                    f"({base[name] / 1e6:.3f} ms -> {fresh[name] / 1e6:.3f} ms)"
                )

    if failures:
        print("bench_gp_trend: FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("bench_gp_trend: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
