"""Pure helpers behind perfbench/run.py: percentiles, spreads, ratios,
output checks and span attribution. Kept free of I/O so that
test_metrics.py can exercise each rule on hand-made inputs."""

import math
import statistics
import struct

# Percentile levels a timing's tail may be reported at, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0)
# A reported percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10

# Trace phase -> layer. init_design is a container span around the whole
# initial design and objective_eval runs on the executor's clock (virtual
# seconds on the virtual executor, SUGGEST-to-OBSERVE turnaround on the
# server); neither is ever added to a wall-clock sum.
PHASE_LAYER = {
    "acq_maximize": "acq",
    "model_fit": "gp",
    "hyper_refit": "gp",
    "checkpoint": "io",
    "executor_wait": "bo",
}
CHILD_LAYERS = ("acq", "gp", "io")


def nearest_rank(n, level):
    """1-based nearest rank of percentile `level` among n samples."""
    return max(1, math.ceil(level / 100.0 * n))


def tail_level(n):
    """Highest level in TAIL_LEVELS that leaves MIN_BEYOND samples above
    it, or None when n is too small for any."""
    for level in TAIL_LEVELS:
        if n - nearest_rank(n, level) >= MIN_BEYOND:
            return level
    return None


def percentile(values, level):
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), level) - 1]


def tail(values):
    """(level, value) of the highest supportable percentile."""
    level = tail_level(len(values))
    if level is None:
        raise ValueError(f"{len(values)} samples support no tail percentile")
    return level, percentile(values, level)


def quartile_spread(values):
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def ratio_text(num_name, num, den_name, den, unit):
    """A ratio stated with its base, e.g.
    'acq.maximize_s / run_wall_s = 6.9 s / 8.8 s = 0.786'."""
    value = num / den if den else 0.0
    return value, (f"{num_name} / {den_name} = {num:.4g} {unit} / "
                   f"{den:.4g} {unit} = {value:.3f}")


def stream_hash(xs):
    """FNV-1a 64 over the IEEE-754 bytes of every coordinate, in proposal
    order: equal hashes mean bit-identical proposal streams."""
    h = 0xCBF29CE484222325
    for x in xs:
        for v in x:
            for byte in struct.pack("<d", v):
                h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def check_bo_stream(xs, ys, lower, upper, budget, best_y):
    """Output checks of one BO run; returns the list of failures."""
    failures = []
    if len(xs) != budget:
        failures.append(f"{len(xs)} proposals for a budget of {budget}")
    for i, x in enumerate(xs):
        if len(x) != len(lower) or any(
                not lo <= v <= hi for v, lo, hi in zip(x, lower, upper)):
            failures.append(f"proposal {i} outside the design box")
            break
    seen = set()
    for i, x in enumerate(xs):
        key = tuple(x)
        if key in seen:
            failures.append(f"proposal {i} exactly duplicates an earlier one")
            break
        seen.add(key)
    finite = [y for y in ys if y is not None and math.isfinite(y)]
    if len(finite) != len(ys):
        failures.append("non-finite objective value")
    elif not finite or max(finite) != best_y:
        failures.append("reported best differs from the best observed value")
    return failures


def check_serve(verify, errors):
    """Output checks of the serve workload; returns the list of failures.
    The only ERR reply a client may see is budget exhaustion."""
    failures = []
    if verify["mismatched"]:
        failures.append(f"{verify['mismatched']} of {verify['sessions']} "
                        "session streams differ from standalone runs")
    bad = [e for e in errors if "budget exhausted" not in e]
    if bad:
        failures.append(f"{len(bad)} error replies, first: {bad[0]}")
    return failures


def merge(intervals):
    """Union of (start, end) intervals as sorted disjoint intervals."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def covered(union, a, b):
    """Length of [a, b] covered by a merged interval list."""
    total = 0.0
    for s, e in union:
        if e <= a:
            continue
        if s >= b:
            break
        total += min(e, b) - max(s, a)
    return total


def span_totals(spans, window=None):
    """Seconds per phase, for spans ending inside `window` when given."""
    totals = {}
    for phase, start, end in spans:
        if window and not window[0] <= end <= window[1]:
            continue
        totals[phase] = totals.get(phase, 0.0) + (end - start)
    return totals


def gap_self(gaps, spans):
    """Self time of the bo layer: each gap (one proposal's observe +
    suggest, between two objective callbacks) minus the part the acq, gp
    and io spans cover. Returns (self seconds, gap seconds)."""
    union = merge([(s, e) for phase, s, e in spans
                   if PHASE_LAYER.get(phase) in CHILD_LAYERS])
    total = sum(b - a for a, b in gaps)
    attributed = sum(covered(union, a, b) for a, b in gaps)
    return total - attributed, total
