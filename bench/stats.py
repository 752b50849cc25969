"""Summary statistics shared by the benchmark runner and its collector."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

# Tail percentiles in tenths of a percent, so the ten-beyond rule is exact
# integer arithmetic.  The steps are a decade apart: the choice stays the
# same while the number of units in a run varies by less than a factor of
# ten, so machine-speed drift between runs does not flip it.
TAIL_LADDER_PERMILLE = (500, 900, 990, 999)
MIN_BEYOND = 10
# The tail is taken in windows of at least this many units.
TAIL_WINDOW_UNITS = 100


def percentile(values: Sequence[float], p: float) -> float:
    """Percentile ``p`` (0-100) with linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile that leaves at least MIN_BEYOND of n samples beyond it."""
    best = None
    for permille in TAIL_LADDER_PERMILLE:
        if n * (1000 - permille) >= MIN_BEYOND * 1000:
            best = permille / 10.0
    return best


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """(percentile, its value, samples strictly above it) by the ten-beyond rule."""
    p = tail_percentile(len(values))
    if p is None:
        raise ValueError(f"{len(values)} samples leave no percentile with {MIN_BEYOND} beyond it")
    value = percentile(values, p)
    return p, value, sum(1 for v in values if v > value)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def windows(n: int, parts: int, align: int = 1) -> list[tuple[int, int]]:
    """Bounds of up to ``parts`` consecutive windows over n items, each a whole number of ``align``-item groups."""
    groups = n // align
    parts = max(1, min(parts, groups))
    edges = [round(i * groups / parts) * align for i in range(parts + 1)]
    edges[-1] = n
    return list(zip(edges, edges[1:]))


def unit_metrics(units: list, align: int, split_median: bool) -> tuple[dict, dict]:
    """Throughput, median and tail latency of a run's units.

    Throughput is all trials over all unit time.  The tail is taken in
    windows of 100 to 199 consecutive units, whole cycles (``align`` units)
    each, one window when fewer fit, and the median window is reported:
    so it stays the 90th percentile however fast the program gets.
    """
    tail_parts = (len(units) // align) // -(-TAIL_WINDOW_UNITS // align)
    tails = [tail([u.seconds * 1e3 for u in units[a:b]]) for a, b in windows(len(units), tail_parts, align)]
    if split_median:
        # Two equal-sized populations (d=4 and d=3 campaigns) would put the
        # plain median in the gap between them; average the two medians.
        groups = sorted({u.group for u in units})
        p50 = statistics.mean(statistics.median(u.seconds * 1e3 for u in units if u.group == g) for g in groups)
    else:
        p50 = statistics.median(u.seconds * 1e3 for u in units)
    metrics = {
        "trials_per_s": sum(u.trials for u in units) / sum(u.seconds for u in units),
        "unit_p50_ms": p50,
        "unit_tail_ms": statistics.median(value for _, value, _ in tails),
    }
    facts = {
        "units": len(units),
        "timed_s": sum(u.seconds for u in units),
        "tail_percentile": tails[0][0],
        "tail_windows": len(tails),
        "tail_beyond_min": min(beyond for *_, beyond in tails),
    }
    return metrics, facts
