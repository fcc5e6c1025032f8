"""Order statistics for decision latencies."""

from __future__ import annotations

# Percentiles the tail may be reported at.  Wide rungs keep the reported
# percentile the same from run to run while the sample count moves a little.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10
# The least sample count that has a tail: MIN_BEYOND beyond the median.
MIN_SAMPLES = 2 * MIN_BEYOND


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    # 100 - 99.9 is not exact in binary, hence the tolerance.
    fits = [pct for pct in TAIL_LADDER
            if count * (100.0 - pct) >= 100 * MIN_BEYOND - 1e-6]
    if not fits:
        raise ValueError(f"{count} samples leave fewer than {MIN_BEYOND} "
                         f"beyond the median; need at least {MIN_SAMPLES}")
    return fits[-1]
