"""Sample statistics: quartiles, tail percentile, spread, estimators."""
from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    # Below four samples the method extrapolates past the data.
    return max(q1, min(values)), q2, min(q3, max(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; None below 40 samples (p75 needs 40)."""
    n = len(values)
    for pct in _TAILS:
        # round() because 200 * (1 - 0.95) is 9.99... in floats.
        if round(n * (1.0 - pct / 100.0), 6) >= MIN_BEYOND:
            return pct, percentile(values, pct)
    return None


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def estimate(values: Sequence[float], stat: str) -> float:
    """Reduce one run's samples to its reported value."""
    if stat == "median":
        return statistics.median(values)
    if stat == "p95":
        return percentile(values, 95.0)
    raise ValueError(f"unknown estimator {stat!r}")


def summarize(values: Sequence[float], stat: str) -> Dict[str, object]:
    """The value plus what is printed next to it."""
    q1, q2, q3 = quartiles(values)
    doc: Dict[str, object] = {
        "value": estimate(values, stat),
        "stat": stat,
        "n": len(values),
        "median": q2,
        "q1": q1,
        "q3": q3,
    }
    top = tail(values)
    if top is not None:
        doc["tail"] = {"percentile": top[0], "value": top[1]}
    return doc
