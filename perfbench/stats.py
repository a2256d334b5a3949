"""Order statistics shared by the benchmark's reports."""

from __future__ import annotations

import statistics


def median(values) -> float:
    """Median of ``values`` (0 when empty)."""
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
