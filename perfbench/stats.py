"""Small statistics helpers with the benchmark's reporting rules."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, q: float, misses: int = 0) -> float:
    """Nearest-rank ``q``-th percentile, counting ``misses`` as +inf.

    A miss is an operation that failed or was aborted: it missed every
    latency limit, so it sorts after every completed one.  Raises
    :class:`TooFewSamples` unless at least :data:`MIN_BEYOND` of the
    ``len(values) + misses`` samples rank beyond the percentile.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    total = len(values) + misses
    rank = math.ceil(q / 100.0 * total)
    if total - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {total} samples has {total - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    ordered = sorted(values)
    return ordered[rank - 1] if rank <= len(ordered) else math.inf


def median_quartiles(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) of at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3
