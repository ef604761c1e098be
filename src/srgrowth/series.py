"""Failure series: ordered failure times with cumulative defect counts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence


def _floats(values, name: str) -> tuple[float, ...]:
    # anything with more than one axis (an ndarray's ndim, say) is refused
    # before its rows could be read as values
    if getattr(values, "ndim", 1) != 1:
        raise ValueError(f"{name} must be one-dimensional")
    try:
        out = tuple(map(float, values))
    except TypeError:
        raise ValueError(f"{name} must be a one-dimensional sequence of numbers") from None
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{name} must be finite")
    return out


@dataclass(frozen=True, eq=False)
class FailureSeries:
    """Ordered failure times over an observation horizon.

    The times and counts are stored as tuples of floats; the fitting
    engine turns them into arrays where it needs them.

    Parameters
    ----------
    times:
        Nondecreasing, strictly positive failure times (fractional days).
    horizon:
        End of the observation period; at least ``max(times)``.
    label:
        Where the series came from (project name, release name, ...).
    counts:
        Cumulative defect count at each failure time.  When omitted the
        i-th failure carries count ``i``, which is the normal case for
        series built from issue timestamps.  Explicit counts exist so that
        synthetic curves sampled on a time grid can be fitted directly.
    """

    times: Sequence[float]
    horizon: float
    label: str = "series"
    counts: Sequence[float] | None = field(default=None)

    def __post_init__(self):
        t = _floats(self.times, "times")
        if not t:
            raise ValueError("times must be nonempty")
        if min(t) <= 0.0:
            raise ValueError("times must be strictly positive")
        if any(b < a for a, b in zip(t, t[1:])):
            raise ValueError("times must be nondecreasing")
        horizon = float(self.horizon)
        if not math.isfinite(horizon) or horizon < t[-1]:
            raise ValueError("horizon must be finite and cover max(times)")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "horizon", horizon)
        if self.counts is not None:
            c = _floats(self.counts, "counts")
            if len(c) != len(t):
                raise ValueError("counts must match times in length")
            object.__setattr__(self, "counts", c)

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def cumulative(self) -> tuple[float, ...]:
        """Cumulative counts; implicit 1..n when none were supplied."""
        if self.counts is None:
            return tuple(map(float, range(1, self.n + 1)))
        return self.counts
