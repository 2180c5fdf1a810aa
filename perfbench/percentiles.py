"""The tail percentile of op timings: the highest one that is backed by at
least ten samples above it."""

from typing import NamedTuple, Sequence

# A tail value must have this many samples above it to be worth reporting.
MIN_ABOVE = 10
# The fewest samples whose tail order statistic is not below the median.
MIN_SAMPLES = 2 * MIN_ABOVE + 1


class Tail(NamedTuple):
    value: float
    percentile: float  # share of samples at or below `value`, in percent
    above: int  # samples above `value` by rank
    samples: int


def tail(values: Sequence[float]) -> Tail:
    """The highest order statistic with at least MIN_ABOVE samples above it.

    Needs MIN_SAMPLES values, so that the tail is never below the median.
    """
    n = len(values)
    if n < MIN_SAMPLES:
        raise ValueError(f"a tail needs at least {MIN_SAMPLES} samples, "
                         f"got {n}")
    k = n - MIN_ABOVE - 1
    return Tail(value=sorted(values)[k], percentile=100.0 * (k + 1) / n,
                above=n - k - 1, samples=n)
