"""Selectivity estimation and page-access models.

Selectivity estimators from the paper:

* **Uniform estimates** (§2.3): the generic cost model derives the
  selectivity of a restriction from ``Min``, ``Max`` and ``CountDistinct``
  of the restricted attribute — ``1 / CountDistinct`` for equality and
  linear interpolation over ``[Min, Max]`` for ranges.  Join selectivity is
  ``1 / max(CountDistinct(A), CountDistinct(B))`` (the paper's
  ``1/Min(...)`` denotes the smaller *cardinality factor*, i.e. the usual
  System-R estimate).
* **Histograms** (§3.3.2): the ad-hoc ``selectivity(A, V)`` function a
  wrapper implementor may export "could handle, for example, histogram
  statistics [IP95, PIHS96]".  :class:`EquiWidthHistogram` and
  :class:`EquiDepthHistogram` implement the two classical shapes.
* **Yao's formula** (§5, [Yao77]) is not computed here: the object
  store's wrapper exports its exponential approximation as CDL text (the
  Figure 13 rule), and the mediator evaluates it like any other rule.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from repro.core.statistics import AttributeStats, Constant

# ---------------------------------------------------------------------------
# Uniform estimates (generic cost model, §2.3)
# ---------------------------------------------------------------------------


def equality_selectivity(stats: AttributeStats) -> float:
    """Selectivity of ``A = v`` under uniformity: ``1 / CountDistinct``.

    Falls back to 0.1 (the classical System-R default) when the distinct
    count is unknown, mirroring "standard values are given, as usual" (§6).
    """
    if not stats.count_distinct:
        return 0.1
    return 1.0 / stats.count_distinct


def range_selectivity(
    stats: AttributeStats,
    low: Constant | float | str | None,
    high: Constant | float | str | None,
    *,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> float:
    """Selectivity of ``low <= A <= high`` by linear interpolation.

    Either bound may be ``None`` (one-sided range).  When the attribute's
    Min/Max are unknown the System-R default of 1/3 is returned.  The
    result is clamped to ``[0, 1]``.
    """
    if not stats.has_range:
        return 1.0 / 3.0
    minimum = stats.min_value.as_number()  # type: ignore[union-attr]
    maximum = stats.max_value.as_number()  # type: ignore[union-attr]
    width = maximum - minimum
    if width <= 0:
        # Single-valued domain: any compatible range keeps everything.
        return 1.0
    low_n = minimum if low is None else Constant(low).as_number()
    high_n = maximum if high is None else Constant(high).as_number()
    low_n = max(low_n, minimum)
    high_n = min(high_n, maximum)
    if high_n < low_n:
        return 0.0
    fraction = (high_n - low_n) / width
    # Half-open bounds shave off one distinct value's worth of mass.
    if stats.count_distinct:
        step = 1.0 / stats.count_distinct
        if not low_inclusive:
            fraction -= step
        if not high_inclusive:
            fraction -= step
    return min(1.0, max(0.0, fraction))


def inequality_selectivity(stats: AttributeStats) -> float:
    """Selectivity of ``A != v``: complement of the equality estimate."""
    return max(0.0, 1.0 - equality_selectivity(stats))


def join_selectivity(left: AttributeStats, right: AttributeStats) -> float:
    """Equi-join selectivity ``1 / max(d(A), d(B))`` (§2.3).

    With unknown distinct counts on both sides, falls back to 0.01.
    """
    distinct_counts = [
        stats.count_distinct
        for stats in (left, right)
        if stats.count_distinct
    ]
    if not distinct_counts:
        return 0.01
    return 1.0 / max(distinct_counts)


# ---------------------------------------------------------------------------
# Histograms (§3.3.2 ad-hoc selectivity functions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket over ``[low, high)`` holding ``count`` values."""

    low: float
    high: float
    count: int
    distinct: int = 1

    @property
    def width(self) -> float:
        return self.high - self.low


class _Histogram:
    """Shared estimation logic over a list of sorted buckets."""

    def __init__(self, buckets: Sequence[Bucket], total: int) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = list(buckets)
        self.total = total

    def selectivity_eq(self, value: float) -> float:
        """Estimate ``P(A = value)`` assuming uniformity inside a bucket.

        Heavily skewed data produces zero-width buckets (all copies of one
        value); every bucket whose range contains the value contributes.
        """
        if self.total == 0:
            return 0.0
        mass = 0.0
        for bucket in self.buckets:
            if bucket.width == 0:
                if value == bucket.low:
                    mass += bucket.count
            elif bucket.low <= value < bucket.high or (
                value == bucket.high and bucket is self.buckets[-1]
            ):
                mass += bucket.count / max(1, bucket.distinct)
        return min(1.0, mass / self.total)

    def selectivity_range(
        self, low: float | None, high: float | None
    ) -> float:
        """Estimate ``P(low <= A <= high)`` with partial-bucket scaling."""
        if self.total == 0:
            return 0.0
        low_v = self.buckets[0].low if low is None else low
        high_v = self.buckets[-1].high if high is None else high
        if high_v < low_v:
            return 0.0
        covered = 0.0
        for bucket in self.buckets:
            if bucket.width == 0:
                # Degenerate single-value bucket: count it whenever its
                # value falls inside the queried range.
                if low_v <= bucket.low <= high_v:
                    covered += bucket.count
                continue
            overlap_low = max(bucket.low, low_v)
            overlap_high = min(bucket.high, high_v)
            if overlap_high <= overlap_low:
                continue
            covered += bucket.count * (overlap_high - overlap_low) / bucket.width
        return min(1.0, covered / self.total)


class EquiWidthHistogram(_Histogram):
    """Histogram whose buckets all span the same value range [IP95]."""

    @classmethod
    def build(
        cls, values: Sequence[float], bucket_count: int = 10
    ) -> "EquiWidthHistogram":
        if not values:
            raise ValueError("cannot build a histogram from no values")
        if bucket_count < 1:
            raise ValueError("bucket_count must be >= 1")
        ordered = sorted(float(v) for v in values)
        low, high = ordered[0], ordered[-1]
        if high == low:
            return cls([Bucket(low, high, len(ordered), 1)], len(ordered))
        width = (high - low) / bucket_count
        buckets: list[Bucket] = []
        for index in range(bucket_count):
            b_low = low + index * width
            b_high = high if index == bucket_count - 1 else b_low + width
            left = bisect_left(ordered, b_low)
            right = (
                len(ordered)
                if index == bucket_count - 1
                else bisect_left(ordered, b_high)
            )
            members = ordered[left:right]
            buckets.append(
                Bucket(b_low, b_high, len(members), max(1, len(set(members))))
            )
        return cls(buckets, len(ordered))


class EquiDepthHistogram(_Histogram):
    """Histogram whose buckets all hold the same number of values [PIHS96]."""

    @classmethod
    def build(
        cls, values: Sequence[float], bucket_count: int = 10
    ) -> "EquiDepthHistogram":
        if not values:
            raise ValueError("cannot build a histogram from no values")
        if bucket_count < 1:
            raise ValueError("bucket_count must be >= 1")
        ordered = sorted(float(v) for v in values)
        total = len(ordered)
        bucket_count = min(bucket_count, total)
        depth = total / bucket_count
        buckets: list[Bucket] = []
        for index in range(bucket_count):
            left = round(index * depth)
            right = total if index == bucket_count - 1 else round((index + 1) * depth)
            members = ordered[left:right]
            if not members:
                continue
            b_low = members[0]
            b_high = ordered[right] if right < total else members[-1]
            buckets.append(
                Bucket(b_low, b_high, len(members), max(1, len(set(members))))
            )
        return cls(buckets, total)
