"""Fixed-memory streaming quantile histograms.

A :class:`QuantileHistogram` summarizes a stream of non-negative
observations (latencies, sizes) into logarithmically spaced buckets so
that any quantile can be answered later with bounded relative error —
the answer is exact up to one bucket width, i.e. within a factor of
``growth`` (default 1.05 → ≤5% relative error) of the true order
statistic.  Memory is O(occupied buckets), independent of the number of
observations, which is what lets per-signature latency distributions
ride inside :class:`~repro.service.stats.SignatureStats` snapshots and
cross process boundaries.

Design constraints:

* **Mergeable.**  ``merge`` adds another histogram bucket-by-bucket, so
  per-worker distributions combine into honest fleet-wide percentiles
  (``ServiceStats.merge``) — something moving averages and raw
  min/max/mean can't do.
* **Lock-free and picklable.**  The histogram is plain data (ints and a
  dict); owners that need thread safety (``metrics.Histogram``,
  ``PartitionCache``) guard it with their own lock.  That keeps it safe
  for ``copy.deepcopy`` (``dataclasses.asdict``) and for the pickle
  channel between sharded-serving processes.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Default geometric bucket growth: each bucket's upper bound is 5%
#: above the previous one, bounding quantile error to 5% relative.
DEFAULT_GROWTH = 1.05

#: Observations below this are clamped into the zero bucket (index -1).
#: 1ns is far below anything a perf_counter-based latency can resolve.
_TINY = 1e-9


class QuantileHistogram:
    """Log-bucketed streaming histogram with mergeable quantiles.

    ::

        hist = QuantileHistogram()
        for latency in stream:
            hist.observe(latency)
        hist.quantile(0.95)   # within one bucket width of true p95
        hist.merge(other)     # fleet aggregation
    """

    __slots__ = ("growth", "_log_growth", "count", "sum", "min", "max",
                 "buckets")

    def __init__(self, growth: float = DEFAULT_GROWTH) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1.0, got {growth}")
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: bucket index -> observation count.  Index ``i`` covers values in
        #: ``(growth**i, growth**(i+1)]``; index -2**31 is the zero bucket.
        self.buckets: Dict[int, int] = {}

    _ZERO_BUCKET = -(2 ** 31)

    def _index(self, value: float) -> int:
        if value <= _TINY:
            return self._ZERO_BUCKET
        # ceil(log_g(v)) - 1 == the i with g**i < v <= g**(i+1)
        return math.ceil(math.log(value) / self._log_growth) - 1

    def _upper(self, index: int) -> float:
        if index == self._ZERO_BUCKET:
            return 0.0
        return self.growth ** (index + 1)

    # -- recording ------------------------------------------------------------

    def observe(self, value: float, count: int = 1) -> None:
        value = float(value)
        if count <= 0:
            return
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += count
        self.sum += value * count
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "QuantileHistogram") -> "QuantileHistogram":
        """Fold ``other`` into this histogram; returns self.

        Growth factors must match — merging differently-bucketed
        histograms would silently degrade the error bound.
        """
        if not math.isclose(self.growth, other.growth):
            raise ValueError(
                f"cannot merge histograms with growth {self.growth} "
                f"and {other.growth}"
            )
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(
                self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(
                self.max, other.max)
        return self

    def copy(self) -> "QuantileHistogram":
        clone = QuantileHistogram(self.growth)
        clone.count = self.count
        clone.sum = self.sum
        clone.min = self.min
        clone.max = self.max
        clone.buckets = dict(self.buckets)
        return clone

    # -- queries --------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Value at quantile ``q`` in [0, 1], or None when empty.

        Walks the occupied buckets in value order and returns the upper
        bound of the bucket holding the q-th observation, clamped to the
        observed min/max so small samples stay sane.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return None
        rank = q * self.count
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                value = self._upper(index)
                if self.min is not None:
                    value = max(value, self.min) if index != \
                        self._ZERO_BUCKET else value
                if self.max is not None:
                    value = min(value, self.max)
                return value
        return self.max

    def quantiles(self, qs: Iterable[float]) -> List[Optional[float]]:
        return [self.quantile(q) for q in qs]

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (bucket keys stringified); see ``from_dict``."""
        return {
            "growth": self.growth,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): v for k, v in self.buckets.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QuantileHistogram":
        hist = cls(data.get("growth", DEFAULT_GROWTH))
        hist.count = int(data.get("count", 0))
        hist.sum = float(data.get("sum", 0.0))
        hist.min = data.get("min")
        hist.max = data.get("max")
        hist.buckets = {int(k): int(v)
                        for k, v in data.get("buckets", {}).items()}
        return hist

    def summary(self, scale: float = 1.0, digits: int = 4) -> Dict[str, Any]:
        """The p50/p95/p99 block bench documents embed (values * scale)."""

        def _scaled(value: Optional[float]) -> float:
            return round(float(value) * scale, digits) if value is not None \
                else 0.0

        return {
            "count": self.count,
            "mean": round(self.mean * scale, digits),
            "min": _scaled(self.min),
            "max": _scaled(self.max),
            "p50": _scaled(self.quantile(0.50)),
            "p95": _scaled(self.quantile(0.95)),
            "p99": _scaled(self.quantile(0.99)),
        }

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileHistogram(count={self.count}, mean={self.mean:.6g}, "
            f"p95={self.quantile(0.95)}, buckets={len(self.buckets)})"
        )


def from_values(
    values: Iterable[float], growth: float = DEFAULT_GROWTH
) -> QuantileHistogram:
    """Build a histogram from an in-memory list (bench latency sweeps)."""
    hist = QuantileHistogram(growth)
    for value in values:
        hist.observe(value)
    return hist
