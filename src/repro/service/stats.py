"""Serving statistics: what the cache and sessions did.

`ServiceStats` is an immutable snapshot — safe to take while other threads
keep serving — with per-signature detail (compile time, execute counts,
residency) plus the global hit/miss/eviction/in-flight counters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..observability.quantile import QuantileHistogram
from ..observability.report import format_table


@dataclass(frozen=True)
class SignatureStats:
    """Lifetime record of one compiled-partition signature."""

    signature: str
    label: str
    nbytes: int
    compiles: int
    compile_seconds: float
    executes: int
    resident: bool
    #: Warm executions recorded in :attr:`latency_hist`.
    latency_samples: int = 0
    #: Full per-execution latency distribution (seconds), fed by
    #: ``PartitionCache.note_execute``.  Log-bucketed and mergeable, so
    #: fleet-wide p50/p95/p99 survive :meth:`ServiceStats.merge` — means
    #: and min/max alone cannot give honest fleet percentiles.
    latency_hist: Optional[QuantileHistogram] = None

    @property
    def short_signature(self) -> str:
        return self.signature[:12]

    def latency_quantile_seconds(self, q: float) -> Optional[float]:
        """Latency quantile in seconds, or None without a distribution."""
        if self.latency_hist is None or not self.latency_hist.count:
            return None
        return self.latency_hist.quantile(q)

    @property
    def latency_p95_seconds(self) -> Optional[float]:
        """95th-percentile warm execute latency in seconds, or None."""
        return self.latency_quantile_seconds(0.95)

    @property
    def latency_p50_ms(self) -> Optional[float]:
        value = self.latency_quantile_seconds(0.50)
        return value * 1e3 if value is not None else None

    @property
    def latency_p95_ms(self) -> Optional[float]:
        value = self.latency_quantile_seconds(0.95)
        return value * 1e3 if value is not None else None

    @property
    def latency_p99_ms(self) -> Optional[float]:
        value = self.latency_quantile_seconds(0.99)
        return value * 1e3 if value is not None else None

    def to_dict(self) -> Dict[str, Any]:
        result = asdict(self)
        result["latency_hist"] = (
            self.latency_hist.to_dict()
            if self.latency_hist is not None
            else None
        )
        result["latency_p50_ms"] = self.latency_p50_ms
        result["latency_p95_ms"] = self.latency_p95_ms
        result["latency_p99_ms"] = self.latency_p99_ms
        return result


@dataclass(frozen=True)
class ServiceStats:
    """Snapshot of a :class:`~repro.service.cache.PartitionCache`."""

    compiles: int
    hits: int
    misses: int
    evictions: int
    in_flight: int
    resident_bytes: int
    capacity_bytes: Optional[int]
    signatures: Tuple[SignatureStats, ...] = field(default_factory=tuple)

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def executes(self) -> int:
        """Partition executions across every signature."""
        return sum(sig.executes for sig in self.signatures)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a fresh compilation."""
        total = self.requests
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready dump (derived rates included); exporters and
        benches consume this instead of hand-rolling field access."""
        result = asdict(self)
        result["requests"] = self.requests
        result["hit_rate"] = self.hit_rate
        result["signatures"] = [sig.to_dict() for sig in self.signatures]
        return result

    @staticmethod
    def merge(parts: Iterable["ServiceStats"]) -> "ServiceStats":
        """Aggregate per-worker snapshots into one fleet-wide table.

        Counters sum; capacity sums when every part is bounded (one
        unbounded cache makes the fleet unbounded); signature records are
        merged by signature — in the sharded tier a signature lives in
        exactly one worker, but the merge also tolerates overlap (e.g.
        after a crash re-homed a partition) by summing compile/execute
        counts and keeping the largest residency charge.
        """
        parts = list(parts)
        if not parts:
            return ServiceStats(
                compiles=0,
                hits=0,
                misses=0,
                evictions=0,
                in_flight=0,
                resident_bytes=0,
                capacity_bytes=None,
            )
        capacity: Optional[int] = 0
        merged_sigs: Dict[str, SignatureStats] = {}
        for part in parts:
            if part.capacity_bytes is None or capacity is None:
                capacity = None
            else:
                capacity += part.capacity_bytes
            for sig in part.signatures:
                seen = merged_sigs.get(sig.signature)
                if seen is None:
                    merged_sigs[sig.signature] = sig
                    continue
                if seen.latency_hist is not None and \
                        sig.latency_hist is not None:
                    hist = seen.latency_hist.copy().merge(sig.latency_hist)
                else:
                    hist = seen.latency_hist or sig.latency_hist
                merged_sigs[sig.signature] = SignatureStats(
                    signature=sig.signature,
                    label=seen.label or sig.label,
                    nbytes=max(seen.nbytes, sig.nbytes),
                    compiles=seen.compiles + sig.compiles,
                    compile_seconds=(
                        seen.compile_seconds + sig.compile_seconds
                    ),
                    executes=seen.executes + sig.executes,
                    resident=seen.resident or sig.resident,
                    latency_samples=(
                        seen.latency_samples + sig.latency_samples
                    ),
                    latency_hist=hist,
                )
        return ServiceStats(
            compiles=sum(p.compiles for p in parts),
            hits=sum(p.hits for p in parts),
            misses=sum(p.misses for p in parts),
            evictions=sum(p.evictions for p in parts),
            in_flight=sum(p.in_flight for p in parts),
            resident_bytes=sum(p.resident_bytes for p in parts),
            capacity_bytes=capacity,
            signatures=tuple(
                sorted(
                    merged_sigs.values(), key=lambda s: s.signature
                )
            ),
        )


def format_stats(
    stats: ServiceStats,
    workers: Optional[Mapping[str, ServiceStats]] = None,
) -> str:
    """Human-readable ServiceStats table (printed by ``tools/bench.py``).

    ``workers`` adds a per-worker breakdown under the fleet-wide table —
    the sharded tier passes its per-worker snapshots here so compile
    placement and load per process are visible at a glance.
    """
    lines: List[str] = []
    capacity = (
        f"{stats.capacity_bytes}" if stats.capacity_bytes is not None
        else "unbounded"
    )
    lines.append("ServiceStats")
    lines.append(
        f"  requests={stats.requests} hits={stats.hits} "
        f"misses={stats.misses} hit_rate={stats.hit_rate:.1%}"
    )
    lines.append(
        f"  compiles={stats.compiles} evictions={stats.evictions} "
        f"in_flight={stats.in_flight}"
    )
    lines.append(
        f"  resident_bytes={stats.resident_bytes} capacity={capacity}"
    )
    if stats.signatures:
        lines.append(
            format_table(
                [
                    "signature",
                    "label",
                    "bytes",
                    "compiles",
                    "compile_s",
                    "executes",
                    "p95_ms",
                    "resident",
                ],
                [
                    (
                        sig.short_signature,
                        sig.label[:24],
                        sig.nbytes,
                        sig.compiles,
                        sig.compile_seconds,
                        sig.executes,
                        f"{sig.latency_p95_ms:.2f}"
                        if sig.latency_p95_ms is not None
                        else "-",
                        "yes" if sig.resident else "no",
                    )
                    for sig in stats.signatures
                ],
            )
        )
    if workers:
        lines.append("  per-worker:")
        lines.append(
            format_table(
                [
                    "worker",
                    "requests",
                    "hit_rate",
                    "compiles",
                    "partitions",
                    "bytes",
                ],
                [
                    (
                        worker,
                        ws.requests,
                        f"{ws.hit_rate:.0%}",
                        ws.compiles,
                        sum(1 for s in ws.signatures if s.resident),
                        ws.resident_bytes,
                    )
                    for worker, ws in sorted(workers.items())
                ],
            )
        )
    return "\n".join(lines)
