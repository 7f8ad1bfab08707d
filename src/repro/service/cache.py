"""The compiled-partition cache: LRU with a byte budget and single-flight.

``PartitionCache.get_or_compile(signature, compile_fn)`` is the one entry
point.  Guarantees:

* **Single-flight** — N concurrent requests for the same signature run
  ``compile_fn`` exactly once; the N-1 followers block on the leader's
  in-flight record and share its result (counted as hits).
* **LRU byte budget** — each resident partition is charged its weight
  cache plus scratch arena; least-recently-used entries are evicted until
  the cache fits ``capacity_bytes`` (and ``max_entries``, if set).
  Evicted partitions are **closed** (their persistent thread pools shut
  down) so eviction actually reclaims resources, not just references.
* **Counters** — hits, misses, compiles, evictions, in-flight, and
  per-signature compile time / execute counts that survive eviction, all
  exposed as an immutable :class:`~repro.service.stats.ServiceStats`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..observability import get_registry
from ..observability.quantile import QuantileHistogram
from ..runtime.partition import CompiledPartition
from .stats import ServiceStats, SignatureStats


def partition_nbytes(partition: CompiledPartition) -> int:
    """Resident-set charge of one partition: weight cache + arena.

    Before initialization the weight cache is estimated from the lowered
    metadata (weights plus init-module outputs); after initialization the
    actual cached buffers are counted.
    """
    actual = partition.cached_bytes
    if actual:
        return actual + partition.arena_size
    lowered = partition.lowered
    cached = {t.id: t for t in lowered.weight_tensors}
    for tensor in lowered.cached_tensors:
        cached.setdefault(tensor.id, tensor)
    total = sum(t.size_bytes for t in cached.values())
    total += sum(a.nbytes for a in lowered.const_data.values())
    return total + partition.arena_size


@dataclass
class _Entry:
    partition: CompiledPartition
    nbytes: int


@dataclass
class _SigRecord:
    """Mutable per-signature lifetime stats (kept across evictions)."""

    label: str = ""
    nbytes: int = 0
    compiles: int = 0
    compile_seconds: float = 0.0
    executes: int = 0
    #: Exponentially-weighted moving average of per-execution latency
    #: (seconds) — the live signal the adaptive drift monitor reads.
    latency_ewma: float = 0.0
    latency_samples: int = 0
    #: Hot-swaps performed on this signature (adaptive retuning).
    swaps: int = 0
    #: Full latency distribution (log-bucketed, mergeable) — the source
    #: of the fleet-survivable p50/p95/p99 in :class:`SignatureStats`.
    latency_hist: QuantileHistogram = field(
        default_factory=QuantileHistogram
    )


class _InFlight:
    """One in-progress compilation other threads can wait on."""

    __slots__ = ("event", "partition", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.partition: Optional[CompiledPartition] = None
        self.error: Optional[BaseException] = None


class PartitionCache:
    """Thread-safe LRU cache of :class:`CompiledPartition` by signature."""

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        ewma_alpha: float = 0.2,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.capacity_bytes = capacity_bytes
        self.max_entries = max_entries
        #: Weight of the newest latency sample in the per-signature EWMA.
        self.ewma_alpha = ewma_alpha
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._inflight: Dict[str, _InFlight] = {}
        self._records: Dict[str, _SigRecord] = {}
        self._pinned: set = set()
        self._hits = 0
        self._misses = 0
        self._compiles = 0
        self._evictions = 0
        self._swaps = 0

    # -- lookup ---------------------------------------------------------------

    def get(self, signature: str) -> Optional[CompiledPartition]:
        """Peek: resident partition or None. Counts a hit when resident."""
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                return None
            self._entries.move_to_end(signature)
            self._hits += 1
        get_registry().counter("service.cache.hits").inc()
        return entry.partition

    def peek(self, signature: str) -> Optional[CompiledPartition]:
        """Resident partition or None, without touching hit counters or
        LRU order — the adaptive monitor's read path."""
        with self._lock:
            entry = self._entries.get(signature)
            return entry.partition if entry is not None else None

    def get_or_compile(
        self,
        signature: str,
        compile_fn: Callable[[], CompiledPartition],
        label: str = "",
    ) -> CompiledPartition:
        """Resident partition for ``signature``, compiling at most once.

        Concurrent callers with the same signature coalesce onto a single
        ``compile_fn`` invocation; followers block until the leader
        finishes and count as cache hits.  If the leader's compilation
        raises, every coalesced caller sees the same exception (and the
        next request starts a fresh attempt).
        """
        flight: Optional[_InFlight] = None
        with self._lock:
            entry = self._entries.get(signature)
            if entry is not None:
                self._entries.move_to_end(signature)
                self._hits += 1
                hit = True
            else:
                flight = self._inflight.get(signature)
                if flight is None:
                    leader_flight = _InFlight()
                    self._inflight[signature] = leader_flight
                    self._misses += 1
                    hit = False
                    record = self._records.setdefault(signature, _SigRecord())
                    if label:
                        record.label = label
                else:
                    self._hits += 1  # coalesced onto the in-flight compile
                    hit = True
        registry = get_registry()
        registry.counter(
            "service.cache.hits" if hit else "service.cache.misses"
        ).inc()
        if hit and flight is None and entry is not None:
            return entry.partition

        if flight is not None:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            assert flight.partition is not None
            return flight.partition

        # This thread is the leader: compile outside the lock.
        try:
            start = time.perf_counter()
            partition = compile_fn()
            elapsed = time.perf_counter() - start
        except BaseException as exc:
            leader_flight.error = exc
            with self._lock:
                self._inflight.pop(signature, None)
            leader_flight.event.set()
            raise
        leader_flight.partition = partition
        nbytes = partition_nbytes(partition)
        with self._lock:
            self._compiles += 1
            record = self._records.setdefault(signature, _SigRecord())
            record.compiles += 1
            record.compile_seconds += elapsed
            record.nbytes = nbytes
            if label:
                record.label = label
            self._entries[signature] = _Entry(partition, nbytes)
            self._entries.move_to_end(signature)
            self._inflight.pop(signature, None)
            evicted = self._evict_locked()
            resident = self._resident_bytes_locked()
            entries = len(self._entries)
        leader_flight.event.set()
        for victim in evicted:
            victim.close()
        registry.counter("service.cache.compiles").inc()
        registry.histogram("service.cache.compile_seconds").observe(elapsed)
        registry.gauge("service.cache.resident_bytes").set(resident)
        registry.gauge("service.cache.entries").set(entries)
        return partition

    def note_execute(
        self,
        signature: str,
        count: int = 1,
        *,
        latency_seconds: Optional[float] = None,
    ) -> None:
        """Record ``count`` executions against a signature.

        ``latency_seconds`` feeds the per-signature measured-latency EWMA
        (weight :attr:`ewma_alpha` on the newest sample) that the adaptive
        drift monitor compares against the cost model's expectation.  A
        serving signature is shape-polymorphic, so its samples mix every
        batch size the traffic carried: the EWMA and the distribution
        track the traffic mix as much as the partition.  Callers pass ``None``
        for an execute that paid a partition's one-time build and weight
        init: it still counts as an execute, but not as a latency sample.
        """
        with self._lock:
            record = self._records.setdefault(signature, _SigRecord())
            record.executes += count
            if latency_seconds is not None:
                if record.latency_samples == 0:
                    record.latency_ewma = latency_seconds
                else:
                    alpha = self.ewma_alpha
                    record.latency_ewma += alpha * (
                        latency_seconds - record.latency_ewma
                    )
                record.latency_samples += 1
                record.latency_hist.observe(latency_seconds)

    # -- hot swap (adaptive retuning) -----------------------------------------

    def swap(
        self,
        signature: str,
        partition: CompiledPartition,
        label: str = "",
    ) -> Optional[CompiledPartition]:
        """Atomically replace the resident partition for ``signature``.

        Returns the displaced partition (the caller owns closing it once
        no request can still be holding it — ``CompiledPartition.close``
        is safe against in-flight executes), or ``None`` when the
        signature is not resident, in which case nothing changes.  The
        entry keeps its LRU position; its byte charge is re-measured from
        the incoming partition.  Concurrent ``get``/``get_or_compile``
        callers see either the old or the new partition, never a
        half-swapped state.
        """
        nbytes = partition_nbytes(partition)
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                return None
            displaced = entry.partition
            self._entries[signature] = _Entry(partition, nbytes)
            self._swaps += 1
            record = self._records.setdefault(signature, _SigRecord())
            record.nbytes = nbytes
            record.swaps += 1
            if label:
                record.label = label
            evicted = self._evict_locked()
            resident = self._resident_bytes_locked()
        for victim in evicted:
            victim.close()
        registry = get_registry()
        registry.counter("service.cache.swaps").inc()
        registry.gauge("service.cache.resident_bytes").set(resident)
        return displaced

    def pin(self, signature: str) -> bool:
        """Exempt a resident signature from LRU eviction.

        The adaptive layer pins a signature for the duration of an A/B
        trial so the incumbent under test cannot be closed out from under
        the trial.  Returns False when the signature is not resident.
        """
        with self._lock:
            if signature not in self._entries:
                return False
            self._pinned.add(signature)
            return True

    def unpin(self, signature: str) -> None:
        """Re-admit a signature to LRU eviction (idempotent)."""
        with self._lock:
            self._pinned.discard(signature)

    def pinned(self) -> list:
        """Currently pinned signatures (diagnostics)."""
        with self._lock:
            return sorted(self._pinned)

    # -- eviction -------------------------------------------------------------

    def _evict_locked(self) -> list:
        """Evict until within budget; returns the victims for the caller
        to close *outside* the lock (pool shutdown can block)."""

        def over_budget() -> bool:
            if (
                self.max_entries is not None
                and len(self._entries) > self.max_entries
            ):
                return True
            if self.capacity_bytes is None:
                return False
            return self._resident_bytes_locked() > self.capacity_bytes

        evicted = []
        while self._entries and over_budget():
            victim = next(
                (
                    sig
                    for sig in self._entries
                    if sig not in self._pinned
                ),
                None,
            )
            if victim is None:
                break  # everything resident is pinned: over budget, stuck
            entry = self._entries.pop(victim)
            evicted.append(entry.partition)
            self._evictions += 1
            get_registry().counter("service.cache.evictions").inc()
        return evicted

    def _resident_bytes_locked(self) -> int:
        return sum(entry.nbytes for entry in self._entries.values())

    def clear(self) -> None:
        """Drop every resident partition, closing each (counters kept).

        Evicted/cleared partitions release their persistent thread pools;
        a partition executed again afterwards transparently rebuilds its
        pool, so a racing in-flight request degrades rather than breaks.
        """
        with self._lock:
            dropped = list(self._entries.values())
            self._evictions += len(dropped)
            self._entries.clear()
            self._pinned.clear()
        for entry in dropped:
            entry.partition.close()
        registry = get_registry()
        registry.counter("service.cache.evictions").inc(len(dropped))
        registry.gauge("service.cache.resident_bytes").set(0)
        registry.gauge("service.cache.entries").set(0)

    def close(self) -> None:
        """Release every resident partition (alias of :meth:`clear`,
        spelling out teardown intent for session owners)."""
        self.clear()

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, signature: str) -> bool:
        with self._lock:
            return signature in self._entries

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident_bytes_locked()

    def resident_partitions(self) -> list:
        """The currently resident partitions (LRU order, oldest first)."""
        with self._lock:
            return [entry.partition for entry in self._entries.values()]

    def stats(self) -> ServiceStats:
        """Immutable snapshot of every counter and signature record."""
        with self._lock:
            signatures = tuple(
                SignatureStats(
                    signature=sig,
                    label=record.label,
                    nbytes=record.nbytes,
                    compiles=record.compiles,
                    compile_seconds=record.compile_seconds,
                    executes=record.executes,
                    resident=sig in self._entries,
                    latency_ewma_seconds=record.latency_ewma,
                    latency_samples=record.latency_samples,
                    swaps=record.swaps,
                    latency_hist=record.latency_hist.copy(),
                )
                for sig, record in self._records.items()
            )
            return ServiceStats(
                compiles=self._compiles,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                in_flight=len(self._inflight),
                resident_bytes=self._resident_bytes_locked(),
                capacity_bytes=self.capacity_bytes,
                swaps=self._swaps,
                signatures=signatures,
            )
