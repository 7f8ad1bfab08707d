"""Partition proxies for the adaptive loop: A/B trials and drift injection.

Both proxies quack like a :class:`~repro.runtime.partition.CompiledPartition`
for everything the serving layer touches — ``execute``, ``close``,
``lowered``, ``arena_size``, ``cached_bytes``, ``has_active_pool``,
``is_warm`` — so they can be installed into a
:class:`~repro.service.cache.PartitionCache` slot with
:meth:`~repro.service.cache.PartitionCache.swap` and served without the
session noticing.

:class:`ABTrialPartition` is the A/B guard's instrument: it routes every
``stride``-th request to the challenger, times both arms, and falls back
to the incumbent when the challenger raises, so *no request ever fails
because a trial was running*.

:class:`DegradedPartition` injects a fixed per-execution delay — the
drift source for benchmarks, CI smoke and tests, honest in the sense
that the whole detection → re-search → trial → swap pipeline runs
exactly as it would against genuine drift.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..observability import get_tracer
from ..observability.context import active_contexts
from ..runtime.partition import CompiledPartition
from .policy import TrialResult


class _PartitionProxy:
    """Shared delegation plumbing: everything the cache and the perf
    model read off a partition forwards to ``_primary``."""

    def __init__(self, primary: CompiledPartition) -> None:
        self._primary = primary

    @property
    def lowered(self):
        return self._primary.lowered

    @property
    def arena_size(self) -> int:
        return self._primary.arena_size

    @property
    def cached_bytes(self) -> int:
        return self._primary.cached_bytes

    @property
    def has_active_pool(self) -> bool:
        return self._primary.has_active_pool

    @property
    def is_warm(self) -> bool:
        return self._primary.is_warm

    @property
    def input_names(self):
        return self._primary.input_names

    @property
    def weight_names(self):
        return self._primary.weight_names

    @property
    def output_names(self):
        return self._primary.output_names


class ABTrialPartition(_PartitionProxy):
    """Serves an A/B trial between an incumbent and a challenger.

    Every ``stride``-th execution goes to the challenger; all others to
    the incumbent.  Each arm's wall time accumulates for the verdict,
    except an execute that starts with the arm cold: it pays the arm's
    one-time build and weight init, which the trial does not compare.
    A challenger exception is swallowed — counted, and the request is
    transparently re-served by the incumbent — because a trial must
    never cost a caller a failed request.

    ``close()`` closes both arms *except* one the manager marked as kept
    via :meth:`keep`: after the verdict, the winning arm goes back into
    the cache (which now owns closing it) while the proxy — displaced by
    that final swap — is closed, taking the losing arm with it.
    ``CompiledPartition.close`` is idempotent, so the cache tearing down
    a trial proxy wholesale (e.g. session close mid-trial) is also safe.
    """

    def __init__(
        self,
        incumbent: CompiledPartition,
        challenger: CompiledPartition,
        stride: int,
    ) -> None:
        super().__init__(incumbent)
        if stride < 2:
            raise ValueError("stride must be >= 2")
        self.incumbent = incumbent
        self.challenger = challenger
        self.stride = stride
        self._lock = threading.Lock()
        self._calls = 0
        self._challenger_seconds = 0.0
        self._challenger_samples = 0
        self._challenger_errors = 0
        self._incumbent_seconds = 0.0
        self._incumbent_samples = 0
        self._kept: Optional[CompiledPartition] = None

    def _run_arm(
        self,
        arm: str,
        partition: CompiledPartition,
        inputs: Mapping[str, np.ndarray],
    ) -> Dict[str, np.ndarray]:
        """Execute one arm, under a ``trial.execute`` span when tracing.

        The span carries the arm name and — via the thread-local request
        binding — a ``t`` flow step per in-flight request, so a trial
        run shows up *inside* the request's flow chain in the merged
        timeline rather than as an anonymous detour.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return partition.execute(inputs)
        ctxs = active_contexts()
        with tracer.span(
            "trial.execute",
            category="adaptive",
            arm=arm,
            requests=len(ctxs),
        ):
            for ctx in ctxs:
                tracer.flow("request", "t", ctx.flow_id)
            return partition.execute(inputs)

    def _timed_arm(
        self,
        arm: str,
        partition: CompiledPartition,
        inputs: Mapping[str, np.ndarray],
    ) -> Tuple[Dict[str, np.ndarray], Optional[float]]:
        """Execute one arm; its wall seconds, or None if it started cold."""
        warm = partition.is_warm
        start = time.perf_counter()
        outputs = self._run_arm(arm, partition, inputs)
        return outputs, (time.perf_counter() - start) if warm else None

    @property
    def is_warm(self) -> bool:
        return self.incumbent.is_warm and self.challenger.is_warm

    def execute(
        self, inputs: Mapping[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        with self._lock:
            self._calls += 1
            to_challenger = self._calls % self.stride == 0
        if to_challenger:
            try:
                outputs, elapsed = self._timed_arm(
                    "challenger", self.challenger, inputs
                )
            except Exception:
                with self._lock:
                    self._challenger_errors += 1
                return self._run_arm("incumbent", self.incumbent, inputs)
            if elapsed is not None:
                with self._lock:
                    self._challenger_seconds += elapsed
                    self._challenger_samples += 1
            return outputs
        outputs, elapsed = self._timed_arm(
            "incumbent", self.incumbent, inputs
        )
        if elapsed is not None:
            with self._lock:
                self._incumbent_seconds += elapsed
                self._incumbent_samples += 1
        return outputs

    # -- verdict plumbing -----------------------------------------------------

    def snapshot(self) -> TrialResult:
        """The trial's measurements so far (means, not totals)."""
        with self._lock:
            return TrialResult(
                challenger_seconds=(
                    self._challenger_seconds / self._challenger_samples
                    if self._challenger_samples
                    else 0.0
                ),
                incumbent_seconds=(
                    self._incumbent_seconds / self._incumbent_samples
                    if self._incumbent_samples
                    else 0.0
                ),
                challenger_errors=self._challenger_errors,
                challenger_samples=self._challenger_samples,
                incumbent_samples=self._incumbent_samples,
            )

    def keep(self, winner: CompiledPartition) -> None:
        """Exempt ``winner`` from this proxy's ``close()`` — it outlives
        the trial (the cache owns it now)."""
        self._kept = winner

    def close(self) -> None:
        for arm in (self.incumbent, self.challenger):
            if arm is not self._kept:
                arm.close()


class OutputAliasPartition(_PartitionProxy):
    """Serves a recompiled partition under the output names of the one
    it replaces.

    Auto-generated tensor names embed a process-global id counter, so
    recompiling the same builder graph yields fresh output names (e.g.
    ``t39`` becomes ``t112``).  Callers of a session key results by the
    names the *first* compile produced; graph construction is
    deterministic per builder, so output order is stable and a
    positional rename restores the contract exactly.  Without this, a
    hot swap would silently change the keys of every response dict.
    """

    def __init__(self, target: CompiledPartition, output_names) -> None:
        super().__init__(target)
        names = list(output_names)
        if len(names) != len(target.output_names):
            raise ValueError(
                f"output arity changed across recompile: "
                f"{names} vs {target.output_names}"
            )
        self.target = target
        self._names = names

    @property
    def output_names(self):
        return list(self._names)

    def execute(
        self, inputs: Mapping[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        outputs = self.target.execute(inputs)
        return {
            name: value
            for name, value in zip(self._names, outputs.values())
        }

    def close(self) -> None:
        self.target.close()


class DegradedPartition(_PartitionProxy):
    """A partition with a fixed injected delay per execution.

    Installed over a healthy incumbent to simulate tuning drift — e.g.
    a co-tenant stealing cache, a frequency change, or simply a stale
    tuning decision — so benchmarks and tests exercise the real
    detection/retune/swap pipeline.  The wrapped partition is the
    ``target`` the adaptive layer eventually displaces; closing the
    wrapper closes it.
    """

    def __init__(
        self, target: CompiledPartition, delay_seconds: float
    ) -> None:
        super().__init__(target)
        if delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")
        self.target = target
        self.delay_seconds = delay_seconds

    def execute(
        self, inputs: Mapping[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        if self.delay_seconds:
            time.sleep(self.delay_seconds)
        return self.target.execute(inputs)

    def close(self) -> None:
        self.target.close()


__all__ = [
    "ABTrialPartition",
    "DegradedPartition",
    "OutputAliasPartition",
]
