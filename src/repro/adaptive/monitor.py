"""Drift detection and the adaptive manager's background loop.

:class:`DriftMonitor` is the pure detector: fed per-signature stats
snapshots, it maintains for each signature a *calibrated baseline* of the
measured/modeled latency ratio (captured once the signature has served
enough requests after compile or swap) and counts consecutive polls on
which the current ratio exceeds ``baseline * drift_threshold``.  Modeled
seconds come from the analytical perf model priced once per signature —
the monitor never touches the hot path; it only reads immutable
:class:`~repro.service.stats.ServiceStats` snapshots.

:class:`AdaptiveManager` is the loop that closes the paper's feedback
gap: poll → detect drift → re-search off the hot path → compile a
challenger → A/B trial behind
:class:`~repro.adaptive.swap.ABTrialPartition` → promote or roll back
via :meth:`~repro.service.cache.PartitionCache.swap`.  It runs on one
daemon thread owned by the session; requests never block on it, and the
only hot-path artifact of an active trial is the proxy's per-execute
timing.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from ..observability import get_registry, get_tracer
from ..observability.flight import dump_flight, get_flight_recorder
from ..perfmodel import MachineSimulator, specs_for_partition
from ..service.stats import SignatureStats
from .policy import (
    AdaptiveConfig,
    SignatureState,
    Verdict,
    judge_trial,
)
from .retuner import Retuner
from .swap import ABTrialPartition


def modeled_partition_seconds(partition, machine) -> Optional[float]:
    """Steady-state modeled wall seconds of one partition execution.

    Prices the partition's kernel specs on the machine simulator with
    the constant cache pre-warmed (matching serving steady state).
    Returns None when the partition cannot be modeled — the monitor then
    falls back to tracking the raw latency EWMA against itself.
    """
    try:
        specs, warm = specs_for_partition(partition, machine)
        simulator = MachineSimulator(machine)
        for tensor, nbytes in warm:
            simulator.warm(tensor, nbytes)
        seconds = simulator.run_all(specs).seconds(machine)
    except Exception:
        return None
    return seconds if seconds > 0 else None


class _SigTrack:
    """The monitor's mutable per-signature detector state."""

    __slots__ = (
        "modeled_seconds",
        "baseline_ratio",
        "baseline_samples",
        "breaches",
        "last_ratio",
    )

    def __init__(self, modeled_seconds: Optional[float]) -> None:
        self.modeled_seconds = modeled_seconds
        self.baseline_ratio: Optional[float] = None
        #: latency_samples count at the most recent observation (set at
        #: calibration, advanced every poll that carries new evidence).
        self.baseline_samples = 0
        self.breaches = 0
        self.last_ratio: Optional[float] = None


class DriftMonitor:
    """Per-signature measured-vs-modeled drift detection (pure logic).

    ``register(signature, modeled_seconds)`` arms a signature; repeated
    :meth:`observe` calls with that signature's latest
    :class:`SignatureStats` return True on the poll where drift is
    declared (``window`` consecutive breaches of
    ``baseline * drift_threshold``).  :meth:`recalibrate` resets the
    baseline after a swap — the new partition defines a new normal.
    """

    def __init__(self, config: AdaptiveConfig) -> None:
        self.config = config
        self._tracks: Dict[str, _SigTrack] = {}

    def register(
        self, signature: str, modeled_seconds: Optional[float]
    ) -> None:
        if signature not in self._tracks:
            self._tracks[signature] = _SigTrack(modeled_seconds)

    def tracked(self, signature: str) -> bool:
        return signature in self._tracks

    def ratio(self, signature: str) -> Optional[float]:
        """Latest normalized drift ratio (1.0 = at baseline), or None
        before calibration."""
        track = self._tracks.get(signature)
        if (
            track is None
            or track.baseline_ratio is None
            or track.last_ratio is None
        ):
            return None
        return track.last_ratio / track.baseline_ratio

    def recalibrate(
        self, signature: str, modeled_seconds: Optional[float] = None
    ) -> None:
        track = self._tracks.get(signature)
        if track is None:
            return
        if modeled_seconds is not None:
            track.modeled_seconds = modeled_seconds
        track.baseline_ratio = None
        track.baseline_samples = 0
        track.breaches = 0
        track.last_ratio = None

    def observe(self, stats: SignatureStats) -> bool:
        """Feed one poll's snapshot; True when drift is declared.

        The measured signal is the signature's p95 latency when a
        quantile distribution is available (tail latency is what users
        feel and what the paper's serving claims are judged by), falling
        back to the EWMA for snapshots without one.
        """
        track = self._tracks.get(stats.signature)
        if track is None:
            return False
        if stats.latency_samples < self.config.min_executes:
            return False
        measured = stats.latency_p95_seconds
        if measured is None:
            measured = stats.latency_ewma_seconds
        denominator = track.modeled_seconds or 1.0
        ratio = measured / denominator
        if ratio <= 0:
            return False
        track.last_ratio = ratio
        if track.baseline_ratio is None:
            # Calibration: the first trusted EWMA defines "normal" for
            # this partition on this machine under this load.
            track.baseline_ratio = ratio
            track.baseline_samples = stats.latency_samples
            track.breaches = 0
            return False
        if stats.latency_samples == track.baseline_samples:
            # No new evidence since the last poll: don't advance the
            # breach window on stale data.
            return False
        track.baseline_samples = stats.latency_samples
        if ratio >= track.baseline_ratio * self.config.drift_threshold:
            track.breaches += 1
        else:
            track.breaches = 0
        if track.breaches >= self.config.window:
            track.breaches = 0
            return True
        return False


class _SigLifecycle:
    """The manager's per-signature state-machine bookkeeping."""

    __slots__ = ("state", "cooldown_left", "retunes", "trial")

    def __init__(self) -> None:
        self.state = SignatureState.STABLE
        self.cooldown_left = 0
        self.retunes = 0
        self.trial: Optional[ABTrialPartition] = None


class AdaptiveManager:
    """Owns the background retuning loop for one serving session.

    The session hands over the pieces the loop needs instead of itself,
    so the manager is front-end agnostic (the sharded tier's workers
    reuse it unchanged):

    Args:
        cache: The partition cache requests are served from.
        machine: Compilation target (prices the perf model).
        config: The loop's knobs.
        problems_for: signature -> captured tuning problems (what to
            re-search); signatures with no capture are monitored but
            never retuned.
        compile_fresh_for: signature -> a zero-arg callable compiling a
            fresh partition for that signature's bucket, bypassing the
            partition cache (the challenger build).
        tuning_cache_path: Where retuned records are written back; must
            match the path the session compiles with.
        tuning_seed: Search-strategy seed (mirrors compile-time tuning).
        executor: The session's runtime backend; folded into tuning keys
            so retuned records stay isolated per executor.
    """

    def __init__(
        self,
        cache,
        machine,
        config: AdaptiveConfig,
        problems_for: Callable[[str], list],
        compile_fresh_for: Callable[[str], Optional[Callable]],
        tuning_cache_path: Optional[str] = None,
        tuning_seed: int = 0,
        executor: str = "codegen",
    ) -> None:
        self.cache = cache
        self.machine = machine
        self.config = config
        self._problems_for = problems_for
        self._compile_fresh_for = compile_fresh_for
        self.monitor = DriftMonitor(config)
        self.retuner = Retuner(
            machine,
            config,
            tuning_cache_path=tuning_cache_path,
            tuning_seed=tuning_seed,
            executor=executor,
        )
        self._lifecycles: Dict[str, _SigLifecycle] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._woken = threading.Event()
        self._swaps = 0
        self._drift_detections = 0
        self._thread = threading.Thread(
            target=self._loop, name="adaptive-retuner", daemon=True
        )
        self._started = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._thread.start()

    def close(self) -> None:
        """Stop the loop and resolve any open trial (incumbent wins by
        default — a shutdown is not evidence)."""
        self._stop.set()
        self._woken.set()
        if self._started:
            self._thread.join()
        with self._lock:
            open_trials = [
                (sig, lc)
                for sig, lc in self._lifecycles.items()
                if lc.state is SignatureState.TRIAL and lc.trial is not None
            ]
        for signature, lifecycle in open_trials:
            self._resolve_trial(signature, lifecycle, Verdict.REJECT)

    @property
    def running(self) -> bool:
        return self._started and self._thread.is_alive()

    def poke(self) -> None:
        """Wake the loop early (tests; avoids sleeping a full interval)."""
        self._woken.set()

    # -- drift injection (bench / CI / tests) ---------------------------------

    def inject_drift(
        self, signature: str, delay_seconds: float
    ) -> bool:
        """Wrap the resident partition in a fixed-delay degrader.

        The injected wrapper *is* the incumbent from here on: the loop
        detects the latency step, re-searches, and the challenger's win
        displaces the wrapper (closing it closes the wrapped partition).
        Returns False when the signature is not resident.
        """
        from .swap import DegradedPartition

        incumbent = self.cache.peek(signature)
        if incumbent is None:
            return False
        degraded = DegradedPartition(incumbent, delay_seconds)
        displaced = self.cache.swap(signature, degraded)
        if displaced is None:
            return False
        get_registry().counter("adaptive.drift_injected").inc()
        return True

    # -- introspection --------------------------------------------------------

    def state_of(self, signature: str) -> SignatureState:
        with self._lock:
            lifecycle = self._lifecycles.get(signature)
            return lifecycle.state if lifecycle else SignatureState.STABLE

    def report(self) -> dict:
        """JSON-ready summary of what the loop has done."""
        with self._lock:
            signatures = {
                sig: {
                    "state": lc.state.value,
                    "retunes": lc.retunes,
                }
                for sig, lc in self._lifecycles.items()
            }
            return {
                "swaps": self._swaps,
                "drift_detections": self._drift_detections,
                "signatures": signatures,
            }

    @property
    def swaps(self) -> int:
        with self._lock:
            return self._swaps

    # -- the loop -------------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._woken.wait(self.config.poll_interval_s)
            self._woken.clear()
            if self._stop.is_set():
                return
            try:
                self.step()
            except Exception:
                # The loop must survive anything: a failed poll or
                # retune never takes serving down with it.
                get_registry().counter("adaptive.loop_errors").inc()

    def step(self) -> None:
        """One poll: observe every resident signature, act on its state.

        Public so tests (and the sharded worker's drain path) can drive
        the state machine deterministically without the timer thread.
        """
        registry = get_registry()
        registry.counter("adaptive.polls").inc()
        snapshot = self.cache.stats()
        for sig_stats in snapshot.signatures:
            if not sig_stats.resident:
                continue
            signature = sig_stats.signature
            if not self.monitor.tracked(signature):
                if self._compile_fresh_for(signature) is None:
                    # Not ours: with several sessions sharing one cache
                    # (a sharded worker), each manager only owns the
                    # signatures its session can recompile.
                    continue
                partition = self.cache.peek(signature)
                if partition is None:
                    continue
                self.monitor.register(
                    signature,
                    modeled_partition_seconds(partition, self.machine),
                )
            with self._lock:
                lifecycle = self._lifecycles.setdefault(
                    signature, _SigLifecycle()
                )
                state = lifecycle.state
            if state is SignatureState.QUARANTINED:
                continue
            if state is SignatureState.COOLDOWN:
                with self._lock:
                    lifecycle.cooldown_left -= 1
                    if lifecycle.cooldown_left <= 0:
                        lifecycle.state = SignatureState.STABLE
                continue
            if state is SignatureState.TRIAL:
                self._poll_trial(signature, lifecycle)
                continue
            # STABLE (or a DRIFTING state a previous poll parked): detect.
            if self.monitor.observe(sig_stats):
                with self._lock:
                    self._drift_detections += 1
                    lifecycle.state = SignatureState.DRIFTING
                registry.counter("adaptive.drift_detected").inc()
                get_flight_recorder().record(
                    "adaptive.drift_detected",
                    category="adaptive",
                    signature=signature[:12],
                    ratio=self.monitor.ratio(signature),
                )
                dump_flight(
                    "drift-detected",
                    signature=signature[:12],
                    ratio=self.monitor.ratio(signature),
                )
                self._launch_retune(signature, lifecycle)
        with self._lock:
            tracked = len(self._lifecycles)
        registry.gauge("adaptive.signatures_tracked").set(tracked)

    # -- retune + trial -------------------------------------------------------

    def _launch_retune(
        self, signature: str, lifecycle: _SigLifecycle
    ) -> None:
        registry = get_registry()
        with self._lock:
            if lifecycle.retunes >= self.config.max_retunes_per_signature:
                lifecycle.state = SignatureState.QUARANTINED
                registry.counter(
                    "adaptive.quarantines", reason="retune_budget"
                ).inc()
                get_flight_recorder().record(
                    "adaptive.quarantine",
                    category="adaptive",
                    signature=signature[:12],
                    reason="retune_budget",
                )
                dump_flight(
                    "quarantine-retune-budget", signature=signature[:12]
                )
                return
            lifecycle.state = SignatureState.RETUNING
            lifecycle.retunes += 1
        problems = self._problems_for(signature)
        compile_fresh = self._compile_fresh_for(signature)
        if not problems or compile_fresh is None:
            # Nothing to re-search (untuned partition) or no recompile
            # path: back off rather than spin on the same drift signal.
            self._enter_cooldown(signature, lifecycle)
            return
        try:
            challenger = self.retuner.build_challenger(
                signature, problems, compile_fresh
            )
        except Exception:
            registry.counter("adaptive.retune_errors").inc()
            self._enter_cooldown(signature, lifecycle)
            return
        incumbent = self.cache.peek(signature)
        if incumbent is None:
            challenger.close()
            self._enter_cooldown(signature, lifecycle)
            return
        trial = ABTrialPartition(
            incumbent, challenger, stride=self.config.trial_stride
        )
        self.cache.pin(signature)
        displaced = self.cache.swap(signature, trial)
        if displaced is None:
            # Evicted between peek and swap: abandon the trial.
            self.cache.unpin(signature)
            challenger.close()
            self._enter_cooldown(signature, lifecycle)
            return
        with self._lock:
            lifecycle.trial = trial
            lifecycle.state = SignatureState.TRIAL
        registry.counter("adaptive.trials_started").inc()

    def _poll_trial(
        self, signature: str, lifecycle: _SigLifecycle
    ) -> None:
        trial = lifecycle.trial
        if trial is None:
            self._enter_cooldown(signature, lifecycle)
            return
        result = trial.snapshot()
        if (
            result.challenger_errors == 0
            and result.challenger_samples < self.config.trial_requests
        ):
            return  # still gathering evidence
        verdict = judge_trial(result, self.config)
        self._resolve_trial(signature, lifecycle, verdict)

    def _resolve_trial(
        self,
        signature: str,
        lifecycle: _SigLifecycle,
        verdict: Verdict,
    ) -> None:
        trial = lifecycle.trial
        if trial is None:
            return
        registry = get_registry()
        tracer = get_tracer()
        winner = (
            trial.challenger
            if verdict is Verdict.PROMOTE
            else trial.incumbent
        )
        with tracer.span(
            "retune.swap",
            category="adaptive",
            signature=signature[:12],
            verdict=verdict.value,
        ):
            trial.keep(winner)
            displaced = self.cache.swap(signature, winner)
            self.cache.unpin(signature)
            if displaced is trial:
                # Closes the losing arm; the kept winner is untouched.
                displaced.close()
            elif displaced is not None:
                displaced.close()
        registry.counter(
            "adaptive.trials", verdict=verdict.value
        ).inc()
        with self._lock:
            lifecycle.trial = None
            if verdict is Verdict.PROMOTE:
                self._swaps += 1
            if verdict is Verdict.QUARANTINE:
                lifecycle.state = SignatureState.QUARANTINED
            else:
                lifecycle.state = SignatureState.COOLDOWN
                lifecycle.cooldown_left = self.config.cooldown_polls
        if verdict is Verdict.PROMOTE:
            registry.counter("adaptive.swaps").inc()
            # The challenger defines the new normal.
            self.monitor.recalibrate(
                signature,
                modeled_partition_seconds(winner, self.machine),
            )
        else:
            self.monitor.recalibrate(signature)
            if verdict is Verdict.QUARANTINE:
                registry.counter(
                    "adaptive.quarantines", reason="challenger_error"
                ).inc()
                get_flight_recorder().record(
                    "adaptive.quarantine",
                    category="adaptive",
                    signature=signature[:12],
                    reason="challenger_error",
                )
                dump_flight(
                    "quarantine-challenger-error",
                    signature=signature[:12],
                )

    def _enter_cooldown(
        self, signature: str, lifecycle: _SigLifecycle
    ) -> None:
        with self._lock:
            lifecycle.state = SignatureState.COOLDOWN
            lifecycle.cooldown_left = self.config.cooldown_polls
        self.monitor.recalibrate(signature)


__all__ = [
    "AdaptiveManager",
    "DriftMonitor",
    "modeled_partition_seconds",
]
