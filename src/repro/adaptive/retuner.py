"""The retuner: turns a drifted signature into a challenger partition.

Two pieces:

* :class:`TuningProblemCapture` — records, per compilation, which matmul
  tuning problems the compiler actually asked the tuner about.  The
  session wraps its single-flight ``compile_fn`` in one of these so the
  adaptive layer later knows *what to re-search* for a signature without
  re-deriving it from the graph.  Capture is thread-local: concurrent
  compilations of different signatures on different threads do not mix.
* :class:`Retuner` — given a drifted signature's captured problems,
  re-searches each with :meth:`~repro.tuner.tuner.MatmulTuner.retune`
  (seeded from the incumbent's params, measured refinement always on,
  written back through :meth:`~repro.tuner.cache.TuningCache.update`),
  then recompiles the signature's graph.  Because the recompile reads the
  same :class:`~repro.tuner.cache.TuningCache` the retune just updated —
  and the graph signature deliberately does not fold cache *contents* —
  the challenger lands under the same cache key as the incumbent, which
  is exactly what makes the hot swap possible.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from ..microkernel.machine import MachineModel
from ..observability import get_registry, get_tracer
from ..runtime.partition import CompiledPartition
from ..tuner.cache import get_tuning_cache
from ..tuner.tuner import (
    MatmulTuner,
    TuningResult,
    add_tuning_hook,
    remove_tuning_hook,
)
from .policy import AdaptiveConfig

_capture_local = threading.local()


def _capture_hook(result: TuningResult) -> None:
    sink = getattr(_capture_local, "sink", None)
    if sink is not None:
        sink.append(result)


_hook_refcount = 0
_hook_lock = threading.Lock()


class TuningProblemCapture:
    """Context manager collecting the :class:`TuningResult`\\ s fired on
    *this thread* while the body runs.

    ::

        with TuningProblemCapture() as capture:
            partition = compile_graph(...)
        problems = capture.problems  # deduped by tuning key, last wins

    The global tuning hook is installed only while at least one capture
    is active (refcounted), and the sink is thread-local, so captures on
    other threads — and the measured evaluator's own nested compiles,
    which force params and never consult the tuner — are unaffected.
    """

    def __init__(self) -> None:
        self.problems: List[TuningResult] = []

    def __enter__(self) -> "TuningProblemCapture":
        global _hook_refcount
        with _hook_lock:
            if _hook_refcount == 0:
                add_tuning_hook(_capture_hook)
            _hook_refcount += 1
        _capture_local.sink = []
        return self

    def __exit__(self, *exc) -> None:
        global _hook_refcount
        raw = getattr(_capture_local, "sink", [])
        _capture_local.sink = None
        with _hook_lock:
            _hook_refcount -= 1
            if _hook_refcount == 0:
                remove_tuning_hook(_capture_hook)
        deduped: Dict[str, TuningResult] = {}
        for result in raw:
            deduped[result.key] = result
        self.problems = list(deduped.values())


class Retuner:
    """Re-searches a signature's tuning problems and builds its challenger.

    ``compile_fresh`` is the session's recompile hook (bypassing
    the partition cache); the tuning-cache path must match what the
    session compiles with, so the recompile observes the updates.
    """

    def __init__(
        self,
        machine: MachineModel,
        config: AdaptiveConfig,
        tuning_cache_path: Optional[str] = None,
        tuning_seed: int = 0,
        executor: str = "codegen",
    ) -> None:
        self.machine = machine
        self.config = config
        self._tuner = MatmulTuner(
            machine,
            cache=get_tuning_cache(tuning_cache_path),
            mode="measured",
            budget=config.retune_budget,
            seed=tuning_seed,
            measure_repeats=config.retune_repeats,
            executor=executor,
        )

    @property
    def tuner(self) -> MatmulTuner:
        return self._tuner

    def research(self, problems: List[TuningResult]) -> List[TuningResult]:
        """Re-search every captured problem, superseding cache entries.

        Each search is seeded with the incumbent's winning params so the
        strategy explores around the current answer as well as the
        heuristic's; the measured evaluator then arbitrates with real
        executions, which is the whole point — drift is something the
        model missed.
        """
        registry = get_registry()
        results: List[TuningResult] = []
        for problem in problems:
            result = self._tuner.retune(
                problem.m,
                problem.n,
                problem.k,
                problem.dtype,
                batch=problem.batch,
                constraints=problem.constraints,
                seed_params=problem.params,
                budget=self.config.retune_budget,
                repeats=self.config.retune_repeats,
            )
            registry.counter(
                "adaptive.retune.problems", evaluator=result.evaluator
            ).inc()
            results.append(result)
        return results

    def build_challenger(
        self,
        signature: str,
        problems: List[TuningResult],
        compile_fresh: Callable[[], CompiledPartition],
    ) -> CompiledPartition:
        """One full re-search + recompile, under a ``retune.search`` span.

        Returns the challenger partition; the caller (the adaptive
        manager) owns running the A/B trial and closing whichever arm
        loses.
        """
        tracer = get_tracer()
        with tracer.span(
            "retune.search",
            category="adaptive",
            signature=signature[:12],
            problems=len(problems),
        ) as span:
            retuned = self.research(problems)
            challenger = compile_fresh()
            span.set(
                superseded=sum(1 for r in retuned if r.source == "retune")
            )
        get_registry().counter("adaptive.retunes").inc()
        return challenger


__all__ = ["Retuner", "TuningProblemCapture"]
