"""The tuning driver: cache lookup, search dispatch, measured refinement.

:class:`MatmulTuner` is the piece ``compile_graph`` talks to.  For each
matmul problem it

1. consults the :class:`~repro.tuner.cache.TuningCache` (a hit skips all
   search work — the warmed-cache path),
2. on a miss, builds the :class:`~repro.tuner.space.TuningSpace`, seeds
   the search with the expert heuristic's pick, and runs the strategy
   :func:`~repro.tuner.search.choose_strategy` selects for the space
   size and budget,
3. in ``measured`` mode, re-ranks the model's top-K survivors (plus the
   heuristic pick) by actually compiling and executing them,
4. stores the winner back into the cache.

Every decision is announced to registered *tuning hooks* — mirrored on
the compiler's compile hooks — as a :class:`TuningResult` whose
``source`` field says whether the params came from the cache, a fresh
search, or the heuristic fallback.  Tests and benchmarks observe the
subsystem through these hooks instead of poking at internals.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..dtypes import DType
from ..errors import HeuristicError
from ..microkernel.machine import MachineModel
from ..observability import get_registry, get_tracer
from ..templates.cost_model import candidate_cost
from ..templates.heuristics import HeuristicConstraints, select_matmul_params
from ..templates.params import MatmulParams
from .cache import TuningCache, TuningRecord, tuning_key
from .evaluate import MeasuredEvaluator, ModelEvaluator
from .search import SearchOutcome, choose_strategy
from .space import TuningSpace

#: Legal values of ``CompilerOptions.tuning``.
TUNING_MODES = ("off", "cached-only", "model", "measured")


@dataclass(frozen=True)
class TuningResult:
    """What the tuner decided for one matmul problem."""

    m: int
    n: int
    k: int
    batch: int
    dtype: DType
    params: MatmulParams
    #: Modeled cycles of ``params`` (comparable to ``heuristic_cost``).
    cost: float
    #: Modeled cycles of the expert heuristic's pick.
    heuristic_cost: float
    #: "cache" (warm hit), "search" (fresh tuning), or "heuristic" (fallback).
    source: str
    #: "model" or "measured" — which evaluator ranked the winner.
    evaluator: str = "model"
    #: Candidates scored to reach this decision (0 for cache hits).
    evaluations: int = 0
    #: Search strategy used ("" for cache hits / fallbacks).
    strategy: str = ""
    #: The cache key of this problem.
    key: str = ""

    @property
    def speedup_vs_heuristic(self) -> float:
        """Modeled heuristic/tuned cycle ratio (>= 1.0 means tuned wins)."""
        if self.cost <= 0:
            return 1.0
        return self.heuristic_cost / self.cost


_hooks: List[Callable[[TuningResult], None]] = []
_hooks_lock = threading.Lock()


def add_tuning_hook(hook: Callable[[TuningResult], None]) -> None:
    """Register a callable invoked with every :class:`TuningResult`."""
    with _hooks_lock:
        _hooks.append(hook)


def remove_tuning_hook(hook: Callable[[TuningResult], None]) -> None:
    with _hooks_lock:
        _hooks.remove(hook)


def _fire(result: TuningResult) -> None:
    with _hooks_lock:
        hooks = list(_hooks)
    for hook in hooks:
        hook(result)


class MatmulTuner:
    """Empirical autotuner for matmul template parameters.

    The ``selector`` property adapts the tuner to the compiler's
    parameter-selector protocol (the signature of
    ``select_matmul_params``), so passes ask the tuner exactly where
    they would have asked the heuristic.
    """

    def __init__(
        self,
        machine: MachineModel,
        cache: Optional[TuningCache] = None,
        mode: str = "model",
        budget: int = 512,
        seed: int = 0,
        measure_top_k: int = 3,
        measure_repeats: int = 3,
        executor: str = "codegen",
    ) -> None:
        if mode not in TUNING_MODES:
            raise ValueError(
                f"unknown tuning mode {mode!r}; expected one of {TUNING_MODES}"
            )
        self.machine = machine
        self.cache = cache if cache is not None else TuningCache()
        self.mode = mode
        self.executor = executor
        self.budget = max(1, budget)
        self.seed = seed
        self.measure_top_k = max(1, measure_top_k)
        self.measure_repeats = measure_repeats
        #: Every TuningResult this instance produced, in order.
        self.results: List[TuningResult] = []

    # -- the compiler-facing protocol -----------------------------------------

    @property
    def selector(self) -> Callable[..., MatmulParams]:
        """A drop-in replacement for ``select_matmul_params``."""

        def tuned_selector(
            m: int,
            n: int,
            k: int,
            dtype: DType,
            machine: MachineModel,
            batch: int = 1,
            constraints: Optional[HeuristicConstraints] = None,
        ) -> MatmulParams:
            return self.tune(
                m, n, k, dtype, batch=batch, constraints=constraints
            ).params

        return tuned_selector

    # -- the tuning pipeline ---------------------------------------------------

    def tune(
        self,
        m: int,
        n: int,
        k: int,
        dtype: DType,
        batch: int = 1,
        constraints: Optional[HeuristicConstraints] = None,
    ) -> TuningResult:
        tracer = get_tracer()
        if not tracer.enabled:
            return self._tune(m, n, k, dtype, batch, constraints)
        with tracer.span(
            f"tune:{m}x{k}x{n}",
            category="tuning",
            batch=batch,
            dtype=dtype.value,
            mode=self.mode,
        ) as span:
            result = self._tune(m, n, k, dtype, batch, constraints)
            span.set(
                source=result.source,
                evaluations=result.evaluations,
                speedup_vs_heuristic=result.speedup_vs_heuristic,
            )
            return result

    def _tune(
        self,
        m: int,
        n: int,
        k: int,
        dtype: DType,
        batch: int,
        constraints: Optional[HeuristicConstraints],
    ) -> TuningResult:
        key = tuning_key(
            m, n, k, dtype, self.machine, batch=batch,
            constraints=constraints, executor=self.executor,
        )
        record = self.cache.get(key)
        if record is not None:
            result = TuningResult(
                m=m, n=n, k=k, batch=batch, dtype=dtype,
                params=record.params,
                cost=record.cost,
                heuristic_cost=record.heuristic_cost,
                source="cache",
                evaluator=record.evaluator,
                evaluations=0,
                key=key,
            )
            return self._emit(result)

        heuristic = select_matmul_params(
            m, n, k, dtype, self.machine, batch=batch, constraints=constraints
        )
        heuristic_cost = candidate_cost(
            heuristic, dtype, self.machine, original_sizes=(m, n, k)
        )
        if self.mode in ("off", "cached-only"):
            # No fresh search: serve the heuristic, do not pollute the cache.
            result = TuningResult(
                m=m, n=n, k=k, batch=batch, dtype=dtype,
                params=heuristic,
                cost=heuristic_cost,
                heuristic_cost=heuristic_cost,
                source="heuristic",
                key=key,
            )
            return self._emit(result)

        try:
            outcome = self._search(m, n, k, dtype, batch, constraints, heuristic)
        except HeuristicError:
            result = TuningResult(
                m=m, n=n, k=k, batch=batch, dtype=dtype,
                params=heuristic,
                cost=heuristic_cost,
                heuristic_cost=heuristic_cost,
                source="heuristic",
                key=key,
            )
            return self._emit(result)

        params, model_cost, evaluator_name, measured_seconds, evaluations, \
            strategy = outcome
        self.cache.put(
            key,
            TuningRecord(
                params=params,
                cost=model_cost,
                heuristic_cost=heuristic_cost,
                evaluator=evaluator_name,
                measured_seconds=measured_seconds,
                evaluations=evaluations,
            ),
        )
        result = TuningResult(
            m=m, n=n, k=k, batch=batch, dtype=dtype,
            params=params,
            cost=model_cost,
            heuristic_cost=heuristic_cost,
            source="search",
            evaluator=evaluator_name,
            evaluations=evaluations,
            strategy=strategy,
            key=key,
        )
        return self._emit(result)

    def _search(
        self,
        m: int,
        n: int,
        k: int,
        dtype: DType,
        batch: int,
        constraints: Optional[HeuristicConstraints],
        heuristic: MatmulParams,
    ):
        space = TuningSpace(
            m, n, k, dtype, self.machine, batch=batch, constraints=constraints
        )
        model = ModelEvaluator(m, n, k, dtype, self.machine, batch=batch)
        strategy = choose_strategy(space, self.budget, seed=self.seed)
        outcome: SearchOutcome = strategy.run(
            space, model, seeds=[heuristic]
        )
        params, model_cost = outcome.params, outcome.cost
        evaluations = outcome.evaluations
        if self.mode != "measured":
            return params, model_cost, "model", 0.0, evaluations, \
                outcome.strategy

        # Measured refinement: re-rank the model's top-K plus the
        # heuristic pick by real compile-and-execute wall time.
        finalists = outcome.top(self.measure_top_k)
        if heuristic not in finalists:
            finalists.append(heuristic)
        measured = MeasuredEvaluator(
            m, n, k, dtype, self.machine, batch=batch,
            repeats=self.measure_repeats, seed=self.seed,
        )
        best_params, best_seconds = params, None
        for candidate in finalists:
            seconds = measured.score(candidate)
            if seconds is None:
                continue
            if best_seconds is None or seconds < best_seconds:
                best_params, best_seconds = candidate, seconds
        if best_seconds is None:
            # Nothing survived real lowering: trust the model ranking.
            return params, model_cost, "model", 0.0, evaluations, \
                outcome.strategy
        best_cost = candidate_cost(
            best_params, dtype, self.machine, original_sizes=(m, n, k)
        )
        return best_params, best_cost, "measured", best_seconds, \
            evaluations + measured.evaluations, outcome.strategy

    def _emit(self, result: TuningResult) -> TuningResult:
        self.results.append(result)
        registry = get_registry()
        registry.counter("tuning.results", source=result.source).inc()
        if result.evaluations:
            registry.histogram("tuning.evaluations").observe(
                result.evaluations
            )
        _fire(result)
        return result
