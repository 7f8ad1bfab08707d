"""Compiled partitions: the executable artifact the compiler produces.

A partition owns the main Tensor IR module, the optional init module for
constant-weight preprocessing, and the constant cache.  The first
execution runs the init module on the runtime-constant inputs (weights,
quantization params) and caches the preprocessed buffers — pre-packed
blocked weights, int8 compensation — exactly once; later executions reuse
them, as the paper's constant weight optimization requires.

``execute`` is thread-safe: initialization is guarded by a lock with
double-checked locking, the tensor/parameter binding is computed once at
construction (not re-derived per call), and every call gets its own
interpreter, buffers and output arrays.
"""

from __future__ import annotations

import enum
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..graph_ir.graph import Graph
from ..graph_ir.logical_tensor import LogicalTensor
from ..graph_ir.symbolic import is_symbolic
from ..lowering.lower_graph import LoweredPartition
from ..observability import get_registry, get_tracer
from ..observability.context import active_contexts
from ..tensor_ir.module import TirModule
from .codegen import CodegenExecutor
from .dynamic import concrete_shape
from .interpreter import ExecutionStats, Interpreter

#: Valid values for ``CompilerOptions.executor`` / the ``executor=``
#: constructor override.
EXECUTOR_BACKENDS = ("interpret", "codegen")


class _Role(enum.Enum):
    """How one entry-function parameter is satisfied at call time."""

    OUTPUT = "output"  # freshly allocated, returned to the caller
    CACHED = "cached"  # served from the constant cache after init
    CONST = "const"  # compile-time constant data
    INPUT = "input"  # fetched (and validated) from the caller's mapping


#: One precomputed parameter binding: (graph tensor, TIR param, role).
_Binding = Tuple[LogicalTensor, object, _Role]


def _entry_bindings(
    graph: Graph,
    module: TirModule,
    *,
    output_ids: set,
    cached_ids: set,
    const_ids: set,
) -> List[_Binding]:
    """Bind graph tensors to entry-function params, in signature order.

    This hoists the O(inputs x outputs) id-matching scans the runtime used
    to redo on every call onto the construction path.
    """
    entry = module.entry_function
    ordered = list(graph.inputs) + [
        t
        for t in graph.outputs
        if all(t.id != i.id for i in graph.inputs)
    ]
    if len(ordered) != len(entry.params):
        raise ExecutionError(
            "entry signature mismatch: "
            f"{len(ordered)} tensors vs {len(entry.params)} params"
        )
    bindings: List[_Binding] = []
    for tensor, param in zip(ordered, entry.params):
        if tensor.id in output_ids:
            role = _Role.OUTPUT
        elif tensor.id in cached_ids:
            role = _Role.CACHED
        elif tensor.id in const_ids:
            role = _Role.CONST
        else:
            role = _Role.INPUT
        bindings.append((tensor, param, role))
    return bindings


class CompiledPartition:
    """Executable compiled DNN subgraph.

    ``num_threads > 1`` executes the generated parallel loops on a thread
    pool (numpy kernels release the GIL, so this uses real cores).
    """

    def __init__(
        self,
        lowered: LoweredPartition,
        num_threads: int = 1,
        executor: Optional[str] = None,
    ) -> None:
        self.lowered = lowered
        self.num_threads = num_threads
        if executor is None:
            options = getattr(lowered.ctx, "options", None)
            executor = getattr(options, "executor", None) or "codegen"
        if executor not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"unknown executor backend {executor!r}; "
                f"expected one of {EXECUTOR_BACKENDS}"
            )
        #: Runtime backend: ``"codegen"`` exec-generates one flat Python
        #: function per TIR function once; ``"interpret"`` re-walks the
        #: IR per call (the reference backend).
        self.executor = executor
        self._executor_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._codegen: Optional[CodegenExecutor] = None
        #: Persistent worker pool shared across calls and parallel loops;
        #: (re)built lazily whenever ``num_threads`` changes.
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_size = 0
        self._cache: Optional[Dict[int, np.ndarray]] = None
        self._init_lock = threading.Lock()
        self.last_stats: Optional[ExecutionStats] = None
        self.init_stats: Optional[ExecutionStats] = None
        # Ids the constant cache will hold after init: raw weights plus
        # everything the init module computes.
        cached_ids = {t.id for t in lowered.weight_tensors}
        if lowered.init_module is not None and lowered.init_graph is not None:
            cached_ids |= {t.id for t in lowered.init_graph.outputs}
        self._main_bindings = _entry_bindings(
            lowered.graph,
            lowered.module,
            output_ids={t.id for t in lowered.graph.outputs},
            cached_ids=cached_ids,
            const_ids=set(lowered.const_data),
        )
        self._init_bindings: List[_Binding] = []
        if lowered.init_module is not None and lowered.init_graph is not None:
            init_graph = lowered.init_graph
            self._init_bindings = _entry_bindings(
                init_graph,
                lowered.init_module,
                output_ids={t.id for t in init_graph.outputs},
                cached_ids={t.id for t in lowered.weight_tensors},
                const_ids=set(lowered.const_data),
            )

    # -- introspection --------------------------------------------------------

    @property
    def input_names(self) -> List[str]:
        """Activation inputs required on every call."""
        return [t.name for t in self.lowered.input_tensors]

    @property
    def weight_names(self) -> List[str]:
        """Runtime-constant inputs; required until the first execution."""
        return [t.name for t in self.lowered.weight_tensors]

    @property
    def output_names(self) -> List[str]:
        return [t.name for t in self.lowered.output_tensors]

    @property
    def is_initialized(self) -> bool:
        return self._cache is not None or self.lowered.init_module is None

    @property
    def is_warm(self) -> bool:
        """Whether the one-time work is done: constant-weight init and,
        under codegen, the backend build.  An execute that starts cold
        pays that work, so latency tracking leaves it out."""
        built = self.executor != "codegen" or self._codegen is not None
        return self._cache is not None and built

    @property
    def arena_size(self) -> int:
        return int(
            self.lowered.module.entry_function.attrs.get("arena_size", 0)
        )

    @property
    def cached_bytes(self) -> int:
        """Bytes held by the constant cache (0 before initialization)."""
        cache = self._cache
        if cache is None:
            return 0
        return sum(array.nbytes for array in cache.values())

    # -- execution ---------------------------------------------------------------

    def execute(
        self, inputs: Mapping[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Run the partition; returns output name -> array.

        Weights must be present in ``inputs`` for the first call (they are
        cached); activation inputs are required on every call.
        """
        outputs, _ = self.execute_with_stats(inputs)
        return outputs

    def execute_with_stats(
        self, inputs: Mapping[str, np.ndarray]
    ) -> Tuple[Dict[str, np.ndarray], ExecutionStats]:
        """Like :meth:`execute` but also returns this call's own stats.

        Concurrent callers each get their own :class:`ExecutionStats`;
        ``last_stats`` is (re)assigned on every call, from the stats of
        whichever call finished most recently.  The same per-call stats are
        published into the metrics registry as ``runtime.*``.
        """
        cache = self._cache
        if cache is None:
            with self._init_lock:
                if self._cache is None:
                    self._cache = self._run_init(inputs)
                cache = self._cache
        buffers: Dict[str, np.ndarray] = {}
        outputs: Dict[str, np.ndarray] = {}
        lowered = self.lowered
        # Two passes: inputs are fetched first so symbolic dims (dynamic
        # batch) bind to their runtime values, then outputs whose declared
        # shape references those dims are allocated concretely.
        dim_bindings: Dict[str, int] = {}
        deferred: List[Tuple[LogicalTensor, object]] = []
        for tensor, param, role in self._main_bindings:
            if role is _Role.OUTPUT:
                if getattr(param, "is_static", True):
                    array = np.zeros(param.shape, tensor.dtype.to_numpy())
                else:
                    deferred.append((tensor, param))
                    continue
                outputs[tensor.name] = array
            elif role is _Role.CACHED:
                array = cache[tensor.id]
            elif role is _Role.CONST:
                array = lowered.const_data[tensor.id]
            else:
                array = self._fetch(inputs, tensor, dim_bindings)
            buffers[param.name] = array
        for tensor, param in deferred:
            shape = concrete_shape(param.shape, dim_bindings)
            array = np.zeros(shape, tensor.dtype.to_numpy())
            outputs[tensor.name] = array
            buffers[param.name] = array
        start = time.perf_counter()
        tracer = get_tracer()
        if tracer.enabled:
            attrs = dict(
                graph=lowered.graph.name,
                threads=self.num_threads,
                executor=self.executor,
            )
            ctxs = active_contexts()
            if ctxs:
                # Label the runtime slice with the request chains it
                # serves, so Perfetto can attribute it without walking
                # flows (the serving layer above emits the flow steps).
                attrs["trace_ids"] = ",".join(c.trace_id for c in ctxs)
            with tracer.span(
                f"execute:{lowered.graph.name}",
                category="runtime",
                **attrs,
            ) as span:
                stats = self._run_backend(buffers)
                span.set(**stats.to_dict())
        else:
            stats = self._run_backend(buffers)
        self.last_stats = stats
        self._publish_metrics(stats, time.perf_counter() - start)
        return outputs, stats

    def _run_backend(self, buffers: Dict[str, np.ndarray]) -> ExecutionStats:
        """One execution of the main module on the selected backend."""
        lowered = self.lowered
        num_threads = max(1, int(self.num_threads))
        pool = self._shared_pool(num_threads)
        if self.executor == "codegen":
            return self._codegen_executor().run(
                buffers, pool=pool, num_threads=num_threads
            )
        interp = Interpreter(
            lowered.module,
            arena_size=self.arena_size or None,
            num_threads=num_threads,
            machine=lowered.ctx.machine,
            pool=pool,
        )
        interp.run(buffers)
        return interp.stats

    def _codegen_executor(self) -> CodegenExecutor:
        """The whole-program codegen executor, built once per partition."""
        executor = self._codegen
        if executor is None:
            with self._executor_lock:
                if self._codegen is None:
                    lowered = self.lowered
                    self._codegen = CodegenExecutor(
                        lowered.module,
                        machine=lowered.ctx.machine,
                        arena_size=self.arena_size or None,
                    )
                executor = self._codegen
        return executor

    def _shared_pool(self, num_threads: int) -> Optional[ThreadPoolExecutor]:
        """The partition-lifetime worker pool (None when single-threaded).

        ``num_threads`` may be reassigned between calls; the pool is
        rebuilt to match.  Workers idle between calls — no per-loop (or
        per-call) pool construction.
        """
        if num_threads <= 1:
            return None
        pool = self._pool
        if pool is not None and self._pool_size == num_threads:
            return pool
        with self._executor_lock:
            if self._pool is None or self._pool_size != num_threads:
                if self._pool is not None:
                    self._pool.shutdown(wait=False)
                self._pool = ThreadPoolExecutor(
                    max_workers=num_threads,
                    thread_name_prefix="repro-runtime",
                )
                self._pool_size = num_threads
            return self._pool

    @property
    def has_active_pool(self) -> bool:
        """Whether a persistent worker pool is currently alive."""
        with self._executor_lock:
            return self._pool is not None

    def close(self) -> None:
        """Release the persistent worker pool (idempotent).

        Called by owners on teardown and by :class:`PartitionCache` when
        it evicts this partition.  Executing the partition again after
        ``close`` transparently rebuilds the pool.

        Safe against double close — an owner that closes a partition a
        :class:`PartitionCache` later evicts or clears closes it twice —
        and against concurrent closers: mirroring the
        ``SessionClosedError`` semantics of the serving layer, the first
        closer performs the (blocking) pool shutdown while the rest wait
        on it and then return, so no caller ever observes a half-released
        pool.  The blocking shutdown happens *outside* ``_executor_lock``
        so a racing ``execute`` is never stalled behind pool teardown.
        """
        with self._close_lock:
            with self._executor_lock:
                pool = self._pool
                self._pool = None
                self._pool_size = 0
            if pool is not None:
                pool.shutdown(wait=True)

    @staticmethod
    def _publish_metrics(stats: ExecutionStats, seconds: float) -> None:
        registry = get_registry()
        registry.counter("runtime.executions").inc()
        registry.counter("runtime.brgemm_calls").inc(stats.brgemm_calls)
        registry.counter("runtime.pack_stmts").inc(stats.pack_stmts)
        registry.counter("runtime.parallel_loops").inc(stats.parallel_loops)
        registry.counter("runtime.barriers").inc(stats.barriers)
        registry.histogram("runtime.execute_seconds").observe(seconds)
        registry.histogram("runtime.peak_temp_bytes").observe(
            stats.peak_temp_bytes
        )

    def _run_init(self, inputs: Mapping[str, np.ndarray]) -> Dict[int, np.ndarray]:
        lowered = self.lowered
        cache: Dict[int, np.ndarray] = {}
        # Weights consumed directly by the main graph are cached as-is.
        for tensor in lowered.weight_tensors:
            cache[tensor.id] = np.array(
                self._fetch(inputs, tensor), copy=True
            )
        if lowered.init_module is None:
            return cache
        buffers: Dict[str, np.ndarray] = {}
        for tensor, param, role in self._init_bindings:
            if role is _Role.OUTPUT:
                array = np.zeros(param.shape, tensor.dtype.to_numpy())
                cache[tensor.id] = array
            elif role is _Role.CONST:
                array = lowered.const_data[tensor.id]
            elif role is _Role.CACHED:
                array = cache[tensor.id]
            else:
                array = self._fetch(inputs, tensor)
            buffers[param.name] = array
        interp = Interpreter(lowered.init_module, machine=lowered.ctx.machine)
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                f"init:{lowered.graph.name}", category="runtime"
            ):
                interp.run(buffers)
        else:
            interp.run(buffers)
        self.init_stats = interp.stats
        return cache

    def _fetch(
        self,
        inputs: Mapping[str, np.ndarray],
        tensor,
        dim_bindings: Optional[Dict[str, int]] = None,
    ) -> np.ndarray:
        if tensor.name not in inputs:
            raise ExecutionError(
                f"missing input {tensor.name!r} "
                f"(required: {self.input_names + self.weight_names})"
            )
        array = np.ascontiguousarray(inputs[tensor.name])
        self._match_shape(array, tensor, dim_bindings)
        if array.dtype != tensor.dtype.to_numpy():
            raise ExecutionError(
                f"input {tensor.name!r} has dtype {array.dtype}, expected "
                f"{tensor.dtype.to_numpy()}"
            )
        return array

    @staticmethod
    def _match_shape(
        array: np.ndarray,
        tensor,
        dim_bindings: Optional[Dict[str, int]],
    ) -> None:
        """Validate a runtime array against a (possibly symbolic) shape.

        Static dims must match exactly; a symbolic dim binds on first
        sight into ``dim_bindings`` and must be consistent across inputs.
        """
        shape = tensor.shape
        if len(array.shape) != len(shape):
            raise ExecutionError(
                f"input {tensor.name!r} has shape {array.shape}, expected "
                f"{shape}"
            )
        for got, want in zip(array.shape, shape):
            if is_symbolic(want):
                if dim_bindings is None:
                    raise ExecutionError(
                        f"input {tensor.name!r} has a symbolic dim "
                        f"{want.name!r} outside a dynamic execution"
                    )
                prev = dim_bindings.get(want.name)
                if prev is None:
                    dim_bindings[want.name] = int(got)
                elif prev != int(got):
                    raise ExecutionError(
                        f"symbolic dim {want.name!r} bound inconsistently: "
                        f"{prev} vs {got} (input {tensor.name!r})"
                    )
            elif int(got) != int(want):
                raise ExecutionError(
                    f"input {tensor.name!r} has shape {array.shape}, "
                    f"expected {shape}"
                )
