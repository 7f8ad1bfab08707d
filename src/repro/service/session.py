"""InferenceSession: the serving front-end over cache + signatures.

A session owns a graph-builder callable (``batch -> Graph``), the model
weights (bound once), and a :class:`PartitionCache`.  It compiles ONE
shape-polymorphic partition per model: the graph is built with a symbolic
leading dim, ``dyn("B", DYNAMIC_BATCH_HINT)``, and every request executes
at its exact batch size — no round-up, no zero padding, and one cache
entry whatever the batch distribution.  ``run(inputs)`` is thread-safe:
it infers the request's batch size and executes the (cached,
single-flight-compiled) partition on it.

Which dimensions scale with the batch is discovered structurally: the
session builds two probe graphs at different batch sizes and diffs the
input/output shapes, so it works for any workload shape convention (e.g.
the MHA mask's leading batch dim) without per-workload configuration.

With ``batching="on"`` the session fronts a
:class:`~repro.service.batching.BatchingEngine`: concurrent requests are
coalesced into single partition executions (``run`` is then a blocking
wrapper over ``submit``'s Future).  Sessions are context
managers; ``close()`` settles the engine and releases the partitions'
persistent thread pools when the session owns its cache.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.compiler import compile_graph
from ..core.options import CompilerOptions
from ..dtypes import DType
from ..errors import SessionClosedError
from ..graph_ir.graph import Graph
from ..graph_ir.logical_tensor import PropertyKind
from ..graph_ir.symbolic import dyn
from ..microkernel.machine import MachineModel, XEON_8358
from ..observability import get_registry, get_tracer
from ..observability.context import active_contexts
from ..observability.flight import get_flight_recorder
from .batching import BatchingEngine
from .cache import PartitionCache
from .signature import graph_signature
from .stats import ServiceStats

#: (axis, multiplier) pairs: dimension ``axis`` equals ``multiplier * batch``.
_BatchAxes = List[Tuple[int, int]]

_PROBE_BATCHES = (2, 3)

#: Valid values for ``InferenceSession(batching=)``.
BATCHING_MODES = ("off", "on")

#: Valid values for ``InferenceSession(adaptive=)``.
ADAPTIVE_MODES = ("off", "on")

#: Compile-time size hint for the symbolic batch dim: template selection
#: and layout negotiation run against this value, so the one dynamic
#: partition carries exactly the program a static compile at this batch
#: would (its rows are bit-identical to that program run on zero-padded
#: inputs).
DYNAMIC_BATCH_HINT = 32


def _diff_batch_axes(
    shape_a: Sequence[int], shape_b: Sequence[int], batches: Tuple[int, int]
) -> _BatchAxes:
    """Axes whose extent scales linearly with the probe batch size."""
    if len(shape_a) != len(shape_b):
        raise ValueError(
            f"builder produced different ranks across batch sizes: "
            f"{tuple(shape_a)} vs {tuple(shape_b)}"
        )
    axes: _BatchAxes = []
    for axis, (da, db) in enumerate(zip(shape_a, shape_b)):
        if da == db:
            continue
        if da % batches[0] or db % batches[1] or da // batches[0] != db // batches[1]:
            raise ValueError(
                f"dimension {axis} varies with batch but not linearly: "
                f"{da}@b{batches[0]} vs {db}@b{batches[1]}"
            )
        axes.append((axis, da // batches[0]))
    return axes


class ModelProbe:
    """Structural batch-shape discovery for one graph-builder callable.

    Builds two probe graphs at different batch sizes and diffs the
    input/output shapes to learn which axes scale with the batch.
    :class:`InferenceSession` keeps one; the sharded tier's router uses
    it without constructing a full session.
    """

    def __init__(self, builder: Callable[[int], Graph]) -> None:
        g_a = builder(_PROBE_BATCHES[0])
        g_b = builder(_PROBE_BATCHES[1])
        self.input_batch_axes: Dict[str, _BatchAxes] = {}
        self.input_dtypes: Dict[str, np.dtype] = {}
        self.activation_names: List[str] = []
        self.weight_names: List[str] = []
        for ta, tb in zip(g_a.inputs, g_b.inputs):
            if ta.name != tb.name:
                raise ValueError(
                    "builder produced differently-named inputs across "
                    f"batch sizes: {ta.name!r} vs {tb.name!r}"
                )
            is_weight = (
                ta.prop is PropertyKind.CONSTANT
                and ta.id not in g_a.constants
            )
            if is_weight:
                self.weight_names.append(ta.name)
            if ta.id in g_a.constants:
                continue  # compile-time constant: never fed at runtime
            axes = _diff_batch_axes(ta.shape, tb.shape, _PROBE_BATCHES)
            if not is_weight:
                self.activation_names.append(ta.name)
                self.input_batch_axes[ta.name] = axes
                self.input_dtypes[ta.name] = np.dtype(ta.dtype.to_numpy())
            elif axes:
                raise ValueError(
                    f"runtime-constant input {ta.name!r} scales with the "
                    "batch size; weights must be batch-independent"
                )
        self.output_batch_axes: List[_BatchAxes] = [
            _diff_batch_axes(ta.shape, tb.shape, _PROBE_BATCHES)
            for ta, tb in zip(g_a.outputs, g_b.outputs)
        ]
        # The reference input used to infer each request's batch size.
        self.batch_ref: Optional[Tuple[str, int, int]] = None
        for name in self.activation_names:
            for axis, mult in self.input_batch_axes[name]:
                self.batch_ref = (name, axis, mult)
                break
            if self.batch_ref is not None:
                break

    def infer_batch(self, inputs: Mapping[str, np.ndarray]) -> int:
        """Batch size of one request, read off a batch-scaled input dim."""
        if self.batch_ref is None:
            raise ValueError(
                "workload has no batch-dependent inputs; "
                "call run() with explicit batch=..."
            )
        name, axis, mult = self.batch_ref
        if name not in inputs:
            raise ValueError(
                f"cannot infer batch size: missing input {name!r}"
            )
        dim = int(np.asarray(inputs[name]).shape[axis])
        if dim % mult:
            raise ValueError(
                f"input {name!r} dim {axis} = {dim} is not a multiple "
                f"of {mult}"
            )
        return dim // mult


class InferenceSession:
    """Thread-safe serving handle for one model.

    Args:
        graph_builder: Callable mapping a batch size to a fresh
            :class:`Graph`.  Must be deterministic (isomorphic graphs for
            equal batch sizes) and accept a symbolic batch,
            ``dyn("B", hint)``, as workload builders such as
            :func:`~repro.workloads.build_mlp_graph` do: the session
            compiles the symbolic graph once and serves every batch size
            from that one partition.
        weights: Runtime-constant input arrays by name, bound once here
            and supplied to the partition's first execution.
        machine: Compilation target.
        options: Compiler feature toggles.
        cache: Shared :class:`PartitionCache`; a private unbounded cache
            is created when omitted.
        num_threads: Intra-partition parallelism for compiled partitions.
        batching: ``"off"`` serves every ``run()`` synchronously on the
            caller's thread; ``"on"`` routes requests through a
            :class:`.BatchingEngine` that coalesces concurrent requests
            into single partition executions (and additionally enables
            :meth:`submit`).
        max_batch: Most requests one coalesced execution may contain
            (``batching="on"`` only).
        batch_timeout_us: Coalescing window in microseconds
            (``batching="on"`` only).
        queue_depth: Backpressure bound on queued requests
            (``batching="on"`` only; ``None`` disables backpressure).
        adaptive: ``"off"`` (default) serves statically — no background
            threads, no behavior change whatsoever.  ``"on"`` attaches a
            :class:`~repro.adaptive.AdaptiveManager` that watches live
            per-signature latency, re-searches the tuning space of
            partitions whose measured cost drifts from the model's
            expectation, and hot-swaps the recompiled partition into the
            cache once it wins a live A/B trial.  Implies at least
            ``tuning="model"`` (a session compiled without the tuner has
            nothing to re-search).
        adaptive_config: Knobs for the adaptive loop
            (:class:`~repro.adaptive.AdaptiveConfig`); defaults apply
            when omitted.  Ignored with ``adaptive="off"``.
    """

    def __init__(
        self,
        graph_builder: Callable[[int], Graph],
        weights: Optional[Mapping[str, np.ndarray]] = None,
        *,
        machine: MachineModel = XEON_8358,
        options: Optional[CompilerOptions] = None,
        cache: Optional[PartitionCache] = None,
        num_threads: int = 1,
        batching: str = "off",
        max_batch: int = 32,
        batch_timeout_us: int = 2000,
        queue_depth: Optional[int] = 256,
        adaptive: str = "off",
        adaptive_config=None,
    ) -> None:
        self._builder = graph_builder
        self._weights: Dict[str, np.ndarray] = dict(weights or {})
        self._machine = machine
        self._options = options or CompilerOptions()
        self._owns_cache = cache is None
        self._cache = cache if cache is not None else PartitionCache()
        self._num_threads = num_threads
        self._lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._closed = False
        self._probe = ModelProbe(graph_builder)
        #: The one partition's cache key and label, minted on first use.
        self._signature: Optional[str] = None
        self._label = ""
        if batching not in BATCHING_MODES:
            raise ValueError(
                f"unknown batching mode {batching!r}; "
                f"expected one of {BATCHING_MODES}"
            )
        self._engine: Optional[BatchingEngine] = None
        if batching == "on":
            self._engine = BatchingEngine(
                self,
                max_batch=max_batch,
                batch_timeout_us=batch_timeout_us,
                queue_depth=queue_depth,
            )
        if adaptive not in ADAPTIVE_MODES:
            raise ValueError(
                f"unknown adaptive mode {adaptive!r}; "
                f"expected one of {ADAPTIVE_MODES}"
            )
        self._adaptive = adaptive
        self._adaptive_manager = None
        #: Tuning problems the compile asked about (adaptive sessions).
        self._problems: list = []
        #: Output names of the first compile: the client-visible contract.
        self._output_names: Optional[List[str]] = None
        if adaptive == "on":
            # Imported lazily: adaptive="off" sessions never pay for (or
            # observe) the adaptive machinery.
            from ..adaptive import AdaptiveConfig, AdaptiveManager

            if self._options.tuning == "off":
                # Without a tuner in the compile path there is nothing
                # for the adaptive loop to re-search.
                self._options = dataclasses.replace(
                    self._options, tuning="model"
                )
            self._adaptive_manager = AdaptiveManager(
                cache=self._cache,
                machine=self._machine,
                config=adaptive_config or AdaptiveConfig(),
                problems_for=self.tuning_problems,
                compile_fresh_for=self._fresh_compiler_for,
                tuning_cache_path=self._options.tuning_cache_path,
                tuning_seed=self._options.tuning_seed,
                executor=self._options.executor,
            )
            self._adaptive_manager.start()

    @classmethod
    def for_workload(
        cls,
        workload: str,
        dtype: DType = DType.f32,
        weights: Optional[Mapping[str, np.ndarray]] = None,
        **kwargs,
    ) -> "InferenceSession":
        """Session over a named Table 1 workload (``MLP_*`` / ``MHA_*``)."""
        from ..workloads import (
            MHA_CONFIGS,
            MLP_CONFIGS,
            build_mha_graph,
            build_mlp_graph,
        )

        name = workload.upper()
        if name in MLP_CONFIGS:
            builder = lambda batch: build_mlp_graph(name, batch, dtype)
        elif name in MHA_CONFIGS:
            builder = lambda batch: build_mha_graph(name, batch, dtype)
        else:
            known = sorted(MLP_CONFIGS) + sorted(MHA_CONFIGS)
            raise ValueError(f"unknown workload {workload!r}; known: {known}")
        return cls(builder, weights=weights, **kwargs)

    # -- shape discovery ------------------------------------------------------

    @property
    def weight_names(self) -> List[str]:
        return list(self._probe.weight_names)

    @property
    def input_names(self) -> List[str]:
        return list(self._probe.activation_names)

    @property
    def input_batch_axes(self) -> Dict[str, _BatchAxes]:
        """Per-activation (axis, multiplier) pairs that scale with batch."""
        return {k: list(v) for k, v in self._probe.input_batch_axes.items()}

    @property
    def output_batch_axes(self) -> List[_BatchAxes]:
        """Per-output (axis, multiplier) pairs that scale with batch."""
        return [list(axes) for axes in self._probe.output_batch_axes]

    @property
    def input_dtypes(self) -> Dict[str, np.dtype]:
        """Expected numpy dtype of each activation input."""
        return dict(self._probe.input_dtypes)

    def infer_batch(self, inputs: Mapping[str, np.ndarray]) -> int:
        """Batch size of one request, read off a batch-scaled input dim."""
        return self._probe.infer_batch(inputs)

    # -- serving --------------------------------------------------------------

    @property
    def batching(self) -> str:
        return "on" if self._engine is not None else "off"

    @property
    def adaptive(self) -> str:
        return self._adaptive

    @property
    def adaptive_manager(self):
        """The adaptive retuning loop, or None with ``adaptive="off"``."""
        return self._adaptive_manager

    @property
    def engine(self) -> Optional[BatchingEngine]:
        """The micro-batching engine, or None when ``batching="off"``."""
        return self._engine

    def warm(self) -> None:
        """Pre-compile (and execute once, on zeros) the session's partition.

        Pulls compilation, weight preprocessing and executor
        specialization out of the first real request's latency — the
        sharded tier's warm-up phase calls this for every model a worker
        is responsible for before the worker accepts traffic.
        """
        if self._closed:
            raise SessionClosedError("InferenceSession is closed")
        graph = self._builder(DYNAMIC_BATCH_HINT)
        inputs: Dict[str, np.ndarray] = {
            tensor.name: np.zeros(tensor.shape, dtype=tensor.dtype.to_numpy())
            for tensor in graph.inputs
            if tensor.id not in graph.constants
            and tensor.name not in self._probe.weight_names
        }
        self.execute(inputs, DYNAMIC_BATCH_HINT)

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        batch: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """Serve one request; thread-safe.

        Returns output name -> array, shaped for the request's batch
        size.  With ``batching="on"`` the request joins the
        micro-batching queue and this call blocks until its share of a
        coalesced execution lands.
        """
        if self._closed:
            raise SessionClosedError("InferenceSession is closed")
        if self._engine is not None:
            return self._engine.run(inputs, batch=batch)
        if batch is None:
            batch = self.infer_batch(inputs)
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("serve", category="service", batch=batch):
                outputs = self.execute(inputs, batch)
        else:
            outputs = self.execute(inputs, batch)
        registry = get_registry()
        registry.counter("service.requests").inc()
        registry.histogram("service.request_batch").observe(batch)
        return outputs

    def submit(
        self,
        inputs: Mapping[str, np.ndarray],
        batch: Optional[int] = None,
        ctx=None,
    ):
        """Async serving: enqueue one request, returning its Future.

        Only available with ``batching="on"`` — the synchronous path has
        no queue for the request to wait in.  ``ctx`` carries an existing
        :class:`~repro.observability.RequestContext` across a relay hop
        (the sharded tier's workers); local callers leave it None and the
        engine mints one when tracing is enabled.
        """
        if self._closed:
            raise SessionClosedError("InferenceSession is closed")
        if self._engine is None:
            raise RuntimeError(
                "submit() requires batching='on' "
                "(this session was built with batching='off')"
            )
        return self._engine.submit(inputs, batch=batch, ctx=ctx)

    def execute(
        self, inputs: Mapping[str, np.ndarray], batch: int
    ) -> Dict[str, np.ndarray]:
        """Execute the partition once on ``batch`` units of input.

        The building block both serving paths share: binds the weights,
        runs the (cached) partition at the inputs' exact batch size and
        records the execution against the partition's signature.
        """
        partition, signature = self._partition()
        feed: Dict[str, np.ndarray] = dict(self._weights)
        feed.update(inputs)
        # An execute that starts cold pays the partition's one-time
        # build and weight init; it is kept out of the latency evidence
        # the drift monitor compares against.
        warm = partition.is_warm
        tracer = get_tracer()
        start = time.perf_counter()
        if tracer.enabled:
            # The partition-execution hop of any request chains bound to
            # this thread (the batching engine binds the coalesced
            # contexts around execute).
            with tracer.span(
                "partition.execute",
                category="service",
                signature=signature[:12],
                batch=batch,
            ):
                for ctx in active_contexts():
                    tracer.flow("request", "t", ctx.flow_id)
                outputs = partition.execute(feed)
        else:
            outputs = partition.execute(feed)
        latency = time.perf_counter() - start
        # Always-on flight breadcrumb: one O(1) ring append per partition
        # execution (batch rate, not request rate), so an anomaly dump
        # has the recent execution history even with tracing off.
        get_flight_recorder().record(
            "partition.execute",
            category="service",
            duration=latency,
            signature=signature[:12],
            batch=batch,
        )
        self._cache.note_execute(
            signature, latency_seconds=latency if warm else None
        )
        return outputs

    def _symbolic_graph(self) -> Graph:
        """A fresh graph at the symbolic batch — what the session compiles."""
        return self._builder(dyn("B", DYNAMIC_BATCH_HINT))

    def _partition(self):
        if self._signature is None:
            # Racing first callers mint the same (deterministic) values.
            graph = self._symbolic_graph()
            self._label = graph.name
            self._signature = graph_signature(
                graph, self._machine, self._options
            )
        signature = self._signature

        def _compile():
            # compile_graph mutates its graph, so build a fresh one here
            # (runs at most once per signature thanks to single-flight).
            if self._adaptive_manager is None:
                return compile_graph(
                    self._symbolic_graph(),
                    self._machine,
                    self._options,
                    num_threads=self._num_threads,
                )
            # Adaptive sessions record which tuning problems the compile
            # asked about — the retuner's work list.
            from ..adaptive import TuningProblemCapture

            with TuningProblemCapture() as capture:
                partition = compile_graph(
                    self._symbolic_graph(),
                    self._machine,
                    self._options,
                    num_threads=self._num_threads,
                )
            with self._lock:
                self._problems = capture.problems
                # The first compile's output names are the session's
                # client-visible contract; challengers built later are
                # aliased back to them (auto tensor names embed a
                # process-global counter and change across recompiles).
                if self._output_names is None:
                    self._output_names = list(partition.output_names)
            return partition

        partition = self._cache.get_or_compile(signature, _compile, self._label)
        return partition, signature

    def tuning_problems(self, signature: str) -> list:
        """Tuning problems captured while compiling ``signature``
        (empty for a foreign signature, or an untuned or adaptive="off"
        compilation)."""
        with self._lock:
            if signature != self._signature:
                return []
            return list(self._problems)

    def _fresh_compiler_for(
        self, signature: str
    ) -> Optional[Callable[[], "CompiledPartition"]]:
        """A zero-arg recompile hook for the session's signature, bypassing
        the partition cache — how the adaptive layer builds challengers.
        The recompile consults the (by then updated) tuning cache, and
        because the graph signature does not fold tuning-cache *contents*,
        the challenger lands under the same signature as the incumbent.
        """
        if signature != self._signature:
            return None

        def _compile_fresh():
            from ..adaptive import OutputAliasPartition

            partition = compile_graph(
                self._symbolic_graph(),
                self._machine,
                self._options,
                num_threads=self._num_threads,
            )
            with self._lock:
                names = self._output_names
            if names and names != partition.output_names:
                return OutputAliasPartition(partition, names)
            return partition

        return _compile_fresh

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, drain: bool = True) -> None:
        """Tear the session down; no request may be served afterwards.

        Settles the batching engine first (``drain=True`` completes every
        queued request, ``drain=False`` cancels what has not started
        executing), then — when the session owns its cache — closes every
        resident partition, releasing their persistent thread pools.  A
        cache passed in by the caller is shared and stays untouched.
        Idempotent, including under concurrent callers: the first closer
        does the teardown while the rest block on it and then return, so
        no caller can observe a half-closed session.  A ``submit`` racing
        ``close`` either lands before the drain (and is served/cancelled
        by it) or raises :class:`~repro.errors.SessionClosedError`.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            # Adaptive first: stop the background loop (resolving any
            # open A/B trial in the incumbent's favor) before draining
            # requests and releasing partitions.
            if self._adaptive_manager is not None:
                self._adaptive_manager.close()
            if self._engine is not None:
                self._engine.close(drain=drain)
            if self._owns_cache:
                self._cache.close()

    def __enter__(self) -> "InferenceSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection --------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Snapshot of the underlying cache (shared caches aggregate)."""
        return self._cache.stats()

    @property
    def cache(self) -> PartitionCache:
        return self._cache
