"""InferenceSession: the serving front-end over cache + signatures.

A session owns a graph-builder callable (``batch -> Graph``), the model
weights (bound once), and a :class:`PartitionCache`.  ``run(inputs)`` is
thread-safe: it infers the request's batch size, rounds it up to the
nearest configured shape bucket, pads the batch-dependent activations to
the bucket, executes the (cached, single-flight-compiled) partition for
that bucket, and slices the outputs back to the requested batch.

Which dimensions scale with the batch is discovered structurally: the
session builds two probe graphs at different batch sizes and diffs the
input/output shapes, so it works for any workload shape convention (e.g.
the MHA mask's leading batch dim) without per-workload configuration.

With ``batching="on"`` the session fronts a
:class:`~repro.service.batching.BatchingEngine`: concurrent requests are
coalesced per shape bucket into single partition executions (``run`` is
then a blocking wrapper over ``submit``'s Future).  Sessions are context
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
from .buckets import is_oversize, note_oversize_compile, resolve_bucket
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

#: Valid values for ``InferenceSession(dynamic_batch=)``.
DYNAMIC_BATCH_MODES = ("off", "on")

#: Compile-time size hint for the symbolic batch dim: template selection
#: and layout negotiation run against this value, so the one dynamic
#: partition carries exactly the program a static bucket of this size
#: would (that is what makes dynamic and padded-static bit-identical).
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
    input/output shapes to learn which axes scale with the batch — the
    same discovery :class:`InferenceSession` performs, factored out so
    other front ends (the sharded tier's router) can reuse it without
    constructing a full session.
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
            :class:`Graph`.  Must be deterministic: isomorphic graphs for
            equal batch sizes (workload builders such as
            :func:`~repro.workloads.build_mlp_graph` qualify).
        weights: Runtime-constant input arrays by name, bound once here
            and supplied to every partition's first execution.
        machine: Compilation target.
        options: Compiler feature toggles.
        cache: Shared :class:`PartitionCache`; a private unbounded cache
            is created when omitted.
        batch_buckets: Batch sizes to specialize for.  A request's batch
            is rounded up to the nearest bucket (padding activations with
            zeros, slicing outputs back); batches above the largest bucket
            get an exact-size specialization.  ``None`` compiles exactly
            per distinct batch size.
        num_threads: Intra-partition parallelism for compiled partitions.
        batching: ``"off"`` serves every ``run()`` synchronously on the
            caller's thread (the original path); ``"on"`` routes requests
            through a :class:`.BatchingEngine` that coalesces concurrent
            requests per shape bucket into single partition executions
            (and additionally enables :meth:`submit`).
        max_batch: Most requests one coalesced execution may contain
            (``batching="on"`` only).
        batch_timeout_us: Coalescing window in microseconds
            (``batching="on"`` only).
        queue_depth: Per-bucket backpressure bound on queued requests
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
        dynamic_batch: ``"off"`` (default) serves through static shape
            buckets as above.  ``"on"`` compiles ONE shape-polymorphic
            partition (the graph is built with a symbolic leading dim,
            ``dyn("B", DYNAMIC_BATCH_HINT)``) and executes every request
            at its exact batch size: no bucket round-up, no zero padding,
            ``service.padding_rows`` stays 0, and the partition cache
            holds a single entry regardless of the batch distribution.
            Mutually exclusive with ``batch_buckets``.  Composes with
            ``batching="on"`` (requests coalesce without a row bound) and
            with ``adaptive="on"`` (the one dynamic signature is retuned
            like any static one — challengers are rebuilt symbolically).
    """

    def __init__(
        self,
        graph_builder: Callable[[int], Graph],
        weights: Optional[Mapping[str, np.ndarray]] = None,
        *,
        machine: MachineModel = XEON_8358,
        options: Optional[CompilerOptions] = None,
        cache: Optional[PartitionCache] = None,
        batch_buckets: Optional[Sequence[int]] = None,
        num_threads: int = 1,
        batching: str = "off",
        max_batch: int = 32,
        batch_timeout_us: int = 2000,
        queue_depth: Optional[int] = 256,
        adaptive: str = "off",
        adaptive_config=None,
        dynamic_batch: str = "off",
    ) -> None:
        self._builder = graph_builder
        self._weights: Dict[str, np.ndarray] = dict(weights or {})
        self._machine = machine
        self._options = options or CompilerOptions()
        self._owns_cache = cache is None
        self._cache = cache if cache is not None else PartitionCache()
        self._num_threads = num_threads
        if dynamic_batch not in DYNAMIC_BATCH_MODES:
            raise ValueError(
                f"unknown dynamic_batch mode {dynamic_batch!r}; "
                f"expected one of {DYNAMIC_BATCH_MODES}"
            )
        self._dynamic = dynamic_batch == "on"
        if self._dynamic and batch_buckets is not None:
            raise ValueError(
                "dynamic_batch='on' is incompatible with batch_buckets: "
                "the shape-polymorphic partition serves every batch "
                "exactly, so there are no buckets to round up to"
            )
        if batch_buckets is not None:
            buckets = sorted(set(int(b) for b in batch_buckets))
            if not buckets or buckets[0] <= 0:
                raise ValueError("batch_buckets must be positive integers")
            self._buckets: Optional[Tuple[int, ...]] = tuple(buckets)
        else:
            self._buckets = None
        self._lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._sig_by_bucket: Dict[int, str] = {}
        self._label_by_bucket: Dict[int, str] = {}
        self._closed = False
        self._probe()
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
        self._problems_by_sig: Dict[str, list] = {}
        self._output_names_by_sig: Dict[str, List[str]] = {}
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

    def _probe(self) -> None:
        """Diff two probe graphs to learn the batch-dependent axes."""
        probe = ModelProbe(self._builder)
        self._input_batch_axes = probe.input_batch_axes
        self._input_dtypes = probe.input_dtypes
        self._activation_names = probe.activation_names
        self._weight_names = probe.weight_names
        self._output_batch_axes = probe.output_batch_axes
        self._batch_ref = probe.batch_ref

    # -- serving --------------------------------------------------------------

    @property
    def buckets(self) -> Optional[Tuple[int, ...]]:
        return self._buckets

    @property
    def weight_names(self) -> List[str]:
        return list(self._weight_names)

    @property
    def input_names(self) -> List[str]:
        return list(self._activation_names)

    @property
    def input_batch_axes(self) -> Dict[str, _BatchAxes]:
        """Per-activation (axis, multiplier) pairs that scale with batch."""
        return {k: list(v) for k, v in self._input_batch_axes.items()}

    @property
    def output_batch_axes(self) -> List[_BatchAxes]:
        """Per-output (axis, multiplier) pairs that scale with batch."""
        return [list(axes) for axes in self._output_batch_axes]

    @property
    def input_dtypes(self) -> Dict[str, np.dtype]:
        """Expected numpy dtype of each activation input."""
        return dict(self._input_dtypes)

    @property
    def batching(self) -> str:
        return "on" if self._engine is not None else "off"

    @property
    def adaptive(self) -> str:
        return self._adaptive

    @property
    def dynamic_batch(self) -> str:
        return "on" if self._dynamic else "off"

    @property
    def adaptive_manager(self):
        """The adaptive retuning loop, or None with ``adaptive="off"``."""
        return self._adaptive_manager

    @property
    def engine(self) -> Optional[BatchingEngine]:
        """The micro-batching engine, or None when ``batching="off"``."""
        return self._engine

    def bucket_for(self, batch: int) -> int:
        """The compilation bucket serving ``batch`` requests.

        In dynamic mode the partition is shape-polymorphic, so every
        batch is its own (exact) bucket and no padding ever happens.
        """
        if self._dynamic:
            return batch
        return resolve_bucket(self._buckets, batch)

    def infer_batch(self, inputs: Mapping[str, np.ndarray]) -> int:
        """Batch size of one request, read off a batch-scaled input dim."""
        if self._batch_ref is None:
            raise ValueError(
                "workload has no batch-dependent inputs; "
                "call run() with explicit batch=..."
            )
        name, axis, mult = self._batch_ref
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

    def warm(self, bucket: int) -> None:
        """Pre-compile (and execute once, on zeros) the ``bucket`` partition.

        Pulls compilation, weight preprocessing and executor
        specialization out of the first real request's latency — the
        sharded tier's warm-up phase calls this for every (model, bucket)
        a worker is responsible for before the worker accepts traffic.
        """
        if self._closed:
            raise SessionClosedError("InferenceSession is closed")
        graph = self._builder(bucket)
        inputs: Dict[str, np.ndarray] = {}
        for tensor in graph.inputs:
            if tensor.id in graph.constants:
                continue
            if tensor.name in self._weight_names:
                continue
            inputs[tensor.name] = np.zeros(
                tensor.shape, dtype=tensor.dtype.to_numpy()
            )
        self.execute_bucket(inputs, bucket, bucket)

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        batch: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """Serve one request; thread-safe.

        Returns output name -> array, shaped for the *request's* batch
        size (bucket padding is invisible to the caller).  With
        ``batching="on"`` the request joins the micro-batching queue and
        this call blocks until its share of a coalesced execution lands.
        """
        if self._closed:
            raise SessionClosedError("InferenceSession is closed")
        if self._engine is not None:
            return self._engine.run(inputs, batch=batch)
        if batch is None:
            batch = self.infer_batch(inputs)
        bucket = self.bucket_for(batch)
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "serve", category="service", batch=batch, bucket=bucket
            ):
                outputs = self.execute_bucket(inputs, batch, bucket)
        else:
            outputs = self.execute_bucket(inputs, batch, bucket)
        registry = get_registry()
        registry.counter("service.requests").inc()
        registry.histogram("service.request_batch").observe(batch)
        if bucket != batch:
            registry.counter("service.padded_requests").inc()
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

    def execute_bucket(
        self, inputs: Mapping[str, np.ndarray], batch: int, bucket: int
    ) -> Dict[str, np.ndarray]:
        """Execute the ``bucket`` partition on ``batch`` units of input.

        The building block both serving paths share: pads the activations
        up to the bucket, runs the (cached) partition once, slices the
        outputs back to ``batch``, and accounts the padding waste
        (``service.padding_rows`` counter, per-signature utilization —
        both in *batch units*, i.e. rows for batch-major workloads).
        """
        partition, signature = self._partition_for(bucket)
        feed: Dict[str, np.ndarray] = dict(self._weights)
        if bucket == batch:
            feed.update(inputs)
        else:
            for name, array in inputs.items():
                axes = self._input_batch_axes.get(name)
                feed[name] = (
                    self._pad(np.asarray(array), axes, batch, bucket)
                    if axes
                    else array
                )
        # An execute that starts cold pays the partition's one-time
        # build and weight init; it is kept out of the latency evidence
        # the drift monitor compares against.
        warm = partition.is_warm
        tracer = get_tracer()
        start = time.perf_counter()
        if tracer.enabled:
            # The partition-execution hop of any request chains bound to
            # this thread (the batching engine binds the coalesced
            # contexts around execute_bucket).
            with tracer.span(
                "partition.execute",
                category="service",
                signature=signature[:12],
                bucket=bucket,
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
            bucket=bucket,
        )
        self._cache.note_execute(
            signature,
            rows_requested=batch,
            rows_computed=bucket,
            latency_seconds=latency if warm else None,
        )
        if bucket == batch:
            return outputs
        get_registry().counter("service.padding_rows").inc(bucket - batch)
        sliced: Dict[str, np.ndarray] = {}
        for index, (name, array) in enumerate(outputs.items()):
            axes = (
                self._output_batch_axes[index]
                if index < len(self._output_batch_axes)
                else []
            )
            sliced[name] = self._slice(array, axes, batch)
        return sliced

    def _compile_batch(self, bucket: int):
        """The batch value the graph builder sees when compiling ``bucket``.

        Dynamic sessions always build the symbolic graph — every bucket
        maps to the one shape-polymorphic program, compiled against the
        static hint so template selection matches a hint-sized bucket.
        """
        return dyn("B", DYNAMIC_BATCH_HINT) if self._dynamic else bucket

    def _partition_for(self, bucket: int):
        # Dynamic mode has exactly one partition; key its signature under
        # the sentinel bucket 0 (never a legal batch size).
        key = 0 if self._dynamic else bucket
        with self._lock:
            signature = self._sig_by_bucket.get(key)
            label = self._label_by_bucket.get(key, "")
        if signature is None:
            probe = self._builder(self._compile_batch(bucket))
            signature = graph_signature(probe, self._machine, self._options)
            label = probe.name
            with self._lock:
                minted = key not in self._sig_by_bucket
                self._sig_by_bucket.setdefault(key, signature)
                self._label_by_bucket.setdefault(key, label)
            if minted and is_oversize(self._buckets, bucket):
                # Exact specialization beyond the bucket set: the one
                # unbounded edge of the serving cache — make it countable.
                note_oversize_compile(label)

        def _compile():
            # compile_graph mutates its graph, so build a fresh one here
            # (runs at most once per signature thanks to single-flight).
            if self._adaptive_manager is None:
                return compile_graph(
                    self._builder(self._compile_batch(bucket)),
                    self._machine,
                    self._options,
                    num_threads=self._num_threads,
                )
            # Adaptive sessions record which tuning problems this
            # signature's compile asked about — the retuner's work list.
            from ..adaptive import TuningProblemCapture

            with TuningProblemCapture() as capture:
                partition = compile_graph(
                    self._builder(self._compile_batch(bucket)),
                    self._machine,
                    self._options,
                    num_threads=self._num_threads,
                )
            with self._lock:
                self._problems_by_sig[signature] = capture.problems
                # The first compile's output names are the session's
                # client-visible contract; challengers built later are
                # aliased back to them (auto tensor names embed a
                # process-global counter and change across recompiles).
                self._output_names_by_sig.setdefault(
                    signature, list(partition.output_names)
                )
            return partition

        partition = self._cache.get_or_compile(signature, _compile, label)
        return partition, signature

    def tuning_problems(self, signature: str) -> list:
        """Tuning problems captured while compiling ``signature``
        (empty for untuned or adaptive="off" compilations)."""
        with self._lock:
            return list(self._problems_by_sig.get(signature, ()))

    def bucket_for_signature(self, signature: str) -> Optional[int]:
        """The shape bucket a signature was compiled for, if known."""
        with self._lock:
            for bucket, sig in self._sig_by_bucket.items():
                if sig == signature:
                    return bucket
        return None

    def _fresh_compiler_for(
        self, signature: str
    ) -> Optional[Callable[[], "CompiledPartition"]]:
        """A zero-arg recompile hook for a signature's bucket, bypassing
        the partition cache — how the adaptive layer builds challengers.
        The recompile consults the (by then updated) tuning cache, and
        because the graph signature does not fold tuning-cache *contents*,
        the challenger lands under the same signature as the incumbent.
        """
        bucket = self.bucket_for_signature(signature)
        if bucket is None:
            return None

        def _compile_fresh():
            from ..adaptive import OutputAliasPartition

            partition = compile_graph(
                self._builder(self._compile_batch(bucket)),
                self._machine,
                self._options,
                num_threads=self._num_threads,
            )
            with self._lock:
                names = self._output_names_by_sig.get(signature)
            if names and names != partition.output_names:
                return OutputAliasPartition(partition, names)
            return partition

        return _compile_fresh

    @staticmethod
    def _pad(
        array: np.ndarray, axes: _BatchAxes, batch: int, bucket: int
    ) -> np.ndarray:
        for axis, mult in axes:
            if array.shape[axis] != batch * mult:
                raise ValueError(
                    f"batch axis {axis} has extent {array.shape[axis]}, "
                    f"expected {batch * mult}"
                )
        scaled = dict(axes)
        pad_width = [
            (0, (bucket - batch) * scaled[axis]) if axis in scaled else (0, 0)
            for axis in range(array.ndim)
        ]
        return np.pad(array, pad_width, mode="constant")

    @staticmethod
    def _slice(
        array: np.ndarray, axes: _BatchAxes, batch: int
    ) -> np.ndarray:
        index = [slice(None)] * array.ndim
        for axis, mult in axes:
            index[axis] = slice(0, batch * mult)
        return array[tuple(index)]

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
