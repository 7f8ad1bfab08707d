"""Per-layer probes: each layer timed from outside, through its public
functions, on the graphs of the workload being traced.

Three groups, named after the modules they call into:

* compile — every pass of ``default_pipeline()`` run one by one, then
  ``lower_graph``, the Tensor IR passes, the ``CompiledPartition``
  constructor (see :mod:`bench.staged`) and the first execute;
* runtime — steady execute, the exact counters of ``execute_with_stats``,
  ``batch_reduce_gemm`` timed directly at the partition's dominant block
  shape, and a whole-problem numpy reference;
* service — the sharded closed loop against an in-process replay of the
  same requests, the shm ring on its own, and the fleet's public stats.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

import repro
from repro import XEON_8358
from repro.microkernel.brgemm import batch_reduce_gemm
from repro.runtime.partition import CompiledPartition
from repro.service import TensorRing, request_nbytes
from repro.templates.heuristics import select_matmul_params
from repro.workloads import build_mlp_graph

from . import adapters
from .measure import Timed, p
from .spans import Recorder, Span
from .staged import COLD_START_STAGES, staged_compile
from .workloads import (
    SERVE_BATCHES,
    SERVE_MODELS,
    SERVE_WORKLOAD,
    ServeState,
    Subject,
    closed_loop,
)

Metrics = Dict[str, Tuple[float, str]]

#: Span name -> per-layer metric, for the stages of one compilation.
STAGE_METRICS = {
    "graph_ir.passes": "graph_ir.passes_ms",
    "graph_ir.layout_propagation": "graph_ir.layout_propagation_ms",
    "graph_ir.fine_grain_fusion": "graph_ir.fine_grain_fusion_ms",
    "graph_ir.low_precision": "graph_ir.low_precision_ms",
    "lowering.lower_graph": "lowering.lower_graph_ms",
    "tensor_ir.simplify": "tensor_ir.simplify_ms",
    "tensor_ir.loop_merge": "tensor_ir.loop_merge_ms",
    "tensor_ir.tensor_shrink": "tensor_ir.tensor_shrink_ms",
    "tensor_ir.buffer_reuse": "tensor_ir.buffer_reuse_ms",
    "runtime.partition_build": "runtime.partition_build_ms",
    "runtime.first_execute": "runtime.first_execute_ms",
}

# -- reducing spans -----------------------------------------------------------


def per_op_ms(spans: Sequence[Span], name: str) -> Dict[int, float]:
    """op id -> total ms of the spans called ``name`` under that op."""
    totals: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.name == name and span.op is not None:
            totals[span.op] += span.seconds * 1e3
    return totals


def typical_ms(by_op: Dict[int, float], n_subjects: int) -> float:
    """Mean over subjects of each subject's median over repetitions
    (op ``i`` exercises subject ``i % n_subjects``): robust to one slow
    repetition, and stage values still add up to the whole."""
    by_subject: Dict[int, List[float]] = defaultdict(list)
    for op, ms in by_op.items():
        by_subject[op % n_subjects].append(ms)
    if not by_subject:
        return 0.0
    return statistics.fmean(
        statistics.median(values) for values in by_subject.values()
    )


def cold_start_sum_ms(spans: Sequence[Span]) -> float:
    """p50 over ops of the summed stage spans of one cold start."""
    sums: Dict[int, float] = defaultdict(float)
    for stage in COLD_START_STAGES:
        for op, ms in per_op_ms(spans, stage).items():
            sums[op] += ms
    return p(list(sums.values()), 50)


def timed_ms(call: Callable[[], Any], repeats: int) -> float:
    """Median wall time of ``call()`` in ms."""
    samples = []
    for _ in range(repeats):
        begin = time.perf_counter()
        call()
        samples.append((time.perf_counter() - begin) * 1e3)
    return statistics.median(samples)


# -- compile group ------------------------------------------------------------


def compile_probe(
    subjects: Sequence[Subject], repeats: int
) -> Tuple[Metrics, List[CompiledPartition]]:
    """Stage-by-stage compilation of every subject; returns the metrics
    and the (initialised) partitions of the last repetition."""
    recorder = Recorder()
    count = len(subjects)
    ops_in = ops_out = tir_functions = arena_bytes = 0
    partitions: List[CompiledPartition] = []
    for repeat in range(repeats):
        partitions = []
        for index, subject in enumerate(subjects):
            op = repeat * count + index
            graph = subject.build()
            if repeat == 0:
                ops_in += len(graph.ops)
            partition = staged_compile(graph, recorder, op)
            with recorder.span("runtime.first_execute", op=op):
                partition.execute(subject.inputs)
            partitions.append(partition)
    for partition in partitions:
        lowered = partition.lowered
        ops_out += len(lowered.graph.ops)
        tir_functions += len(lowered.module.functions)
        if lowered.init_module is not None:
            tir_functions += len(lowered.init_module.functions)
        arena_bytes += partition.arena_size

    metrics: Metrics = {
        metric: (typical_ms(per_op_ms(recorder.spans, span), count), "ms")
        for span, metric in STAGE_METRICS.items()
    }
    compile_ms = statistics.fmean(
        _compile_ms(subject, repeats) for subject in subjects
    )
    first_ms = metrics["runtime.first_execute_ms"][0]
    select_ms = statistics.fmean(
        timed_ms(lambda shapes=shapes: _select_all(shapes), repeats)
        for shapes in map(_matmul_shapes, partitions)
    )
    metrics.update(
        {
            "graph_ir.ops_in": (ops_in, "count"),
            "graph_ir.ops_out": (ops_out, "count"),
            "templates.select_params_ms": (select_ms, "ms"),
            "lowering.tir_functions": (tir_functions, "count"),
            "tensor_ir.arena_bytes": (arena_bytes, "bytes"),
            "core.compile_ms": (compile_ms, "ms"),
            "core.compile_share": (
                compile_ms / (compile_ms + first_ms),
                "ratio",
            ),
        }
    )
    return metrics, partitions


def _compile_ms(subject: Subject, repeats: int) -> float:
    """Median ms of ``compile_graph`` on fresh graphs built beforehand."""
    graphs = [subject.build() for _ in range(repeats)]
    return timed_ms(lambda: adapters.compile_partition(graphs.pop()), repeats)


def _matmul_ops(partition: CompiledPartition):
    """(matmul op, its MatmulParams) for every matmul of a partition."""
    params = partition.lowered.ctx.matmul_params
    return [
        (op, params[op.id])
        for op in partition.lowered.graph.ops
        if op.id in params
    ]


def _matmul_shapes(partition: CompiledPartition):
    return [
        (mp.m, mp.n, mp.k, op.inputs[0].dtype, mp.batch)
        for op, mp in _matmul_ops(partition)
    ]


def _select_all(shapes) -> None:
    for m, n, k, dtype, batch in shapes:
        select_matmul_params(m, n, k, dtype, XEON_8358, batch=batch)


# -- runtime group ------------------------------------------------------------


def _brgemm_us(partition: CompiledPartition, calls: int = 200) -> float:
    """µs per ``batch_reduce_gemm`` at the partition's dominant blocks:
    those of the matmul that issues the most microkernel calls."""
    op, mp = max(
        _matmul_ops(partition),
        key=lambda pair: (
            pair[1].batch
            * (pair[1].m // pair[1].mb)
            * (pair[1].n // pair[1].nb)
            * (pair[1].k // (pair[1].kb * pair[1].bs))
        ),
    )
    a_dtype = op.inputs[0].dtype.to_numpy()
    b_dtype = op.inputs[1].dtype.to_numpy()
    integer = np.issubdtype(a_dtype, np.integer)
    rng = np.random.RandomState(0)
    draw = (
        (lambda shape, dtype: rng.randint(0, 100, shape).astype(dtype))
        if integer
        else (lambda shape, dtype: rng.randn(*shape).astype(dtype))
    )
    a = draw((mp.bs, mp.mb, mp.kb), a_dtype)
    b = draw((mp.bs, mp.nb, mp.kb), b_dtype)
    c = np.zeros((mp.mb, mp.nb), np.int32 if integer else np.float32)
    return 1e3 * timed_ms(lambda: batch_reduce_gemm(c, a, b, True), calls)


def runtime_probe(
    subjects: Sequence[Subject],
    partitions: Sequence[CompiledPartition],
    first_execute_ms: float,
    executes: int,
) -> Metrics:
    counters: Dict[str, int] = defaultdict(int)
    execute_ms, numpy_ms, brgemm_us, kernel_ms = [], [], [], []
    for subject, partition in zip(subjects, partitions):
        feed = {name: subject.inputs[name] for name in partition.input_names}
        execute_ms.append(timed_ms(lambda: partition.execute(feed), executes))
        stats = partition.execute_with_stats(feed)[1].to_dict()
        for name, value in stats.items():
            counters[name] += value
        per_call = _brgemm_us(partition)
        brgemm_us.append(per_call)
        kernel_ms.append(stats["brgemm_calls"] * per_call / 1e3)
        as_f32 = {
            name: array.astype(np.float32)
            for name, array in subject.inputs.items()
        }
        numpy_ms.append(
            timed_ms(lambda: subject.numpy_ref(as_f32), executes)
        )
    execute = statistics.fmean(execute_ms)
    kernel = statistics.fmean(kernel_ms)
    numpy_ref = statistics.fmean(numpy_ms)
    metrics: Metrics = {
        f"runtime.{name}": (counters[name], "count")
        for name in (
            "brgemm_calls",
            "compute_stmts",
            "pack_stmts",
            "parallel_loops",
            "barriers",
        )
    }
    metrics.update(
        {
            "runtime.peak_temp_bytes": (counters["peak_temp_bytes"], "bytes"),
            "runtime.execute_ms_p50": (execute, "ms"),
            "runtime.init_overhead_ms": (first_execute_ms - execute, "ms"),
            "microkernel.brgemm_us_per_call": (
                statistics.fmean(brgemm_us),
                "us",
            ),
            "microkernel.kernel_ms_est": (kernel, "ms"),
            "runtime.dispatch_residual_ms": (execute - kernel, "ms"),
            "runtime.numpy_ref_ms": (numpy_ref, "ms"),
            "runtime.vs_numpy_ratio": (execute / numpy_ref, "ratio"),
        }
    )
    return metrics


# -- service group ------------------------------------------------------------

INPROC_SPANS = ("service.batching.submit", "service.session.wait")
SYNC_REQUESTS = 300
SHM_ROUNDTRIPS = 2000


@contextmanager
def _inproc_sessions(state: ServeState, batching: str):
    """One warmed in-process session per served model."""
    with ExitStack() as stack:
        sessions = []
        for index, (spec, (_, dtype)) in enumerate(
            zip(state.specs, SERVE_MODELS)
        ):
            session = stack.enter_context(
                adapters.inference_session(
                    lambda batch, dtype=dtype: build_mlp_graph(
                        SERVE_WORKLOAD, batch, dtype
                    ),
                    spec.weights,
                    batching,
                )
            )
            session.run(state.pool[(index, SERVE_BATCHES[-1], 0)])
            sessions.append(session)
        yield sessions


def _inproc_replay(state: ServeState, requests, recorder) -> Timed:
    """The sharded run's requests, same closed loop, no process hop."""
    with _inproc_sessions(state, "on") as sessions:
        return closed_loop(
            lambda request: sessions[request[0]].submit(state.pool[request]),
            requests,
            state.check,
            recorder,
            INPROC_SPANS,
        )


def _sync_run_ms(state: ServeState, requests) -> List[float]:
    """``run()`` with batching off, one request at a time: the floor."""
    samples = []
    with _inproc_sessions(state, "off") as sessions:
        for request in requests[:SYNC_REQUESTS]:
            begin = time.perf_counter()
            sessions[request[0]].run(state.pool[request])
            samples.append((time.perf_counter() - begin) * 1e3)
    return samples


def _shm_roundtrip_us(state: ServeState, requests) -> float:
    """lease / write / read / release at the plan's median payload."""
    by_size = sorted(requests, key=lambda r: request_nbytes(state.pool[r]))
    payload = state.pool[by_size[len(by_size) // 2]]
    slot_bytes = max(4096, 2 * request_nbytes(payload))
    with TensorRing(slots=8, slot_bytes=slot_bytes) as ring:

        def roundtrip() -> None:
            slot = ring.lease()
            specs = ring.write(slot, payload)
            ring.read(slot, specs, copy=True)
            ring.release(slot)

        return 1e3 * timed_ms(roundtrip, SHM_ROUNDTRIPS)


def _span_p50(spans: Sequence[Span], name: str, scale: float) -> float:
    return p([s.seconds * scale for s in spans if s.name == name], 50)


def service_probe(
    state: ServeState, sharded: Timed, recorder: Recorder
) -> Metrics:
    """Service-layer metrics for a sharded traced run that just finished
    on ``state`` (``sharded`` and ``recorder`` hold its results and
    spans).  Closes the fleet at the end, to time the close."""
    requests = state.requests[: sharded.attempted]
    fleet_stats = state.fleet.stats()
    engines = [
        stats
        for per_model in fleet_stats.batching.values()
        for stats in per_model.values()
    ]
    batches = sum(e.batches for e in engines)
    completed = sum(e.completed for e in engines)
    queue_wait = sum(e.queue_wait_seconds for e in engines)

    inproc_recorder = Recorder()
    inproc = _inproc_replay(state, requests, inproc_recorder)
    repro.enable_tracing()
    try:
        with_tracer = _inproc_replay(state, requests, Recorder())
    finally:
        repro.disable_tracing().clear()
    sync_ms = _sync_run_ms(state, requests)
    shm_us = _shm_roundtrip_us(state, requests)
    state.close()

    latencies = sharded.all_latencies_ms()
    inproc_p50 = p(inproc.all_latencies_ms(), 50)
    rows = sum(request[1] for request in requests)
    return {
        "service.sharding.submit_us_p50": (
            _span_p50(recorder.spans, "service.sharding.submit", 1e6),
            "us",
        ),
        "service.sharding.wait_ms_p50": (
            _span_p50(recorder.spans, "service.sharding.wait", 1e3),
            "ms",
        ),
        "service.sharding.hop_overhead_ms": (
            p(latencies, 50) - inproc_p50,
            "ms",
        ),
        "service.sharding.warmup_s": (state.warmup_seconds, "s"),
        "service.sharding.close_s": (state.close_seconds, "s"),
        "service.sharding.retries": (fleet_stats.retries, "count"),
        "service.sharding.restarts": (fleet_stats.total_restarts, "count"),
        "service.shm.roundtrip_us": (shm_us, "us"),
        "service.batching.batches": (batches, "count"),
        "service.batching.coalesce_ratio": (
            completed / batches if batches else 0.0,
            "ratio",
        ),
        "service.batching.queue_wait_ms_mean": (
            1e3 * queue_wait / completed if completed else 0.0,
            "ms",
        ),
        "service.batching.padded_rows": (
            sum(e.padded_rows for e in engines),
            "count",
        ),
        "service.batching.submit_us_p50": (
            _span_p50(inproc_recorder.spans, INPROC_SPANS[0], 1e6),
            "us",
        ),
        "service.session.inproc_latency_ms_p50": (inproc_p50, "ms"),
        "service.session.inproc_throughput_ops_s": (
            sum(inproc.correct) / inproc.wall_seconds,
            "1/s",
        ),
        "service.session.sync_run_ms_p50": (p(sync_ms, 50), "ms"),
        "service.cache.compiles": (fleet_stats.merged.compiles, "count"),
        "service.rows_per_s": (rows / sharded.wall_seconds, "1/s"),
        "service.latency_ms_p99": (p(latencies, 99), "ms"),
        "observability.tracer_on_ratio": (
            p(with_tracer.all_latencies_ms(), 50) / inproc_p50,
            "ratio",
        ),
    }
