"""Run the paper's experiments from the command line (without pytest).

Usage::

    python -m repro.tools.bench fig7 [--dtype f32]
    python -m repro.tools.bench fig8-mlp [--workload MLP_1] [--dtype int8]
    python -m repro.tools.bench fig8-mha [--dtype f32] [--batches 32,64]
    python -m repro.tools.bench fig8-mlp --cache-stats  # + ServiceStats
    python -m repro.tools.bench fig7 --tune model       # autotuned params
    python -m repro.tools.bench fig7 --tune model --tuning-cache tune.json
    python -m repro.tools.bench fig8-mlp --trace trace.json  # Chrome trace
    python -m repro.tools.bench fig8-mlp --metrics      # top passes / ops
    python -m repro.tools.bench serve --clients 8       # BENCH_serving.json
    python -m repro.tools.bench serve --quick
    python -m repro.tools.bench serve --workers 4       # sharded fleet curve
    python -m repro.tools.bench serve --adaptive        # drift -> hot swap

``serve`` is a closed-loop serving load generator: N client threads fire
mixed-batch requests (Poisson-ish think times from a seeded RNG) at an
``InferenceSession`` twice — once with ``batching="off"``, once with the
dynamic micro-batching engine — asserts per-request outputs are
bit-identical across the two modes, reports throughput and latency
percentiles, and writes the ``BENCH_serving.json`` artifact.  It then
replays the same plans — every workload concurrently — through the
multi-process :class:`~repro.service.ShardedSession` at worker counts
1, 2, 4, ... ``--workers``, producing a scaling curve whose outputs must
match the one-worker fleet bit-for-bit.  With ``--adaptive`` the run
ends with the online-retuning scenario: latency drift is injected into
a served partition, the :mod:`repro.adaptive` loop detects it, retunes
off the hot path, hot-swaps the winner of the A/B trial, and the
before/degraded/after latency record lands in the (v3) artifact.

Prints the same tables the pytest benchmarks produce; handy for quick
sweeps and for regenerating EXPERIMENTS.md numbers.  With ``--tune``,
template parameters come from the autotuner (:mod:`repro.tuner`) instead
of the expert heuristic alone, and a heuristic-vs-tuned table of modeled
costs is printed after the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .. import CompilerOptions, DType, XEON_8358, compile_graph
from ..baseline import BaselineExecutor
from ..observability import (
    enable_tracing,
    format_report,
    get_registry,
    get_tracer,
    write_chrome_trace,
)
from ..perfmodel import MachineSimulator, specs_for_partition
from ..perfmodel.report import format_speedup_table, geomean
from ..service import PartitionCache, format_stats, graph_signature
from ..workloads import (
    MHA_BATCH_SIZES,
    MHA_CONFIGS,
    MLP_BATCH_SIZES,
    build_mha_graph,
    build_mlp_graph,
    individual_matmul_shapes,
)

_DTYPES = {"f32": DType.f32, "fp32": DType.f32, "int8": DType.s8, "s8": DType.s8}

#: ``--cache-stats`` routes every compilation through this cache and
#: prints its ServiceStats (per-signature compile times included) at exit.
_CACHE: Optional[PartitionCache] = None

#: ``--tune`` applies these overrides to every compilation's options.
_TUNING: Optional[dict] = None

#: ``--trace``/``--metrics`` also *execute* each compiled partition once
#: (with synthetic inputs) so the trace contains runtime spans — microkernel
#: invocations, packs, parallel loops — next to the modeled numbers.
_OBSERVE = False


def _synthetic_inputs(partition) -> dict:
    """Random arrays matching the partition's input+weight signature."""
    import numpy as np

    rng = np.random.default_rng(0)
    feed = {}
    lowered = partition.lowered
    for tensor in list(lowered.input_tensors) + list(lowered.weight_tensors):
        np_dtype = tensor.dtype.to_numpy()
        if tensor.dtype.is_floating:
            array = rng.standard_normal(tensor.shape).astype(np_dtype)
        else:
            info = np.iinfo(np_dtype)
            low, high = max(info.min, -8), min(info.max, 8)
            array = rng.integers(low, high + 1, tensor.shape).astype(np_dtype)
        feed[tensor.name] = array
    return feed


def _execute_once(partition) -> None:
    """One real execution, so runtime spans/metrics land in the trace."""
    partition.execute(_synthetic_inputs(partition))


def _effective_options(options: Optional[CompilerOptions]) -> CompilerOptions:
    options = options or CompilerOptions()
    if _TUNING is not None:
        options = dataclasses.replace(options, **_TUNING)
    return options


def _compile(graph, options: Optional[CompilerOptions]):
    options = _effective_options(options)
    if _CACHE is None:
        return compile_graph(graph, options=options)
    signature = graph_signature(graph, XEON_8358, options)
    return _CACHE.get_or_compile(
        signature,
        lambda: compile_graph(graph, options=options),
        label=graph.name,
    )


def _model_compiled(graph, options: Optional[CompilerOptions] = None) -> float:
    partition = _compile(graph, options)
    if _OBSERVE:
        _execute_once(partition)
    specs, warm = specs_for_partition(partition, XEON_8358)
    sim = MachineSimulator(XEON_8358)
    for tensor, nbytes in warm:
        sim.warm(tensor, nbytes)
    sim.run_all(specs)
    return sim.run_all(specs).total_cycles


def _model_baseline(graph) -> float:
    executor = BaselineExecutor(graph, XEON_8358)
    specs, warm = executor.specs()
    sim = MachineSimulator(XEON_8358)
    for tensor, nbytes in warm:
        sim.warm(tensor, nbytes)
    sim.run_all(specs)
    return sim.run_all(specs).total_cycles


def _single_matmul(m, k, n, dtype):
    from ..graph_ir import GraphBuilder

    b = GraphBuilder(f"mm_{m}x{k}x{n}")
    if dtype == DType.f32:
        x = b.input("x", DType.f32, (m, k))
        w = b.constant("w", dtype=DType.f32, shape=(k, n))
        b.output(b.matmul(x, w))
    else:
        xq = b.input("x", DType.u8, (m, k))
        wq = b.constant("w", dtype=DType.s8, shape=(k, n))
        b.output(
            b.matmul(
                b.dequantize(xq, scale=0.05, zero_point=8),
                b.dequantize(wq, scale=0.05),
            )
        )
    return b.finish()


def run_fig7(dtype: DType) -> None:
    rows = []
    ratios = []
    for shape in individual_matmul_shapes():
        compiled = _model_compiled(
            _single_matmul(shape.m, shape.k, shape.n, dtype)
        )
        baseline = _model_baseline(
            _single_matmul(shape.m, shape.k, shape.n, dtype)
        )
        ratios.append(baseline / compiled)
        rows.append(
            {
                "shape": shape.name,
                "baseline": round(baseline),
                "compiled": round(compiled),
                "speedup": baseline / compiled,
            }
        )
    print(
        format_speedup_table(
            f"Figure 7 — individual matmul, {dtype.value}",
            rows,
            ["shape", "baseline", "compiled", "speedup"],
        )
    )
    print(f"\ngeomean: {geomean(ratios):.3f} (paper ~1.06)")


def run_fig8_mlp(workload: str, dtype: DType, batches) -> None:
    rows = []
    speedups = []
    for batch in batches:
        baseline = _model_baseline(build_mlp_graph(workload, batch, dtype))
        no_coarse = _model_compiled(
            build_mlp_graph(workload, batch, dtype),
            CompilerOptions.no_coarse_fusion(),
        )
        full = _model_compiled(build_mlp_graph(workload, batch, dtype))
        speedups.append(baseline / full)
        rows.append(
            {
                "test": f"{workload} b{batch} {dtype.value}",
                "baseline": round(baseline),
                "no-coarse": round(no_coarse),
                "full": round(full),
                "speedup": baseline / full,
            }
        )
    print(
        format_speedup_table(
            f"Figure 8 (MLP) — {workload} {dtype.value}",
            rows,
            ["test", "baseline", "no-coarse", "full", "speedup"],
        )
    )
    print(f"\ngeomean speedup: {geomean(speedups):.2f}")


def run_fig8_mha(dtype: DType, batches) -> None:
    rows = []
    speedups = []
    for name in MHA_CONFIGS:
        for batch in batches:
            baseline = _model_baseline(build_mha_graph(name, batch, dtype))
            no_coarse = _model_compiled(
                build_mha_graph(name, batch, dtype),
                CompilerOptions.no_coarse_fusion(),
            )
            full = _model_compiled(build_mha_graph(name, batch, dtype))
            speedups.append(baseline / full)
            rows.append(
                {
                    "test": f"{name} b{batch} {dtype.value}",
                    "baseline": round(baseline),
                    "no-coarse": round(no_coarse),
                    "full": round(full),
                    "speedup": baseline / full,
                }
            )
    print(
        format_speedup_table(
            f"Figure 8 (MHA) — {dtype.value}",
            rows,
            ["test", "baseline", "no-coarse", "full", "speedup"],
        )
    )
    print(f"\ngeomean speedup: {geomean(speedups):.2f}")


#: Schema tag of the serving-bench artifact; bump on breaking changes.
BENCH_SERVING_SCHEMA = "repro.bench_serving/v2"

#: Older serving schema (no multi-worker scaling curve); committed v1
#: artifacts still validate.
BENCH_SERVING_SCHEMA_V1 = "repro.bench_serving/v1"

#: v2 plus the ``adaptive`` section: the drift-injection retuning
#: scenario recorded by ``serve --adaptive``.  Plain ``serve`` runs keep
#: writing v2; all three schemas validate.
BENCH_SERVING_SCHEMA_V3 = "repro.bench_serving/v3"

#: v3 plus the ``dynamic`` section: the bucketed-vs-shape-polymorphic
#: comparison recorded by ``serve --dynamic-batch`` (mixed 1..32 batch
#: plan, padded_rows and compile counts per mode).  Earlier schemas keep
#: validating.
BENCH_SERVING_SCHEMA_V4 = "repro.bench_serving/v4"

#: Serving modes the ``serve`` figure compares.
SERVING_MODES = ("unbatched", "batched")

#: Serving modes the ``--dynamic-batch`` scenario compares.
DYNAMIC_MODES = ("bucketed", "dynamic")


def _serving_plans(
    workload: str,
    dtype: DType,
    clients: int,
    requests: int,
    batch_sizes,
    think_ms: float,
    seed: int,
):
    """Per-client request plans: (batch, activation, think_seconds).

    One seeded RNG generates everything, so both serving modes replay the
    exact same arrival process on the exact same arrays.
    """
    import numpy as np

    from ..workloads import MLP_CONFIGS

    features = MLP_CONFIGS[workload][0]
    rng = np.random.default_rng(seed)
    plans = []
    for _ in range(clients):
        plan = []
        for _ in range(requests):
            batch = int(rng.choice(batch_sizes))
            if dtype == DType.f32:
                x = rng.standard_normal((batch, features)).astype(
                    np.float32
                )
            else:
                x = rng.integers(0, 256, (batch, features)).astype(
                    np.uint8
                )
            think = float(rng.exponential(think_ms / 1e3))
            plan.append((batch, x, think))
        plans.append(plan)
    return plans


def _run_serving_mode(
    workload: str,
    dtype: DType,
    mode: str,
    plans,
    buckets,
    max_batch: int,
    timeout_us: int,
    threads: int,
):
    """Replay the plans against one session mode.

    Returns (result dict, per-request outputs, BatchingStats or None).
    """
    import threading as _threading
    import time

    import numpy as np

    from ..service import InferenceSession
    from ..workloads import MLP_CONFIGS, make_mlp_inputs

    weights = {
        name: array
        for name, array in make_mlp_inputs(workload, 32, dtype).items()
        if name.startswith("w")
    }
    session = InferenceSession.for_workload(
        workload,
        dtype=dtype,
        weights=weights,
        batch_buckets=buckets,
        num_threads=threads,
        batching="on" if mode == "batched" else "off",
        max_batch=max_batch,
        batch_timeout_us=timeout_us,
    )
    # Compile (and init) every bucket outside the timed window: the bench
    # measures steady-state serving, not cold-start compilation.
    features = MLP_CONFIGS[workload][0]
    warm_dtype = np.float32 if dtype == DType.f32 else np.uint8
    for bucket in buckets:
        session.run({"x": np.zeros((bucket, features), warm_dtype)})

    latencies = [[0.0] * len(plan) for plan in plans]
    outputs = [[None] * len(plan) for plan in plans]
    barrier = _threading.Barrier(len(plans) + 1)
    errors = []

    def client(ci):
        try:
            barrier.wait()
            for ri, (batch, x, think) in enumerate(plans[ci]):
                if think:
                    time.sleep(think)
                t0 = time.perf_counter()
                out = session.run({"x": x})
                latencies[ci][ri] = time.perf_counter() - t0
                outputs[ci][ri] = next(iter(out.values()))
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    workers = [
        _threading.Thread(target=client, args=(ci,), name=f"client-{ci}")
        for ci in range(len(plans))
    ]
    for worker in workers:
        worker.start()
    barrier.wait()
    start = time.perf_counter()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    batching_stats = session.engine.stats() if session.engine else None
    utilization = session.stats().utilization
    session.close()

    from ..observability.quantile import from_values

    hist = from_values(
        lat for per_client in latencies for lat in per_client
    )
    summary = hist.summary(scale=1e3, digits=4)
    total_requests = hist.count
    total_rows = sum(batch for plan in plans for batch, _, _ in plan)
    result = {
        "wall_s": round(wall, 4),
        "throughput_rps": round(total_requests / wall, 2),
        "rows_per_s": round(total_rows / wall, 1),
        "latency_ms": {
            "mean": summary["mean"],
            "p50": summary["p50"],
            "p95": summary["p95"],
            "p99": summary["p99"],
            "max": summary["max"],
        },
        "utilization": round(utilization, 4),
    }
    if batching_stats is not None:
        result["batching"] = {
            "submitted": batching_stats.submitted,
            "completed": batching_stats.completed,
            "batches": batching_stats.batches,
            "utilization": round(batching_stats.utilization, 4),
            "coalesce_ratio": round(batching_stats.coalesce_ratio, 4),
            "max_requests_per_batch": batching_stats.max_requests_per_batch,
            "padded_rows": batching_stats.padded_rows,
            "mean_queue_wait_ms": round(
                batching_stats.mean_queue_wait_seconds * 1e3, 4
            ),
        }
    return result, outputs, batching_stats


#: Mixed batch plan of the ``--dynamic-batch`` scenario: the whole 1..32
#: range a bucket set cannot cover without padding (primes, non-divisors
#: of the microkernel tile, the bucket boundaries themselves).
DYNAMIC_BATCH_SIZES = (1, 2, 3, 5, 8, 12, 17, 24, 32)


def _run_dynamic_mode(
    workload: str,
    dtype: DType,
    mode: str,
    plans,
    buckets,
    max_batch: int,
    timeout_us: int,
    threads: int,
):
    """Replay the plans against one ``--dynamic-batch`` scenario mode.

    ``bucketed`` is the static path (round up, pad, slice);
    ``dynamic`` serves the same plan through one shape-polymorphic
    partition.  Both run with micro-batching on.  Returns
    (result dict, per-request outputs); the result carries the mode's
    compile count and padded-row total — the two numbers the scenario
    exists to compare.
    """
    import threading as _threading
    import time

    import numpy as np

    from ..core.compiler import compile_counter
    from ..service import InferenceSession
    from ..workloads import MLP_CONFIGS, make_mlp_inputs

    weights = {
        name: array
        for name, array in make_mlp_inputs(workload, 32, dtype).items()
        if name.startswith("w")
    }
    session = InferenceSession.for_workload(
        workload,
        dtype=dtype,
        weights=weights,
        batch_buckets=buckets if mode == "bucketed" else None,
        dynamic_batch="on" if mode == "dynamic" else "off",
        num_threads=threads,
        batching="on",
        max_batch=max_batch,
        batch_timeout_us=timeout_us,
    )
    features = MLP_CONFIGS[workload][0]
    warm_dtype = np.float32 if dtype == DType.f32 else np.uint8
    with compile_counter() as compiles:
        # Warm every partition the replay can touch, then replay; the
        # counter spans both so lazy compiles cannot hide from it.
        warm_batches = buckets if mode == "bucketed" else [max(buckets)]
        for batch in warm_batches:
            session.run({"x": np.zeros((batch, features), warm_dtype)})

        latencies = [[0.0] * len(plan) for plan in plans]
        outputs = [[None] * len(plan) for plan in plans]
        barrier = _threading.Barrier(len(plans) + 1)
        errors = []

        def client(ci):
            try:
                barrier.wait()
                for ri, (batch, x, think) in enumerate(plans[ci]):
                    if think:
                        time.sleep(think)
                    t0 = time.perf_counter()
                    out = session.run({"x": x})
                    latencies[ci][ri] = time.perf_counter() - t0
                    outputs[ci][ri] = next(iter(out.values()))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        workers = [
            _threading.Thread(
                target=client, args=(ci,), name=f"client-{ci}"
            )
            for ci in range(len(plans))
        ]
        for worker in workers:
            worker.start()
        barrier.wait()
        start = time.perf_counter()
        for worker in workers:
            worker.join()
        wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    batching_stats = session.engine.stats()
    session.close()

    from ..observability.quantile import from_values

    hist = from_values(
        lat for per_client in latencies for lat in per_client
    )
    summary = hist.summary(scale=1e3, digits=4)
    total_rows = sum(batch for plan in plans for batch, _, _ in plan)
    result = {
        "wall_s": round(wall, 4),
        "throughput_rps": round(hist.count / wall, 2),
        "rows_per_s": round(total_rows / wall, 1),
        "latency_ms": {
            "mean": summary["mean"],
            "p50": summary["p50"],
            "p95": summary["p95"],
            "p99": summary["p99"],
            "max": summary["max"],
        },
        "compiles": compiles.count,
        "padded_rows": batching_stats.padded_rows,
        "batches": batching_stats.batches,
        "coalesce_ratio": round(batching_stats.coalesce_ratio, 4),
        "utilization": round(batching_stats.utilization, 4),
    }
    return result, outputs


def run_dynamic_scenario(
    workload: str,
    dtype: DType,
    clients: int,
    requests: int,
    buckets,
    max_batch: int,
    timeout_us: int,
    think_ms: float,
    seed: int,
    threads: int,
) -> dict:
    """The ``serve --dynamic-batch`` figure: padding eliminated at source.

    One seeded mixed-batch plan (1..32) replays through the static
    bucketed path and through one shape-polymorphic partition.  The
    record shows what the tentpole claims: the dynamic mode compiles
    once, pads zero rows, and returns bit-identical outputs at equal or
    better throughput.
    """
    import numpy as np

    plans = _serving_plans(
        workload,
        dtype,
        clients,
        requests,
        DYNAMIC_BATCH_SIZES,
        think_ms,
        seed,
    )
    section = {
        "workload": workload,
        "dtype": dtype.value,
        "batch_sizes": list(DYNAMIC_BATCH_SIZES),
        "buckets": list(buckets),
        "modes": list(DYNAMIC_MODES),
    }
    outputs = {}
    for mode in DYNAMIC_MODES:
        result, outs = _run_dynamic_mode(
            workload,
            dtype,
            mode,
            plans,
            buckets,
            max_batch,
            timeout_us,
            threads,
        )
        section[mode] = result
        outputs[mode] = outs
    section["identical"] = all(
        a is not None and b is not None and np.array_equal(a, b)
        for client_a, client_b in zip(
            outputs["bucketed"], outputs["dynamic"]
        )
        for a, b in zip(client_a, client_b)
    )
    section["speedup"] = round(
        section["dynamic"]["throughput_rps"]
        / section["bucketed"]["throughput_rps"],
        4,
    )
    return section


def _worker_levels(max_workers: int, quick: bool = False) -> List[int]:
    """The worker counts the scaling curve measures: 1, 2, 4, ... N."""
    if quick:
        return sorted({1, max_workers})
    levels = [1]
    while levels[-1] * 2 < max_workers:
        levels.append(levels[-1] * 2)
    if levels[-1] != max_workers:
        levels.append(max_workers)
    return levels


def _run_sharded_level(
    workloads,
    dtype: DType,
    plans_by_workload,
    shard_buckets,
    max_batch: int,
    timeout_us: int,
    threads: int,
    num_workers: int,
):
    """Replay every workload's plans concurrently through one fleet.

    All workloads are served by a single :class:`ShardedSession` with
    ``num_workers`` worker processes — sharding scales across distinct
    partition signatures (workload x bucket), so the fleet only shows a
    scaling curve when the whole workload mix is in flight at once.
    Returns (result dict, outputs keyed by workload, worker spans).
    """
    import threading as _threading
    import time

    import numpy as np

    from ..observability import get_tracer
    from ..service import ModelSpec, ShardedSession
    from ..workloads import make_mlp_inputs

    specs = [
        ModelSpec(
            name=workload,
            workload=workload,
            dtype=dtype,
            weights={
                name: array
                for name, array in make_mlp_inputs(
                    workload, 32, dtype
                ).items()
                if name.startswith("w")
            },
            batch_buckets=tuple(shard_buckets),
        )
        for workload in workloads
    ]
    session = ShardedSession(
        specs,
        num_workers=num_workers,
        num_threads=threads,
        max_batch=max_batch,
        batch_timeout_us=timeout_us,
    )
    # Pre-compile every (workload, bucket) pair in its home worker so the
    # timed window measures steady-state serving, not cold compiles.
    session.warm_up()

    latencies = {
        workload: [[0.0] * len(plan) for plan in plans]
        for workload, plans in plans_by_workload.items()
    }
    outputs = {
        workload: [[None] * len(plan) for plan in plans]
        for workload, plans in plans_by_workload.items()
    }
    total_clients = sum(len(p) for p in plans_by_workload.values())
    barrier = _threading.Barrier(total_clients + 1)
    errors = []

    def client(workload, ci):
        try:
            barrier.wait()
            for ri, (batch, x, think) in enumerate(
                plans_by_workload[workload][ci]
            ):
                if think:
                    time.sleep(think)
                t0 = time.perf_counter()
                out = session.run({"x": x}, model=workload)
                latencies[workload][ci][ri] = time.perf_counter() - t0
                outputs[workload][ci][ri] = next(iter(out.values()))
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    clients = [
        _threading.Thread(
            target=client,
            args=(workload, ci),
            name=f"client-{workload}-{ci}",
        )
        for workload, plans in plans_by_workload.items()
        for ci in range(len(plans))
    ]
    for thread in clients:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in clients:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        session.close()
        raise errors[0]
    fleet_stats = session.stats()
    worker_spans = (
        session.collect_worker_spans() if get_tracer().enabled else {}
    )
    # Full metric state (histogram buckets included) from every worker —
    # merged later, together with the front end's registry, into one
    # Prometheus scrape.  Workers only: the CLI snapshots the front-end
    # registry once, at trace-write time.
    metrics_records = session.metrics_records(include_self=False)
    session.close()

    from ..observability.quantile import from_values

    hist = from_values(
        lat
        for per_workload in latencies.values()
        for per_client in per_workload
        for lat in per_client
    )
    summary = hist.summary(scale=1e3, digits=4)
    total_rows = sum(
        batch
        for plans in plans_by_workload.values()
        for plan in plans
        for batch, _, _ in plan
    )
    result = {
        "workers": num_workers,
        "wall_s": round(wall, 4),
        "throughput_rps": round(hist.count / wall, 2),
        "rows_per_s": round(total_rows / wall, 1),
        "latency_ms": {
            "mean": summary["mean"],
            "p50": summary["p50"],
            "p95": summary["p95"],
            "p99": summary["p99"],
            "max": summary["max"],
        },
        "utilization": round(fleet_stats.merged.utilization, 4),
        "compiles": fleet_stats.merged.compiles,
        "retries": fleet_stats.retries,
        "restarts": fleet_stats.total_restarts,
        "placement": fleet_stats.placement(),
    }
    return result, outputs, worker_spans, metrics_records


def _phase_stats(latencies) -> dict:
    """Latency summary (ms) for one phase of the adaptive scenario."""
    from ..observability.quantile import from_values

    summary = from_values(latencies).summary(scale=1e3, digits=4)
    return {
        "requests": summary["count"],
        "mean_ms": summary["mean"],
        "p50_ms": summary["p50"],
        "p95_ms": summary["p95"],
        "max_ms": summary["max"],
    }


def run_adaptive_scenario(
    workload: str = "MLP_1",
    dtype: DType = DType.f32,
    bucket: int = 32,
    requests: int = 30,
    threads: int = 1,
    drift_ms: float = 20.0,
    timeout_s: float = 120.0,
    seed: int = 0,
    adaptive_config=None,
) -> dict:
    """Drift → detect → retune → A/B trial → hot swap, measured live.

    Serves one (workload, bucket) signature through an
    ``InferenceSession(adaptive="on")`` in three phases: a healthy
    *before* window, an injected-drift window (a fixed ``drift_ms``
    delay wrapped around the incumbent partition — the adaptive loop
    sees only the latency drift, exactly as with genuine degradation),
    and an *after* window once the background retuner's challenger has
    won its A/B trial and been hot-swapped in.  Every response is
    checked against the first (``identical`` is tolerance-based:
    recompiled partitions may use different blocking, so float
    accumulation order can differ).

    Returns the ``adaptive`` section of the v3 serving artifact.
    """
    import time

    import numpy as np

    from ..adaptive import AdaptiveConfig
    from ..service import InferenceSession
    from ..workloads import make_mlp_inputs

    config = adaptive_config or AdaptiveConfig(
        poll_interval_s=0.02,
        drift_threshold=1.3,
        window=2,
        min_executes=3,
        trial_requests=3,
        cooldown_polls=2,
        retune_budget=16,
        retune_repeats=1,
        win_margin=0.01,
    )
    data = make_mlp_inputs(workload, bucket, dtype, seed=seed)
    weights = {k: v for k, v in data.items() if k.startswith("w")}
    feed = {"x": data["x"]}
    session = InferenceSession.for_workload(
        workload,
        dtype=dtype,
        weights=weights,
        batch_buckets=[bucket],
        num_threads=threads,
        batching="off",
        adaptive="on",
        adaptive_config=config,
    )
    manager = session.adaptive_manager
    try:
        reference = session.run(dict(feed))  # compile outside any window
        consistent = True

        def timed_run():
            nonlocal consistent
            start = time.perf_counter()
            out = session.run(dict(feed))
            elapsed = time.perf_counter() - start
            for name in reference:
                if not np.allclose(
                    out[name], reference[name], rtol=2e-5, atol=2e-5
                ):
                    consistent = False
            return elapsed

        before = [timed_run() for _ in range(requests)]
        signature = session.cache.stats().signatures[0].signature
        problems = session.tuning_problems(signature)

        if not manager.inject_drift(signature, drift_ms / 1e3):
            raise RuntimeError("drift injection failed (signature evicted?)")
        injected_at = time.perf_counter()
        # Degraded traffic doubles as detection traffic: the background
        # loop watches the latency EWMA rise, retunes, and runs the A/B
        # trial while these requests are in flight.
        degraded = [timed_run() for _ in range(requests)]
        deadline = injected_at + timeout_s
        while manager.swaps < 1 and time.perf_counter() < deadline:
            degraded.append(timed_run())
        time_to_swap = time.perf_counter() - injected_at
        swapped = manager.swaps >= 1

        after = [timed_run() for _ in range(requests)]
        report = manager.report()
    finally:
        session.close()

    before_stats = _phase_stats(before)
    degraded_stats = _phase_stats(degraded)
    after_stats = _phase_stats(after)
    return {
        "workload": workload,
        "dtype": dtype.value,
        "bucket": bucket,
        "drift_delay_ms": drift_ms,
        "tuning_problems": len(problems),
        "config": {
            "drift_threshold": config.drift_threshold,
            "window": config.window,
            "min_executes": config.min_executes,
            "trial_fraction": config.trial_fraction,
            "trial_requests": config.trial_requests,
            "win_margin": config.win_margin,
            "retune_budget": config.retune_budget,
        },
        "before": before_stats,
        "degraded": degraded_stats,
        "after": after_stats,
        "swaps": report["swaps"],
        "drift_detections": report["drift_detections"],
        "signatures": report["signatures"],
        "time_to_swap_s": round(time_to_swap, 4) if swapped else None,
        # The swap must undo the injected drift: post-swap latency back
        # under half the degraded mean (degraded mean >= drift_ms).
        "recovered": swapped
        and after_stats["mean_ms"] < degraded_stats["mean_ms"] / 2,
        "identical": consistent,
    }


def run_serve(
    workloads,
    dtype: DType,
    clients: int,
    requests: int,
    batch_sizes,
    buckets,
    max_batch: int,
    timeout_us: int,
    think_ms: float,
    seed: int,
    threads: int,
    workers: int = 1,
    shard_buckets=None,
    quick: bool = False,
    adaptive: bool = False,
    drift_ms: float = 20.0,
    dynamic: bool = False,
) -> dict:
    """Unbatched-vs-batched comparison plus a sharded scaling curve.

    Returns the ``BENCH_serving.json`` document (schema
    ``repro.bench_serving/v2``; v3 with ``adaptive=True``, which
    appends the :func:`run_adaptive_scenario` drift-injection record;
    v4 with ``dynamic=True``, which appends the
    :func:`run_dynamic_scenario` bucketed-vs-shape-polymorphic record);
    per-request outputs must be bit-identical
    across the two single-process modes or ``identical`` is false (a
    schema violation).  The ``sharding`` section replays the same request
    plans — every workload concurrently — through a
    :class:`~repro.service.ShardedSession` at each worker count in
    1, 2, 4, ... ``workers``, comparing each level's outputs against the
    one-worker fleet bit-for-bit.
    """
    import numpy as np

    entries = []
    stats_by_workload = {}
    plans_by_workload = {}
    for workload in workloads:
        plans = _serving_plans(
            workload, dtype, clients, requests, batch_sizes, think_ms, seed
        )
        plans_by_workload[workload] = plans
        entry = {"name": workload}
        outputs = {}
        for mode in SERVING_MODES:
            result, outs, batching_stats = _run_serving_mode(
                workload,
                dtype,
                mode,
                plans,
                buckets,
                max_batch,
                timeout_us,
                threads,
            )
            entry[mode] = result
            outputs[mode] = outs
            if batching_stats is not None:
                stats_by_workload[workload] = batching_stats
        entry["speedup"] = round(
            entry["batched"]["throughput_rps"]
            / entry["unbatched"]["throughput_rps"],
            4,
        )
        entry["identical"] = all(
            a is not None
            and b is not None
            and np.array_equal(a, b)
            for client_a, client_b in zip(
                outputs["unbatched"], outputs["batched"]
            )
            for a, b in zip(client_a, client_b)
        )
        entries.append(entry)

    # -- sharded fleet: the multi-worker scaling curve ------------------------
    if shard_buckets is None:
        shard_buckets = sorted(set(int(b) for b in batch_sizes))
    levels = _worker_levels(workers, quick=quick)
    curve = []
    baseline_outputs = None
    baseline_rps = None
    worker_spans = {}
    fleet_metrics: List[list] = []
    for level in levels:
        result, outputs, spans, metrics_records = _run_sharded_level(
            workloads,
            dtype,
            plans_by_workload,
            shard_buckets,
            max_batch,
            timeout_us,
            threads,
            level,
        )
        if baseline_outputs is None:
            baseline_outputs = outputs
            baseline_rps = result["throughput_rps"]
            result["identical"] = True
        else:
            result["identical"] = all(
                a is not None
                and b is not None
                and np.array_equal(a, b)
                for workload in workloads
                for client_a, client_b in zip(
                    baseline_outputs[workload], outputs[workload]
                )
                for a, b in zip(client_a, client_b)
            )
        result["speedup"] = round(
            result["throughput_rps"] / baseline_rps, 4
        )
        curve.append(result)
        if spans:
            worker_spans = spans
        if metrics_records:
            fleet_metrics = metrics_records
    import os as _os

    sharding = {
        "buckets": list(shard_buckets),
        "slots_per_worker": 8,
        "workers": levels,
        "max_workers": workers,
        # Worker processes only scale on real cores; a curve measured on
        # fewer cores than workers is a correctness record, not a perf one.
        "host_cpus": _os.cpu_count(),
        "curve": curve,
        "speedup": curve[-1]["speedup"],
        "identical": all(entry["identical"] for entry in curve),
    }

    document = {
        "schema": BENCH_SERVING_SCHEMA,
        "machine": "XEON_8358",
        "dtype": dtype.value,
        "clients": clients,
        "requests_per_client": requests,
        "batch_sizes": list(batch_sizes),
        "buckets": list(buckets),
        "max_batch": max_batch,
        "batch_timeout_us": timeout_us,
        "think_ms": think_ms,
        "seed": seed,
        "num_threads": threads,
        "modes": list(SERVING_MODES),
        "workloads": entries,
        "geomean_speedup": round(
            geomean([entry["speedup"] for entry in entries]), 4
        ),
        "sharding": sharding,
    }
    if adaptive:
        document["adaptive"] = run_adaptive_scenario(
            workload=workloads[0],
            dtype=dtype,
            bucket=buckets[0],
            requests=8 if quick else 30,
            threads=threads,
            drift_ms=drift_ms,
            seed=seed,
        )
        document["schema"] = BENCH_SERVING_SCHEMA_V3
    if dynamic:
        document["dynamic"] = run_dynamic_scenario(
            workload=workloads[0],
            dtype=dtype,
            clients=clients,
            requests=8 if quick else requests,
            buckets=buckets,
            max_batch=max_batch,
            timeout_us=timeout_us,
            think_ms=think_ms,
            seed=seed,
            threads=threads,
        )
        document["schema"] = BENCH_SERVING_SCHEMA_V4
    document["_batching_stats"] = stats_by_workload  # stripped before dump
    document["_worker_spans"] = worker_spans  # stripped before dump
    document["_metrics_records"] = fleet_metrics  # stripped before dump
    return document


def validate_bench_serving(document: dict) -> List[str]:
    """Schema check for BENCH_serving.json; returns a list of problems.

    Accepts ``repro.bench_serving/v4`` (with the dynamic-batch
    comparison), v3 (with the adaptive retuning scenario), v2 (with the
    sharded worker-scaling curve) and the older v1 (without any), so
    committed artifacts keep validating.
    """
    errors: List[str] = []
    if not isinstance(document, dict):
        return ["document is not an object"]
    schema = document.get("schema")
    if schema not in (
        BENCH_SERVING_SCHEMA_V4,
        BENCH_SERVING_SCHEMA_V3,
        BENCH_SERVING_SCHEMA,
        BENCH_SERVING_SCHEMA_V1,
    ):
        errors.append(
            f"schema is {schema!r}, expected {BENCH_SERVING_SCHEMA_V4!r} "
            f"(or legacy {BENCH_SERVING_SCHEMA_V3!r} / "
            f"{BENCH_SERVING_SCHEMA!r} / {BENCH_SERVING_SCHEMA_V1!r})"
        )
    for key in (
        "machine",
        "dtype",
        "clients",
        "requests_per_client",
        "batch_sizes",
        "buckets",
        "max_batch",
        "batch_timeout_us",
        "seed",
        "modes",
        "geomean_speedup",
    ):
        if key not in document:
            errors.append(f"missing key {key!r}")
    if not isinstance(document.get("clients"), int) or (
        isinstance(document.get("clients"), int)
        and document["clients"] < 1
    ):
        errors.append("clients must be a positive integer")
    workloads = document.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        errors.append("workloads must be a non-empty list")
        return errors
    for index, entry in enumerate(workloads):
        where = f"workloads[{index}]"
        if not isinstance(entry, dict):
            errors.append(f"{where} is not an object")
            continue
        if not isinstance(entry.get("name"), str):
            errors.append(f"{where}.name missing or not a string")
        for mode in SERVING_MODES:
            result = entry.get(mode)
            if not isinstance(result, dict):
                errors.append(f"{where}.{mode} missing")
                continue
            rps = result.get("throughput_rps")
            if not isinstance(rps, (int, float)) or rps <= 0:
                errors.append(
                    f"{where}.{mode}.throughput_rps must be positive"
                )
            if not isinstance(result.get("latency_ms"), dict):
                errors.append(f"{where}.{mode}.latency_ms missing")
        batched = entry.get("batched")
        if isinstance(batched, dict) and not isinstance(
            batched.get("batching"), dict
        ):
            errors.append(f"{where}.batched.batching stats missing")
        if not isinstance(entry.get("speedup"), (int, float)):
            errors.append(f"{where}.speedup missing")
        if entry.get("identical") is not True:
            errors.append(
                f"{where}: modes disagree (identical != true)"
            )
    if schema in (
        BENCH_SERVING_SCHEMA,
        BENCH_SERVING_SCHEMA_V3,
        BENCH_SERVING_SCHEMA_V4,
    ):
        sharding = document.get("sharding")
        if not isinstance(sharding, dict):
            errors.append("missing sharding section (required by v2+)")
            return errors
        curve = sharding.get("curve")
        if not isinstance(curve, list) or not curve:
            errors.append("sharding.curve must be a non-empty list")
            return errors
        for index, point in enumerate(curve):
            where = f"sharding.curve[{index}]"
            if not isinstance(point, dict):
                errors.append(f"{where} is not an object")
                continue
            count = point.get("workers")
            if not isinstance(count, int) or count < 1:
                errors.append(f"{where}.workers must be a positive integer")
            rps = point.get("throughput_rps")
            if not isinstance(rps, (int, float)) or rps <= 0:
                errors.append(f"{where}.throughput_rps must be positive")
            if not isinstance(point.get("latency_ms"), dict):
                errors.append(f"{where}.latency_ms missing")
            if point.get("identical") is not True:
                errors.append(
                    f"{where}: outputs differ from the one-worker fleet "
                    "(identical != true)"
                )
        if not isinstance(sharding.get("speedup"), (int, float)):
            errors.append("sharding.speedup missing")
    # v3 requires the adaptive section; v4 validates it when present
    # (--dynamic-batch and --adaptive are independent flags).
    if schema == BENCH_SERVING_SCHEMA_V3 or (
        schema == BENCH_SERVING_SCHEMA_V4 and "adaptive" in document
    ):
        adaptive = document.get("adaptive")
        if not isinstance(adaptive, dict):
            errors.append("missing adaptive section (required by v3)")
            return errors
        for key in (
            "workload",
            "bucket",
            "drift_delay_ms",
            "before",
            "degraded",
            "after",
            "swaps",
            "drift_detections",
            "time_to_swap_s",
        ):
            if key not in adaptive:
                errors.append(f"adaptive.{key} missing")
        for phase in ("before", "degraded", "after"):
            stats = adaptive.get(phase)
            if not isinstance(stats, dict) or not (
                isinstance(stats.get("mean_ms"), (int, float))
                and stats["mean_ms"] > 0
            ):
                errors.append(f"adaptive.{phase}.mean_ms must be positive")
        swaps = adaptive.get("swaps")
        if not isinstance(swaps, int) or swaps < 1:
            errors.append("adaptive.swaps must be >= 1 (no hot swap)")
        if adaptive.get("recovered") is not True:
            errors.append(
                "adaptive: post-swap latency did not recover "
                "(recovered != true)"
            )
        if adaptive.get("identical") is not True:
            errors.append(
                "adaptive: outputs drifted across the swap "
                "(identical != true)"
            )
    if schema == BENCH_SERVING_SCHEMA_V4:
        dynamic = document.get("dynamic")
        if not isinstance(dynamic, dict):
            errors.append("missing dynamic section (required by v4)")
            return errors
        for mode in DYNAMIC_MODES:
            result = dynamic.get(mode)
            if not isinstance(result, dict):
                errors.append(f"dynamic.{mode} missing")
                continue
            rps = result.get("throughput_rps")
            if not isinstance(rps, (int, float)) or rps <= 0:
                errors.append(
                    f"dynamic.{mode}.throughput_rps must be positive"
                )
            if not isinstance(result.get("compiles"), int):
                errors.append(f"dynamic.{mode}.compiles missing")
            if not isinstance(result.get("padded_rows"), int):
                errors.append(f"dynamic.{mode}.padded_rows missing")
        dyn_mode = dynamic.get("dynamic")
        if isinstance(dyn_mode, dict):
            # The two numbers the tentpole promises: zero padding and a
            # single compile covering the whole batch distribution.
            if dyn_mode.get("padded_rows") != 0:
                errors.append(
                    "dynamic.dynamic.padded_rows must be 0 "
                    "(shape-polymorphic execution never pads)"
                )
            if dyn_mode.get("compiles") != 1:
                errors.append(
                    "dynamic.dynamic.compiles must be 1 "
                    "(one partition serves every batch)"
                )
        if dynamic.get("identical") is not True:
            errors.append(
                "dynamic: modes disagree (identical != true)"
            )
        if not isinstance(dynamic.get("speedup"), (int, float)):
            errors.append("dynamic.speedup missing")
    return errors


def _print_serve_report(document: dict) -> None:
    from ..service import format_batching_stats

    rows = []
    for entry in document["workloads"]:
        for mode in document["modes"]:
            result = entry[mode]
            rows.append(
                {
                    "test": f"{entry['name']} [{mode}]",
                    "req/s": result["throughput_rps"],
                    "rows/s": result["rows_per_s"],
                    "p50ms": result["latency_ms"]["p50"],
                    "p95ms": result["latency_ms"]["p95"],
                    "p99ms": result["latency_ms"]["p99"],
                    "util": f"{result['utilization']:.0%}",
                }
            )
    print(
        format_speedup_table(
            f"Serving — {document['clients']} clients, batch sizes "
            f"{document['batch_sizes']}, buckets {document['buckets']}, "
            f"{document['dtype']}",
            rows,
            ["test", "req/s", "rows/s", "p50ms", "p95ms", "p99ms", "util"],
        )
    )
    for entry in document["workloads"]:
        print(
            f"{entry['name']}: batched throughput {entry['speedup']:.2f}x "
            f"unbatched, identical={str(entry['identical']).lower()}"
        )
    print(f"geomean speedup: {document['geomean_speedup']:.2f}")
    for workload, stats in document.get("_batching_stats", {}).items():
        print()
        print(f"[{workload}] " + format_batching_stats(stats))
    sharding = document.get("sharding")
    if sharding:
        rows = [
            {
                "workers": point["workers"],
                "req/s": point["throughput_rps"],
                "rows/s": point["rows_per_s"],
                "p50ms": point["latency_ms"]["p50"],
                "p99ms": point["latency_ms"]["p99"],
                "speedup": point["speedup"],
                "identical": str(point["identical"]).lower(),
            }
            for point in sharding["curve"]
        ]
        print()
        print(
            format_speedup_table(
                f"Sharded fleet — all workloads concurrent, buckets "
                f"{sharding['buckets']}",
                rows,
                [
                    "workers",
                    "req/s",
                    "rows/s",
                    "p50ms",
                    "p99ms",
                    "speedup",
                    "identical",
                ],
            )
        )
        top = sharding["curve"][-1]
        for worker, labels in sorted(top.get("placement", {}).items()):
            print(
                f"  {worker}: "
                f"{', '.join(labels) if labels else '(no partitions)'}"
            )
        print(
            f"sharded speedup at {top['workers']} workers: "
            f"{sharding['speedup']:.2f}x over one worker, "
            f"identical={str(sharding['identical']).lower()}"
        )
        host_cpus = sharding.get("host_cpus")
        if host_cpus is not None and host_cpus < sharding["max_workers"]:
            print(
                f"note: host has {host_cpus} cpu(s) for "
                f"{sharding['max_workers']} workers — the curve "
                "verifies correctness under sharding; throughput "
                "scaling needs one core per worker"
            )
    adaptive = document.get("adaptive")
    if adaptive:
        rows = [
            {
                "phase": phase,
                "req": adaptive[phase]["requests"],
                "mean_ms": adaptive[phase]["mean_ms"],
                "p50ms": adaptive[phase]["p50_ms"],
                "p95ms": adaptive[phase]["p95_ms"],
            }
            for phase in ("before", "degraded", "after")
        ]
        print()
        print(
            format_speedup_table(
                f"Adaptive retuning — {adaptive['workload']} "
                f"b{adaptive['bucket']}, injected drift "
                f"+{adaptive['drift_delay_ms']:.1f}ms",
                rows,
                ["phase", "req", "mean_ms", "p50ms", "p95ms"],
            )
        )
        swap_note = (
            f"hot-swapped in {adaptive['time_to_swap_s']:.2f}s"
            if adaptive.get("time_to_swap_s") is not None
            else "no swap happened"
        )
        print(
            f"swaps={adaptive['swaps']} "
            f"drift_detections={adaptive['drift_detections']} "
            f"({swap_note}), "
            f"recovered={str(adaptive['recovered']).lower()}, "
            f"identical={str(adaptive['identical']).lower()}"
        )
    dynamic = document.get("dynamic")
    if dynamic:
        rows = [
            {
                "mode": mode,
                "req/s": dynamic[mode]["throughput_rps"],
                "rows/s": dynamic[mode]["rows_per_s"],
                "p50ms": dynamic[mode]["latency_ms"]["p50"],
                "p99ms": dynamic[mode]["latency_ms"]["p99"],
                "compiles": dynamic[mode]["compiles"],
                "padded": dynamic[mode]["padded_rows"],
            }
            for mode in dynamic["modes"]
        ]
        print()
        print(
            format_speedup_table(
                f"Dynamic batch — {dynamic['workload']} mixed batches "
                f"{dynamic['batch_sizes']}, buckets {dynamic['buckets']}",
                rows,
                [
                    "mode",
                    "req/s",
                    "rows/s",
                    "p50ms",
                    "p99ms",
                    "compiles",
                    "padded",
                ],
            )
        )
        print(
            f"dynamic throughput {dynamic['speedup']:.2f}x bucketed, "
            f"identical={str(dynamic['identical']).lower()}"
        )


def _print_tuning_report(results) -> None:
    """Heuristic-vs-tuned modeled costs for every tuned matmul problem."""
    if not results:
        print("\n(no tuning decisions were made)")
        return
    rows = []
    ratios = []
    seen = set()
    for r in results:
        label = f"b{r.batch} {r.m}x{r.k}x{r.n} {r.dtype.value}"
        if label in seen:
            continue
        seen.add(label)
        ratios.append(r.speedup_vs_heuristic)
        rows.append(
            {
                "problem": label,
                "heuristic": round(r.heuristic_cost),
                "tuned": round(r.cost),
                "source": r.source,
                "speedup": r.speedup_vs_heuristic,
            }
        )
    print()
    print(
        format_speedup_table(
            "Autotuning — modeled cycles, heuristic vs tuned",
            rows,
            ["problem", "heuristic", "tuned", "source", "speedup"],
        )
    )
    print(f"\ngeomean tuned speedup (modeled): {geomean(ratios):.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.bench", description=__doc__
    )
    parser.add_argument(
        "figure",
        choices=["fig7", "fig8-mlp", "fig8-mha", "serve"],
    )
    parser.add_argument("--dtype", choices=sorted(_DTYPES), default="f32")
    parser.add_argument(
        "--workload",
        default=None,
        help="workload for fig8-mlp (default MLP_1) or `serve` "
        "(default: every MLP workload)",
    )
    parser.add_argument(
        "--batches",
        help="comma-separated batch sizes (defaults to the paper's; "
        "for `serve`, the per-request batch sizes clients draw from, "
        "default 1,2,4,8)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="`serve`: num_threads for each session's partitions",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="where `serve` writes its artifact "
        "(default: BENCH_serving.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="`serve` smoke mode: one workload, few requests",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=8,
        metavar="N",
        help="`serve`: number of closed-loop client threads",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=30,
        metavar="N",
        help="`serve`: requests per client thread",
    )
    parser.add_argument(
        "--buckets",
        default="32",
        metavar="B1,B2",
        help="`serve`: session shape buckets (default 32)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=32,
        metavar="N",
        help="`serve`: most requests one coalesced execution may contain",
    )
    parser.add_argument(
        "--timeout-us",
        type=int,
        default=2000,
        metavar="US",
        help="`serve`: micro-batching coalescing window in microseconds",
    )
    parser.add_argument(
        "--think-ms",
        type=float,
        default=0.2,
        metavar="MS",
        help="`serve`: mean of the exponential client think time",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="`serve`: RNG seed for request plans and think times",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="`serve`: max worker processes for the sharded fleet phase; "
        "the scaling curve measures 1, 2, 4, ... N workers",
    )
    parser.add_argument(
        "--shard-buckets",
        default=None,
        metavar="B1,B2",
        help="`serve`: shape buckets of the sharded fleet (default: the "
        "request batch sizes, one signature per workload x bucket)",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="`serve`: run the online-retuning scenario (inject latency "
        "drift, wait for the adaptive loop to retune and hot-swap the "
        "partition, record before/degraded/after latency); writes the "
        "v3 serving artifact",
    )
    parser.add_argument(
        "--drift-ms",
        type=float,
        default=20.0,
        metavar="MS",
        help="`serve --adaptive`: injected per-request delay simulating "
        "tuning drift",
    )
    parser.add_argument(
        "--dynamic-batch",
        action="store_true",
        help="`serve`: replay a mixed 1..32 batch plan through the "
        "static bucketed path and through one shape-polymorphic "
        "(symbolic batch dim) partition, recording throughput, latency, "
        "padded rows and compile counts per mode; writes the v4 serving "
        "artifact",
    )
    parser.add_argument(
        "--min-shard-speedup",
        type=float,
        default=None,
        metavar="X",
        help="`serve`: fail unless the sharded fleet at --workers reaches "
        "X times the one-worker throughput",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="`serve`: fail unless batched/unbatched geomean throughput "
        "reaches X",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="serve compilations through a PartitionCache and print its "
        "ServiceStats (per-signature compile times) after the run",
    )
    parser.add_argument(
        "--tune",
        choices=["model", "measured"],
        help="select template parameters with the autotuner instead of "
        "the heuristic alone; prints a heuristic-vs-tuned cost table",
    )
    parser.add_argument(
        "--tuning-cache",
        metavar="PATH",
        help="persist tuning results to this JSON file (reused across runs)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record spans for every compile and one execution per "
        "workload, then write a Chrome trace-event JSON (open in "
        "chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the top-passes / top-ops report and the metrics "
        "registry after the run",
    )
    args = parser.parse_args(argv)
    dtype = _DTYPES[args.dtype]
    global _CACHE, _TUNING, _OBSERVE
    _CACHE = PartitionCache() if args.cache_stats else None
    _OBSERVE = bool(args.trace or args.metrics)
    if _OBSERVE:
        enable_tracing()
    tuning_results: List = []
    if args.tune:
        from ..tuner import add_tuning_hook, remove_tuning_hook

        _TUNING = {
            "tuning": args.tune,
            "tuning_cache_path": args.tuning_cache,
        }
        add_tuning_hook(tuning_results.append)
    elif args.tuning_cache:
        parser.error("--tuning-cache requires --tune")
    if args.figure == "serve":
        import json

        from ..workloads import MLP_CONFIGS

        if args.workload is not None:
            name = args.workload.upper()
            if name not in MLP_CONFIGS:
                parser.error(
                    f"serve supports the MLP workloads, not {args.workload!r}"
                )
            serve_workloads = [name]
        else:
            serve_workloads = sorted(MLP_CONFIGS)
        requests = args.requests
        if args.quick:
            serve_workloads = serve_workloads[:1]
            requests = min(requests, 6)
        batch_sizes = (
            [int(v) for v in args.batches.split(",")]
            if args.batches
            else [1, 2, 4, 8]
        )
        buckets = [int(v) for v in args.buckets.split(",")]
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        shard_buckets = (
            [int(v) for v in args.shard_buckets.split(",")]
            if args.shard_buckets
            else None
        )
        try:
            document = run_serve(
                serve_workloads,
                dtype,
                args.clients,
                requests,
                batch_sizes,
                buckets,
                args.max_batch,
                args.timeout_us,
                args.think_ms,
                args.seed,
                args.threads,
                workers=args.workers,
                shard_buckets=shard_buckets,
                quick=args.quick,
                adaptive=args.adaptive,
                drift_ms=args.drift_ms,
                dynamic=args.dynamic_batch,
            )
        finally:
            _OBSERVE = False
        _print_serve_report(document)
        document.pop("_batching_stats", None)
        worker_spans = document.pop("_worker_spans", None)
        metrics_records = document.pop("_metrics_records", None)
        problems = validate_bench_serving(document)
        if problems:
            for problem in problems:
                print(f"schema violation: {problem}", file=sys.stderr)
            return 1
        path = args.json or "BENCH_serving.json"
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {path}")
        if args.metrics:
            print()
            print(format_report(get_tracer(), get_registry()))
        if args.trace:
            # Append the front end's live registry so the trace carries
            # every process's full metric state, not just the workers'.
            records = list(metrics_records or [])
            records.append(get_registry().export_records())
            trace_doc = write_chrome_trace(
                args.trace,
                get_tracer(),
                get_registry(),
                processes=worker_spans or None,
                metric_records=records,
            )
            print(
                f"\nwrote {len(trace_doc['traceEvents'])} trace events "
                f"to {args.trace}"
            )
        if (
            args.min_speedup is not None
            and document["geomean_speedup"] < args.min_speedup
        ):
            print(
                f"serving speedup {document['geomean_speedup']:.2f} below "
                f"required {args.min_speedup:.2f}",
                file=sys.stderr,
            )
            return 1
        shard_speedup = document["sharding"]["speedup"]
        if (
            args.min_shard_speedup is not None
            and shard_speedup < args.min_shard_speedup
        ):
            print(
                f"sharded speedup {shard_speedup:.2f} below required "
                f"{args.min_shard_speedup:.2f}",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.figure == "fig7":
        run_fig7(dtype)
    elif args.figure == "fig8-mlp":
        batches = (
            [int(v) for v in args.batches.split(",")]
            if args.batches
            else list(MLP_BATCH_SIZES)
        )
        run_fig8_mlp(args.workload or "MLP_1", dtype, batches)
    else:
        batches = (
            [int(v) for v in args.batches.split(",")]
            if args.batches
            else list(MHA_BATCH_SIZES)
        )
        run_fig8_mha(dtype, batches)
    if _CACHE is not None:
        print()
        print(format_stats(_CACHE.stats()))
        _CACHE = None
    if args.tune:
        remove_tuning_hook(tuning_results.append)
        _print_tuning_report(tuning_results)
        _TUNING = None
    if args.metrics:
        print()
        print(format_report(get_tracer(), get_registry()))
    if args.trace:
        document = write_chrome_trace(
            args.trace,
            get_tracer(),
            get_registry(),
            metric_records=[get_registry().export_records()],
        )
        print(
            f"\nwrote {len(document['traceEvents'])} trace events "
            f"to {args.trace}"
        )
    _OBSERVE = False
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
