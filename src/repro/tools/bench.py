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
    MLP_CONFIGS,
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


def _batch_list(parser, text: Optional[str], default) -> List[int]:
    """``--batches`` as a list of positive ints (``default`` when unset)."""
    if text is None:
        return list(default)
    try:
        batches = [int(v) for v in text.split(",")]
    except ValueError:
        batches = []
    if not batches or min(batches) < 1:
        parser.error(
            f"--batches must be comma-separated positive integers, "
            f"not {text!r}"
        )
    return batches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.bench", description=__doc__
    )
    parser.add_argument("figure", choices=["fig7", "fig8-mlp", "fig8-mha"])
    parser.add_argument("--dtype", choices=sorted(_DTYPES), default="f32")
    parser.add_argument(
        "--workload",
        default=None,
        help=f"fig8-mlp workload, one of {', '.join(sorted(MLP_CONFIGS))} "
        "(default MLP_1)",
    )
    parser.add_argument(
        "--batches",
        help="comma-separated batch sizes for fig8-mlp / fig8-mha "
        "(defaults to the paper's)",
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
    if args.workload is not None:
        if args.figure != "fig8-mlp":
            parser.error(f"--workload applies to fig8-mlp, not {args.figure}")
        if args.workload not in MLP_CONFIGS:
            parser.error(
                f"--workload must be one of {sorted(MLP_CONFIGS)}, "
                f"not {args.workload!r}"
            )
    default_batches = (
        MHA_BATCH_SIZES if args.figure == "fig8-mha" else MLP_BATCH_SIZES
    )
    batches = _batch_list(parser, args.batches, default_batches)
    if args.tuning_cache and not args.tune:
        parser.error("--tuning-cache requires --tune")
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
    if args.figure == "fig7":
        run_fig7(dtype)
    elif args.figure == "fig8-mlp":
        run_fig8_mlp(args.workload or "MLP_1", dtype, batches)
    else:
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
