"""One workload in its own process: ``python -m bench.child`` (started by
``bench/run.py``, which owns the process group and the wall-clock cap).

Prints progress to stderr and, as the last line of stdout, one JSON
object with the result.  BLAS/OpenMP threads are pinned to one before
numpy is imported; the parent sets the same variables in the environment.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from .run import PINNED_THREADS  # noqa: E402

for _name in PINNED_THREADS:
    os.environ[_name] = "1"

from repro.service import live_segments  # noqa: E402

from . import adapters, layers, spans  # noqa: E402
from .measure import (  # noqa: E402
    TIMING_METRICS,
    iqr,
    p,
    peak_rss_mb,
    per_block,
)
from .workloads import (  # noqa: E402
    WINDOW,
    WORKLOADS,
    ServeState,
    op_count,
    whole,
)

_IMPORT_SECONDS = time.perf_counter() - _STARTED

#: Full set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Requests of the companion serving probe of a non-serving traced run.
COMPANION_REQUESTS = 1500
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_untraced(workload, seed: int, n_ops: int):
    plan = workload.plan(seed, n_ops)
    setups = []
    state = None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                state.close()
                state = None
            begin = time.perf_counter()
            state = workload.setup(plan)
            setups.append(time.perf_counter() - begin)
        log(f"set-ups {[round(s, 3) for s in setups]} s; timing {n_ops} ops")
        timed = workload.run(state, n_ops, spans.NullRecorder())
        rss = peak_rss_mb(state.pids())
    finally:
        if state is not None:
            state.close()
    metrics = {
        "setup_s": (_IMPORT_SECONDS + statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    blocks = per_block(timed)
    for name, values in blocks.items():
        unit, quietest = TIMING_METRICS[name]
        metrics[name] = (quietest(values), unit)
    extra = {
        "blocks": blocks,
        "block_median": {
            name: statistics.median(values) for name, values in blocks.items()
        },
        "block_iqr": {name: iqr(values) for name, values in blocks.items()},
        "setups_s": setups,
    }
    return timed, metrics, extra


def run_traced(workload, seed: int, n_ops: int, tag: str):
    """Quarter-length run with spans, then the three layer probes."""
    n_ops = whole(n_ops / 4, workload.rotation)
    state = workload.setup(workload.plan(seed, n_ops))
    serving = None
    try:
        log(f"tracing {n_ops} ops (after {n_ops} untraced)")
        untraced = workload.run(state, n_ops, spans.NullRecorder())
        recorder = spans.Recorder()
        timed = workload.run(state, n_ops, recorder)

        subjects = state.subjects
        repeats = 5 if len(subjects) < 10 else 2
        metrics, partitions = layers.compile_probe(subjects, repeats)
        metrics.update(
            layers.runtime_probe(
                subjects,
                partitions,
                metrics["runtime.first_execute_ms"][0],
                executes=30 if len(subjects) < 10 else 5,
            )
        )
        for partition in partitions:
            partition.close()

        if isinstance(state, ServeState):
            serving, served, served_spans = state, timed, recorder
        else:
            # This workload serves nothing: the service layer is probed
            # on the serving workload's models instead, at fixed size.
            companion = WORKLOADS["serve_sharded"]
            serving = companion.setup(
                companion.plan(seed, COMPANION_REQUESTS)
            )
            served_spans = spans.Recorder()
            served = companion.run(
                serving, COMPANION_REQUESTS, served_spans
            )
        metrics.update(layers.service_probe(serving, served, served_spans))
    finally:
        state.close()
        if serving is not None:
            serving.close()

    p50 = p(timed.all_latencies_ms(), 50)
    untraced_p50 = p(untraced.all_latencies_ms(), 50)
    covered = spans.coverage(recorder.spans, timed.windows)
    metrics["bench.trace_overhead_ms"] = (p50 - untraced_p50, "ms")
    metrics["bench.span_coverage"] = (covered, "ratio")
    log(
        f"tracing overhead: p50 {p50:.4f} ms traced vs {untraced_p50:.4f} ms "
        f"untraced; top-level spans cover {100 * covered:.1f}% of timed wall"
    )
    stage_sum = layers.cold_start_sum_ms(recorder.spans)
    if not math.isnan(stage_sum):  # the traced region held compile stages
        log(
            f"per-stage spans sum to {stage_sum:.3f} ms per op, "
            f"{stage_sum / untraced_p50:.3f} of the untraced p50"
        )

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{tag}.trace.json")
    table_path = os.path.join(OUT_DIR, f"{tag}.selftime.txt")
    spans.write_chrome_trace(recorder.spans, trace_path)
    table = spans.format_self_times(recorder.spans, timed.wall_seconds)
    with open(table_path, "w") as handle:
        handle.write(table + "\n")
    log(table)
    extra = {
        "artifacts": [
            os.path.relpath(path) for path in (trace_path, table_path)
        ]
    }
    return timed, metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    n_ops = op_count(workload, args.seconds, args.quick)
    if args.trace:
        tag = f"{workload.name}-seed{args.seed}"
        timed, metrics, extra = run_traced(workload, args.seed, n_ops, tag)
    else:
        timed, metrics, extra = run_untraced(workload, args.seed, n_ops)

    leaks = {
        "children": [c.name for c in multiprocessing.active_children()],
        "segments": live_segments(),
    }
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "correct": timed.failed == 0 and not any(leaks.values()),
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "leaks": leaks,
        "settings": {
            "threads": {name: os.environ[name] for name in PINNED_THREADS},
            "constructor_kwargs": adapters.settings(),
            "client_threads": 1,
            "futures_per_client": WINDOW,
        },
        **extra,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
