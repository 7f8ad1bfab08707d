#!/usr/bin/env python
"""Dynamic micro-batching: coalescing concurrent requests into one kernel.

Serves the paper's MLP_1 workload (the MLPerf DLRM bottom MLP) through two
sessions sharing one PartitionCache:

* an **unbatched** session — every request executes the partition alone,
  at its own batch size;
* a **batched** session (``batching="on"``) — a `BatchingEngine` holds each
  request briefly in its queue, concatenates up to ``max_batch``
  concurrent requests along the batch axis, executes the partition once
  at the combined row count, and splits the outputs back to the callers'
  futures.

Both paths run the *same* shape-polymorphic partition, so results are
bit-identical — verified below — while the batched path amortizes
dispatch across the window.

Run:  PYTHONPATH=src python examples/serving_batched.py
"""

import threading
import time

import numpy as np

from repro.service import (
    InferenceSession,
    PartitionCache,
    format_batching_stats,
)
from repro.workloads import make_mlp_inputs

WARM_BATCH = 32
N_CLIENTS = 8
REQUESTS_PER_CLIENT = 6


def serve(session, plans):
    """Replay the request plans from N_CLIENTS threads; return outputs."""
    outputs = [[None] * len(plan) for plan in plans]
    errors = []
    barrier = threading.Barrier(len(plans) + 1)

    def client(ci):
        try:
            barrier.wait()
            for ri, x in enumerate(plans[ci]):
                outputs[ci][ri] = next(iter(session.run({"x": x}).values()))
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(ci,))
        for ci in range(len(plans))
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    assert not errors, errors
    return outputs, wall


def main() -> None:
    weights = {
        name: array
        for name, array in make_mlp_inputs("MLP_1", WARM_BATCH).items()
        if name.startswith("w")
    }
    cache = PartitionCache()

    rng = np.random.RandomState(0)
    plans = [
        [
            rng.randn(int(batch), 13).astype(np.float32)
            for batch in rng.choice([1, 2, 4, 8], REQUESTS_PER_CLIENT)
        ]
        for _ in range(N_CLIENTS)
    ]

    results = {}
    for batching in ("off", "on"):
        with InferenceSession.for_workload(
            "MLP_1",
            weights=weights,
            cache=cache,
            batching=batching,
            max_batch=16,
            batch_timeout_us=2_000,
        ) as session:
            session.run({"x": np.zeros((WARM_BATCH, 13), np.float32)})  # warm
            outputs, wall = serve(session, plans)
            results[batching] = (outputs, wall)
            if session.engine is not None:
                stats = session.engine.stats()
        print(f"batching={batching}: {wall * 1e3:.1f} ms wall")

    # Same partition, same rows -> bit-identical per-request outputs.
    for off_plan, on_plan in zip(results["off"][0], results["on"][0]):
        for a, b in zip(off_plan, on_plan):
            np.testing.assert_array_equal(a, b)
    print("batched outputs bit-identical to unbatched: yes")

    total = N_CLIENTS * REQUESTS_PER_CLIENT
    print(
        f"{total} requests coalesced into {stats.batches} executions "
        f"(coalesce ratio {stats.coalesce_ratio:.2f}, "
        f"{stats.rows} rows, none padded)"
    )
    print()
    print(format_batching_stats(stats))
    assert stats.completed == total + 1  # plans + warmup request
    assert stats.batches < stats.completed
    print("ok")


if __name__ == "__main__":
    main()
