#!/usr/bin/env python
"""Serving the DLRM MLP through an InferenceSession.

Builds one `InferenceSession` over the paper's MLP_1 workload (the MLPerf
DLRM bottom MLP), binds the weights once, and serves mixed batch sizes
from several threads.  The session compiles ONE shape-polymorphic
partition (symbolic batch dim, single-flight) and executes every request
at its exact batch size — so 32 requests of mixed sizes across 4
threads need one compilation and pad nothing.

Run:  PYTHONPATH=src python examples/serving_mlp.py
"""

import threading

import numpy as np

from repro import DType, compile_graph
from repro.service import InferenceSession, PartitionCache, format_stats
from repro.workloads import build_mlp_graph, make_mlp_inputs

MAX_BATCH = 128
N_THREADS = 4
REQUESTS_PER_THREAD = 8


def main() -> None:
    # Weights are bound once at session construction, exactly like the
    # paper's runtime-constant contract for CompiledPartition.
    weights = {
        name: array
        for name, array in make_mlp_inputs("MLP_1", 32).items()
        if name.startswith("w")
    }
    cache = PartitionCache()
    session = InferenceSession.for_workload(
        "MLP_1",
        dtype=DType.f32,
        weights=weights,
        cache=cache,
    )

    rng = np.random.RandomState(0)
    plans = []
    for _ in range(N_THREADS):
        batches = rng.randint(4, MAX_BATCH + 1, REQUESTS_PER_THREAD)
        plans.append(
            [
                (int(b), rng.randn(int(b), 13).astype(np.float32))
                for b in batches
            ]
        )

    errors = []

    def worker(plan):
        try:
            for batch, x in plan:
                out = list(session.run({"x": x}).values())[0]
                assert out.shape == (batch, 128), out.shape
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(p,)) for p in plans]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors

    # Spot-check one request against a direct one-shot compile at its
    # exact batch size.
    x = rng.randn(20, 13).astype(np.float32)
    served = list(session.run({"x": x}).values())[0]
    direct = list(
        compile_graph(build_mlp_graph("MLP_1", 20)).execute(
            {**weights, "x": x}
        ).values()
    )[0]
    print(
        "shape-polymorphic vs direct compile: max |diff| ="
        f" {np.abs(served - direct).max():.2e}"
    )

    stats = session.stats()
    total = N_THREADS * REQUESTS_PER_THREAD + 1
    print(
        f"served {total} requests of batch 4..{MAX_BATCH} "
        f"with {stats.compiles} compilation(s)"
    )
    print(f"cache hit rate: {stats.hit_rate:.1%}")
    print("per-signature compile counts:")
    for sig in sorted(stats.signatures, key=lambda s: s.label):
        print(
            f"  {sig.label:<16} compiles={sig.compiles} "
            f"executes={sig.executes} compile_s={sig.compile_seconds:.3f}"
        )
    print()
    print(format_stats(stats))
    assert stats.compiles == 1
    print("ok")


if __name__ == "__main__":
    main()
