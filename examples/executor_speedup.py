#!/usr/bin/env python
"""Interpreter vs codegen executor on one MLP workload.

Compiles the same graph twice — once per runtime backend
(``CompilerOptions.executor``) — checks the outputs are bit-identical,
then times steady-state execution of both.  The codegen backend wins by
moving per-call work (name resolution, schema validation, index
arithmetic, frame allocation) into Python source generated once per
Tensor IR function; the numpy kernels themselves are shared.

Run:  python examples/executor_speedup.py
"""

import time

import numpy as np

from repro import CompilerOptions, DType, compile_graph
from repro.workloads import build_mlp_graph, make_mlp_inputs

WORKLOAD, BATCH, REPEAT = "MLP_1", 64, 5


def steady_state_ms(partition, feed) -> float:
    partition.execute(dict(feed))  # init graph + warmup
    partition.execute(dict(feed))
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        outputs = partition.execute(dict(feed))
        best = min(best, (time.perf_counter() - start) * 1e3)
    return best, outputs


def main() -> None:
    feed = make_mlp_inputs(WORKLOAD, BATCH, DType.f32)

    results = {}
    for backend in ("interpret", "codegen"):
        partition = compile_graph(
            build_mlp_graph(WORKLOAD, BATCH, DType.f32),
            options=CompilerOptions(executor=backend),
        )
        results[backend] = steady_state_ms(partition, feed)
        partition.close()

    (interp_ms, interp_out), (codegen_ms, codegen_out) = (
        results["interpret"], results["codegen"]
    )

    # The executor is only a win if it changes nothing: outputs must be
    # bit-identical, not merely close.  (Names differ between separately
    # built graphs, so compare positionally.)
    for ref, got in zip(interp_out.values(), codegen_out.values()):
        assert np.array_equal(ref, got), "backends diverged"

    print(f"{WORKLOAD} batch={BATCH} f32, best of {REPEAT}:")
    print(f"  interpreter : {interp_ms:8.3f} ms")
    print(f"  codegen     : {codegen_ms:8.3f} ms")
    print(f"  speedup     : {interp_ms / codegen_ms:8.2f}x  (bit-identical)")


if __name__ == "__main__":
    main()
