#!/usr/bin/env python
"""Multi-process sharded serving: one fleet, one owner per partition.

A :class:`~repro.service.ShardedSession` front end owns a fleet of worker
processes.  Each worker runs its own `PartitionCache` + `InferenceSession`
(micro-batching on).  Each model compiles to one shape-polymorphic
partition, and its signature is routed to exactly one worker by
consistent hashing with bounded loads — so each partition compiles
**once** across the whole fleet and stays hot in a single process,
instead of every process compiling everything.

Tensors cross the process boundary through shared-memory ring slots
(`multiprocessing.shared_memory`), not pickles: the front end packs the
request into a leased slot, the worker maps numpy views over the same
bytes, executes, and overwrites the slot with the outputs.

The demo below serves two MLP workloads through a two-worker fleet,
verifies the fleet's outputs are bit-identical to a single in-process
`InferenceSession`, kills one worker mid-stream to show automatic restart
with zero failed requests, and prints the fleet-wide stats table with its
per-worker placement breakdown.

Run:  PYTHONPATH=src python examples/serving_sharded.py
"""

import os
import signal

import numpy as np

from repro.service import (
    InferenceSession,
    ModelSpec,
    ShardedSession,
    format_sharded_stats,
    live_segments,
)
from repro.workloads import make_mlp_inputs

WORKERS = 2


def mlp_weights(name):
    inputs = make_mlp_inputs(name, 8, seed=0)
    return {k: v for k, v in inputs.items() if k.startswith("w")}


def main() -> None:
    specs = [
        ModelSpec(name=name, workload=name, weights=mlp_weights(name))
        for name in ("MLP_1", "MLP_2")
    ]

    with ShardedSession(
        specs, num_workers=WORKERS, heartbeat_interval=0.1
    ) as fleet:
        # Pre-compile every model's partition in its home worker.
        fleet.warm_up()
        placement = fleet.stats().placement()
        for worker in sorted(placement):
            print(f"{worker}: {', '.join(placement[worker])}")

        # The fleet serves bit-identically to a single in-process session.
        x = make_mlp_inputs("MLP_1", 8, seed=1)["x"]
        with InferenceSession.for_workload(
            "MLP_1", weights=mlp_weights("MLP_1")
        ) as reference:
            served = list(fleet.run({"x": x}, model="MLP_1").values())
            direct = list(reference.run({"x": x}).values())
        for a, b in zip(served, direct):
            np.testing.assert_array_equal(a, b)
        print("sharded outputs bit-identical to single session: yes")

        # Kill a worker mid-stream: the heartbeat restarts it and the
        # in-flight requests are re-dispatched — none fail.
        victim_id = fleet.worker_for("MLP_1")
        victim = fleet.workers()[victim_id]
        futures = [
            fleet.submit({"x": x}, model="MLP_1") for _ in range(10)
        ]
        os.kill(victim.pid, signal.SIGKILL)
        results = [f.result(timeout=120) for f in futures]
        replacement = fleet.workers()[victim_id]
        print(
            f"killed {victim_id} (pid {victim.pid}); "
            f"restarted as pid {replacement.pid}, "
            f"{len(results)}/{len(futures)} requests served, 0 failed"
        )
        for out in results:
            for a, b in zip(out.values(), direct):
                np.testing.assert_array_equal(a, b)

        stats = fleet.stats()
        print()
        print(format_sharded_stats(stats))
        assert stats.restarts[victim_id] == 1

    # close() drained the fleet and unlinked every shm segment.
    assert live_segments() == []
    print("all shared-memory segments unlinked: yes")
    print("ok")


if __name__ == "__main__":
    main()
