"""Turning timed operations into the end-to-end metrics.

A timed region is cut into ``BLOCKS`` equal blocks of operations and every
timing metric is computed per block.  The reported value is that of the
**quietest block** (lowest latency, highest throughput); the median over
blocks and the inter-block quartile distance are kept beside it.

Why not the median: on this 2-vCPU VM a neighbour slows whole stretches
of a run, always in one direction.  Over eight runs of ``mlp_steady`` the
median over blocks of the block p95 spread by 20 % (IQR / median) and the
quietest block's by 3 %; for p50 it was 2.0 % against 0.8 %.  A program
that got slower is slower in its quietest block too.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

BLOCKS = 10


def block_bounds(n_ops: int) -> List[Tuple[int, int]]:
    """``BLOCKS`` contiguous [lo, hi) index ranges covering ``n_ops``."""
    edges = [round(i * n_ops / BLOCKS) for i in range(BLOCKS + 1)]
    return list(zip(edges[:-1], edges[1:]))


@dataclass
class Timed:
    """What one timed region produced."""

    #: Per block: the latency in ms of every op that completed.
    latencies_ms: List[List[float]] = field(default_factory=list)
    #: Per block: (start, end) on the perf_counter clock.
    windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Per block: ops that completed with a correct output.
    correct: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def wall_seconds(self) -> float:
        return sum(hi - lo for lo, hi in self.windows)

    def all_latencies_ms(self) -> List[float]:
        return [ms for block in self.latencies_ms for ms in block]


def p(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def iqr(values: Iterable[float]) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


#: Timing metric -> (unit, which block's value is reported).
TIMING_METRICS = {
    "latency_ms_p50": ("ms", min),
    "latency_ms_p95": ("ms", min),
    "throughput_ops_s": ("1/s", max),
}


def per_block(timed: Timed) -> Dict[str, List[float]]:
    """Timing metric -> its value in each block."""
    blocks = [b for b in timed.latencies_ms if b]
    return {
        "latency_ms_p50": [p(b, 50) for b in blocks],
        "latency_ms_p95": [p(b, 95) for b in blocks],
        "throughput_ops_s": [
            done / (hi - lo)
            for done, (lo, hi) in zip(timed.correct, timed.windows)
        ],
    }


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of VmHWM (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
