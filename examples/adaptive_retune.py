#!/usr/bin/env python
"""Online feedback-directed retuning: drift in, hot swap out.

The static pipeline tunes a partition once, at compile time, against the
analytical cost model.  `repro.adaptive` closes the loop at serving
time: an `InferenceSession(adaptive="on")` runs a background monitor
that watches each partition's measured-latency EWMA against the model's
expectation, and when the ratio drifts past a threshold it re-searches
the partition's tuning space *off the hot path*, compiles a challenger,
and serves an A/B trial — the challenger replaces the incumbent only if
it wins on live measurements.

The demo below serves MLP_1, injects a 20 ms/request latency
degradation into the resident partition (standing in for a co-tenant,
a frequency change, or a stale tuning decision), and serves traffic
until the loop detects the drift, retunes, and hot-swaps the trial
winner in.  Requests never fail and responses never change while all of
this happens underneath them.

Run:  PYTHONPATH=src python examples/adaptive_retune.py
"""

import time

import numpy as np

from repro.adaptive import AdaptiveConfig
from repro.service import InferenceSession, format_stats
from repro.workloads import make_mlp_inputs

#: Aggressive knobs so the demo converges in seconds; the defaults
#: (AdaptiveConfig()) are tuned for long-running serving processes.
CONFIG = AdaptiveConfig(
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

DRIFT_SECONDS = 0.02


def measure(session, feed, n=20):
    latencies = []
    for _ in range(n):
        start = time.perf_counter()
        session.run(feed)
        latencies.append(time.perf_counter() - start)
    return 1e3 * sum(latencies) / len(latencies)


def main() -> None:
    data = make_mlp_inputs("MLP_1", 32)
    weights = {k: v for k, v in data.items() if k.startswith("w")}
    feed = {"x": data["x"]}

    with InferenceSession.for_workload(
        "MLP_1",
        weights=weights,
        adaptive="on",
        adaptive_config=CONFIG,
    ) as session:
        manager = session.adaptive_manager
        reference = session.run(feed)  # compile; capture tuning problems
        healthy_ms = measure(session, feed)
        print(f"healthy latency: {healthy_ms:.2f} ms/request")

        (sig,) = [s.signature for s in session.stats().signatures]
        print(
            f"signature {sig[:12]}… captured "
            f"{len(session.tuning_problems(sig))} matmul tuning problems"
        )

        assert manager.inject_drift(sig, DRIFT_SECONDS)
        print(f"injected +{1e3 * DRIFT_SECONDS:.0f} ms/request of drift")

        # Keep serving: the loop detects, retunes, trials and swaps
        # underneath this traffic.  Every response stays correct.
        served = 0
        start = time.perf_counter()
        while manager.swaps < 1:
            if time.perf_counter() - start > 120:
                raise SystemExit("no swap within 120 s")
            out = session.run(feed)
            served += 1
            for name in reference:
                np.testing.assert_allclose(
                    out[name], reference[name], rtol=2e-5, atol=2e-5
                )
        elapsed = time.perf_counter() - start
        print(
            f"hot swap after {elapsed:.2f} s / {served} requests "
            "(every response checked against the original)"
        )

        recovered_ms = measure(session, feed)
        print(f"post-swap latency: {recovered_ms:.2f} ms/request")

        report = manager.report()
        print(
            f"report: swaps={report['swaps']} "
            f"drift_detections={report['drift_detections']} "
            f"state={report['signatures'][sig]['state']}"
        )
        print()
        print(format_stats(session.stats()))


if __name__ == "__main__":
    main()
