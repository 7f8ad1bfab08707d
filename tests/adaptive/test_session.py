"""InferenceSession wiring: capture at compile, live drift → hot swap."""

import threading
import time

import numpy as np
import pytest

from repro import CompilerOptions, compile_graph
from repro.adaptive import AdaptiveConfig
from repro.graph_ir.symbolic import dyn
from repro.microkernel.machine import XEON_8358
from repro.service import InferenceSession, PartitionCache, graph_signature
from repro.service.session import DYNAMIC_BATCH_HINT
from repro.workloads import build_mlp_graph, make_mlp_inputs

FAST_CONFIG = AdaptiveConfig(
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


def mlp_session(**kwargs):
    data = make_mlp_inputs("MLP_1", 32)
    weights = {k: v for k, v in data.items() if k.startswith("w")}
    session = InferenceSession.for_workload(
        "MLP_1", weights=weights, **kwargs
    )
    return session, {"x": data["x"]}


class ColdStartPartition:
    """Wraps a real partition; its first execute is scripted to be slow,
    as if it paid a long one-time build, and later ones are fast."""

    def __init__(self, inner, cold_seconds):
        self._inner = inner
        self._cold_seconds = cold_seconds
        self.is_warm = False

    def execute(self, inputs):
        if not self.is_warm:
            time.sleep(self._cold_seconds)
            self.is_warm = True
        return self._inner.execute(inputs)

    def close(self):
        self._inner.close()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestWiring:
    def test_adaptive_is_off_by_default(self):
        session, feed = mlp_session()
        try:
            assert session.adaptive == "off"
            assert session.adaptive_manager is None
            session.run(feed)
            session.run(feed)
            # Latency EWMA feeds the stats table even with adaptive off;
            # the first (cold) execute is not a latency sample.
            (sig_stats,) = session.stats().signatures
            assert sig_stats.executes == 2
            assert sig_stats.latency_samples == 1
            assert sig_stats.latency_ewma_seconds > 0
        finally:
            session.close()

    def test_cold_first_execute_is_not_latency_evidence(self):
        cold_seconds = 0.3
        data = make_mlp_inputs("MLP_1", 32)
        weights = {k: v for k, v in data.items() if k.startswith("w")}
        def symbolic_graph():
            return build_mlp_graph("MLP_1", dyn("B", DYNAMIC_BATCH_HINT))

        signature = graph_signature(
            symbolic_graph(), XEON_8358, CompilerOptions()
        )
        cache = PartitionCache()
        cache.get_or_compile(
            signature,
            lambda: ColdStartPartition(
                compile_graph(symbolic_graph()), cold_seconds
            ),
        )
        session = InferenceSession.for_workload(
            "MLP_1", weights=weights, cache=cache
        )
        try:
            for _ in range(5):
                session.run({"x": data["x"]})
            (sig_stats,) = session.stats().signatures
            assert sig_stats.signature == signature
            assert sig_stats.executes == 5
            assert sig_stats.latency_samples == 4
            assert sig_stats.latency_p95_seconds < cold_seconds
            assert sig_stats.latency_ewma_seconds < cold_seconds
        finally:
            session.close()
            cache.close()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):
            mlp_session(adaptive="sometimes")

    def test_compile_captures_tuning_problems(self):
        session, feed = mlp_session(
            adaptive="on", adaptive_config=FAST_CONFIG
        )
        try:
            assert session.adaptive == "on"
            assert session.adaptive_manager.running
            session.run(feed)
            (sig_stats,) = session.stats().signatures
            problems = session.tuning_problems(sig_stats.signature)
            # MLP_1 has three matmul layers to re-search.
            assert len(problems) >= 3
        finally:
            session.close()


class TestEndToEnd:
    def test_drift_detect_retune_swap(self):
        """The full loop against live traffic: inject drift, serve until
        the background retuner hot-swaps a challenger in, verify every
        response along the way and a clean shutdown after."""
        session, feed = mlp_session(
            adaptive="on", adaptive_config=FAST_CONFIG
        )
        try:
            manager = session.adaptive_manager
            reference = session.run(feed)
            for _ in range(10):
                session.run(feed)
            (sig_stats,) = session.stats().signatures
            signature = sig_stats.signature
            assert manager.inject_drift(signature, 0.02)
            deadline = time.monotonic() + 120
            while manager.swaps < 1 and time.monotonic() < deadline:
                out = session.run(feed)
                for name in reference:
                    np.testing.assert_allclose(
                        out[name], reference[name], rtol=2e-5, atol=2e-5
                    )
            assert manager.swaps >= 1, "no hot swap within the deadline"
            # The swapped-in partition serves the same numbers.
            out = session.run(feed)
            for name in reference:
                np.testing.assert_allclose(
                    out[name], reference[name], rtol=2e-5, atol=2e-5
                )
            assert session.stats().swaps >= 3  # inject, trial, promote
        finally:
            session.close()
        leftovers = [
            t.name
            for t in threading.enumerate()
            if t.name == "adaptive-retuner"
        ]
        assert not leftovers, leftovers
