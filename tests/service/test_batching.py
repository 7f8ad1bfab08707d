"""BatchingEngine: coalescing, identity, lifecycle, backpressure, stress.

Deterministic queue mechanics (window shapes, drain vs cancel,
backpressure) run against a stub session with a controllable execute;
end-to-end correctness and the multi-threaded stress test run against a
real MLP session, comparing to the unbatched path of the *same*
partition (the reference the engine must be bit-identical to).
"""

import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.observability import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    flow_chains,
    get_registry,
    get_tracer,
    set_registry,
    set_tracer,
    validate_flow_chains,
)
from repro.observability.context import RequestContext, active_contexts
from repro.service import (
    BatchingEngine,
    InferenceSession,
    PartitionCache,
)
from repro.workloads import make_mlp_inputs


def mlp_weights(name="MLP_1", seed=0):
    inputs = make_mlp_inputs(name, 32, seed=seed)
    return {k: v for k, v in inputs.items() if k.startswith("w")}


class StubSession:
    """Minimal InferenceSession interface with a controllable execute."""

    def __init__(self, block=None):
        self.input_names = ["x"]
        self.input_batch_axes = {"x": [(0, 1)]}
        self.output_batch_axes = [[(0, 1)]]
        self.input_dtypes = {"x": np.dtype(np.float32)}
        self.block = block  # optional Event the executor waits on
        self.calls = []
        self._lock = threading.Lock()

    def infer_batch(self, inputs):
        return int(np.asarray(inputs["x"]).shape[0])

    def execute(self, inputs, batch):
        if self.block is not None:
            self.block.wait()
        with self._lock:
            self.calls.append(batch)
        x = np.asarray(inputs["x"])
        assert x.shape[0] == batch  # executed exactly: nothing padded
        return {"y": x * 2.0}


def submit_rows(engine, batch, value=1.0):
    x = np.full((batch, 1), value, np.float32)
    return engine.submit({"x": x}), x


class TestCoalescing:
    def test_exact_fill_executes_once(self):
        stub = StubSession()
        engine = BatchingEngine(stub, max_batch=8, batch_timeout_us=200_000)
        futures = [submit_rows(engine, 2, float(i))[0] for i in range(4)]
        results = [f.result(timeout=10) for f in futures]
        engine.close()
        assert stub.calls == [8]  # one combined execution, no padding
        for i, result in enumerate(results):
            np.testing.assert_array_equal(
                result["y"], np.full((2, 1), 2.0 * i, np.float32)
            )
        stats = engine.stats()
        assert stats.batches == 1
        assert stats.completed == 4
        assert stats.coalesce_ratio == 4.0
        assert stats.padded_rows == 0

    def test_timeout_flushes_partial_window(self):
        stub = StubSession()
        engine = BatchingEngine(stub, max_batch=8, batch_timeout_us=5_000)
        future, _ = submit_rows(engine, 3)
        future.result(timeout=10)  # lands after the 5ms window expires
        engine.close()
        assert stub.calls == [3]
        assert engine.stats().padded_rows == 0

    def test_max_batch_bounds_window(self):
        stub = StubSession()
        engine = BatchingEngine(stub, max_batch=2, batch_timeout_us=200_000)
        futures = [submit_rows(engine, 1)[0] for _ in range(4)]
        for future in futures:
            future.result(timeout=10)
        engine.close()
        assert sum(stub.calls) == 4
        assert all(batch <= 2 for batch in stub.calls)
        assert engine.stats().max_requests_per_batch <= 2


class TestValidation:
    def test_rejects_multi_axis_inputs(self):
        stub = StubSession()
        stub.input_batch_axes = {"x": [(0, 1), (1, 1)]}
        with pytest.raises(ValueError, match="exactly one concatenation"):
            BatchingEngine(stub)

    def test_rejects_batch_independent_output(self):
        stub = StubSession()
        stub.output_batch_axes = [[]]
        with pytest.raises(ValueError, match="exactly one split"):
            BatchingEngine(stub)

    def test_bad_request_fails_alone(self):
        stub = StubSession()
        engine = BatchingEngine(stub, max_batch=8, batch_timeout_us=50_000)
        with pytest.raises(ValueError, match="missing input"):
            engine.submit({"not_x": np.zeros((2, 1), np.float32)}, batch=2)
        with pytest.raises(ValueError, match="dtype"):
            engine.submit({"x": np.zeros((2, 1), np.float64)})
        with pytest.raises(ValueError, match="expected extent"):
            engine.submit({"x": np.zeros((2, 1), np.float32)}, batch=3)
        # The queue stayed clean: a good request still round-trips.
        good, _ = submit_rows(engine, 2)
        assert good.result(timeout=10)["y"].shape == (2, 1)
        engine.close()

    def test_bad_knobs_rejected(self):
        stub = StubSession()
        with pytest.raises(ValueError, match="max_batch"):
            BatchingEngine(stub, max_batch=0)
        with pytest.raises(ValueError, match="batch_timeout_us"):
            BatchingEngine(stub, batch_timeout_us=-1)
        with pytest.raises(ValueError, match="queue_depth"):
            BatchingEngine(stub, queue_depth=0)


class TestLifecycle:
    def test_close_drains_queued_requests(self):
        gate = threading.Event()
        stub = StubSession(block=gate)
        engine = BatchingEngine(stub, max_batch=1, batch_timeout_us=0)
        futures = [submit_rows(engine, 8)[0] for _ in range(5)]

        closer = threading.Thread(target=engine.close, kwargs={"drain": True})
        closer.start()
        gate.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        # Drained: every future resolved with a result, none cancelled.
        for future in futures:
            assert future.done() and not future.cancelled()
            assert future.result()["y"].shape == (8, 1)
        assert engine.stats().completed == 5
        assert engine.stats().cancelled == 0

    def test_close_cancel_settles_every_future(self):
        gate = threading.Event()
        stub = StubSession(block=gate)
        engine = BatchingEngine(stub, max_batch=1, batch_timeout_us=0)
        futures = [submit_rows(engine, 8)[0] for _ in range(5)]
        # Let the dispatcher pick up the first window, then cancel.
        deadline = time.time() + 5
        while not futures[0].running() and time.time() < deadline:
            time.sleep(0.001)

        closer = threading.Thread(
            target=engine.close, kwargs={"drain": False}
        )
        closer.start()
        gate.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        stats = engine.stats()
        # No future may be left pending: each either carried a result
        # (was already executing) or was cancelled in the queue.
        for future in futures:
            assert future.done()
            if future.cancelled():
                with pytest.raises(CancelledError):
                    future.result()
            else:
                assert future.result()["y"].shape == (8, 1)
        assert stats.completed >= 1  # the in-flight window finished
        assert stats.completed + stats.cancelled == 5

    def test_submit_after_close_raises(self):
        engine = BatchingEngine(StubSession())
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            submit_rows(engine, 2)

    def test_close_is_idempotent_and_context_managed(self):
        with BatchingEngine(StubSession()) as engine:
            future, _ = submit_rows(engine, 2)
            assert future.result(timeout=10)["y"].shape == (2, 1)
        assert engine.closed
        engine.close()  # second close is a no-op

    def test_caller_cancelled_future_is_skipped(self):
        gate = threading.Event()
        stub = StubSession(block=gate)
        engine = BatchingEngine(stub, max_batch=1, batch_timeout_us=0)
        blocker, _ = submit_rows(engine, 8)  # occupies the dispatcher
        victim, _ = submit_rows(engine, 8)
        deadline = time.time() + 5
        while not blocker.running() and time.time() < deadline:
            time.sleep(0.001)
        assert victim.cancel()
        gate.set()
        blocker.result(timeout=10)
        engine.close()
        assert victim.cancelled()
        # The cancelled request never reached the session.
        assert len(stub.calls) == 1


class TestBackpressure:
    def test_submit_blocks_at_queue_depth(self):
        gate = threading.Event()
        stub = StubSession(block=gate)
        engine = BatchingEngine(
            stub, max_batch=1, batch_timeout_us=0, queue_depth=1
        )
        first, _ = submit_rows(engine, 8)  # dispatcher takes this one
        deadline = time.time() + 5
        while not first.running() and time.time() < deadline:
            time.sleep(0.001)
        second, _ = submit_rows(engine, 8)  # fills the queue (depth 1)

        third_done = threading.Event()
        third_box = []

        def submit_third():
            third_box.append(submit_rows(engine, 8)[0])
            third_done.set()

        submitter = threading.Thread(target=submit_third)
        submitter.start()
        # The third submit must block while the queue is full.
        assert not third_done.wait(timeout=0.15)
        gate.set()
        assert third_done.wait(timeout=10)
        submitter.join(timeout=10)
        for future in (first, second, third_box[0]):
            assert future.result(timeout=10)["y"].shape == (8, 1)
        engine.close()


class TestErrorPropagation:
    def test_execution_error_fans_out_to_window(self):
        class FailingSession(StubSession):
            def execute(self, inputs, batch):
                raise RuntimeError("boom")

        engine = BatchingEngine(
            FailingSession(), max_batch=8,
            batch_timeout_us=100_000,
        )
        futures = [submit_rows(engine, 4)[0] for _ in range(2)]
        for future in futures:
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=10)
        engine.close()
        assert engine.stats().failed == 2


class TestRealSession:
    def test_batched_is_bit_identical_to_unbatched_bucket(self):
        weights = mlp_weights()
        cache = PartitionCache()
        reference = InferenceSession.for_workload(
            "MLP_1", weights=weights, cache=cache
        )
        session = InferenceSession.for_workload(
            "MLP_1",
            weights=weights,
            cache=cache,
            batching="on",
            max_batch=8,
            batch_timeout_us=20_000,
        )
        rng = np.random.RandomState(7)
        requests = [
            rng.randn(batch, 13).astype(np.float32)
            for batch in (8, 8, 8, 8, 5, 32, 17)
        ]
        futures = [session.submit({"x": x}) for x in requests]
        for x, future in zip(requests, futures):
            served = next(iter(future.result(timeout=30).values()))
            direct = next(iter(reference.run({"x": x}).values()))
            assert served.shape == (x.shape[0], 128)
            np.testing.assert_array_equal(served, direct)
        stats = session.engine.stats()
        assert stats.completed == len(requests)
        assert stats.batches < len(requests)  # something coalesced
        session.close()
        reference.close()

    def test_stress_many_threads_mixed_batches(self):
        """ISSUE satellite: >=8 threads hammer one session; outputs must
        match the single-threaded reference and no future is dropped."""
        weights = mlp_weights()
        cache = PartitionCache()
        reference = InferenceSession.for_workload(
            "MLP_1", weights=weights, cache=cache
        )
        session = InferenceSession.for_workload(
            "MLP_1",
            weights=weights,
            cache=cache,
            batching="on",
            max_batch=16,
            batch_timeout_us=2_000,
        )
        n_threads, per_thread = 8, 6
        rng = np.random.RandomState(11)
        plans = [
            [
                rng.randn(int(batch), 13).astype(np.float32)
                for batch in rng.randint(1, 33, per_thread)
            ]
            for _ in range(n_threads)
        ]
        expected = [
            [next(iter(reference.run({"x": x}).values())) for x in plan]
            for plan in plans
        ]
        results = [[None] * per_thread for _ in range(n_threads)]
        errors = []
        barrier = threading.Barrier(n_threads)

        def worker(ti):
            try:
                barrier.wait()
                for ri, x in enumerate(plans[ti]):
                    results[ti][ri] = next(
                        iter(session.run({"x": x}).values())
                    )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(ti,))
            for ti in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        session.close()
        reference.close()
        stats = session.engine.stats()
        assert stats.completed == n_threads * per_thread
        assert stats.cancelled == 0
        for ti in range(n_threads):
            for ri in range(per_thread):
                np.testing.assert_array_equal(
                    results[ti][ri], expected[ti][ri]
                )

    def test_request_context_flows_single_process(self):
        """Tracing on: submit mints a context ("s"), batch.execute
        terminates the local chain ("f"), and the execute slice sees the
        coalesced requests' contexts via the thread-local binding."""

        class ContextSpy(StubSession):
            def __init__(self, **kw):
                super().__init__(**kw)
                self.bound = []

            def execute(self, inputs, batch):
                self.bound.append(active_contexts())
                return super().execute(inputs, batch)

        original = get_tracer()
        tracer = set_tracer(Tracer(enabled=True))
        try:
            spy = ContextSpy()
            engine = BatchingEngine(
                spy, max_batch=8, batch_timeout_us=200_000
            )
            futures = [submit_rows(engine, 2)[0] for _ in range(4)]
            for future in futures:
                future.result(timeout=10)
            engine.close()
        finally:
            set_tracer(original)
        # One combined execution saw all four requests' contexts.
        (bound,) = spy.bound
        assert len(bound) == 4
        assert all(isinstance(ctx, RequestContext) for ctx in bound)
        assert all(ctx.hop == 0 for ctx in bound)
        assert len({ctx.trace_id for ctx in bound}) == 4
        document = chrome_trace(tracer)
        assert validate_flow_chains(document) == []
        chains = flow_chains(document)
        assert len(chains) == 4
        for events in chains.values():
            assert [e["ph"] for e in events] == ["s", "f"]

    def test_tracing_off_binds_no_context(self):
        """The hot path with tracing off: no context is minted, nothing
        is bound around execute, and the tracer records nothing."""

        class ContextSpy(StubSession):
            def __init__(self, **kw):
                super().__init__(**kw)
                self.bound = []

            def execute(self, inputs, batch):
                self.bound.append(active_contexts())
                return super().execute(inputs, batch)

        original = get_tracer()
        tracer = set_tracer(Tracer(enabled=False))
        try:
            spy = ContextSpy()
            engine = BatchingEngine(
                spy, max_batch=8, batch_timeout_us=5_000
            )
            future, _ = submit_rows(engine, 2)
            future.result(timeout=10)
            engine.close()
        finally:
            set_tracer(original)
        assert spy.bound == [()]
        assert len(tracer) == 0

    @pytest.mark.slow
    def test_tracing_off_submit_overhead_bounded(self):
        """Serving-throughput guard: with tracing disabled, submit() must
        stay in the tens of microseconds — no context minting, no span
        bookkeeping on the hot path."""
        original = get_tracer()
        set_tracer(Tracer(enabled=False))
        gate = threading.Event()
        try:
            stub = StubSession(block=gate)
            engine = BatchingEngine(
                stub, max_batch=8, batch_timeout_us=0, queue_depth=None
            )
            x = np.ones((1, 1), np.float32)
            for _ in range(100):  # warm allocator and code paths
                engine.submit({"x": x})
            n = 2000
            start = time.perf_counter()
            for _ in range(n):
                engine.submit({"x": x})
            elapsed = time.perf_counter() - start
            gate.set()
            engine.close(drain=True)
        finally:
            set_tracer(original)
        per_submit = elapsed / n
        # Generous bound (CI machines vary) but still catches an
        # accidental always-on span or per-call allocation storm.
        assert per_submit < 500e-6, f"submit took {per_submit * 1e6:.1f}us"

    def test_observability_spans_and_metrics(self):
        registry = set_registry(MetricsRegistry())
        tracer = set_tracer(Tracer(enabled=True))
        try:
            weights = mlp_weights()
            session = InferenceSession.for_workload(
                "MLP_1",
                weights=weights,
                batching="on",
                max_batch=8,
                batch_timeout_us=10_000,
            )
            rng = np.random.RandomState(3)
            futures = [
                session.submit({"x": rng.randn(4, 13).astype(np.float32)})
                for _ in range(4)
            ]
            for future in futures:
                future.result(timeout=30)
            session.close()
            names = {record.name for record in tracer.records()}
            assert "batch.collect" in names
            assert "batch.execute" in names
            snapshot = registry.snapshot()
            assert snapshot["service.batch.executions"]["value"] >= 1
            assert snapshot["service.batch.requests"]["value"] == 4
            assert snapshot["service.batch.size"]["count"] >= 1
            assert (
                snapshot["service.batch.queue_wait_seconds"]["count"] == 4
            )
            assert snapshot["service.batch.rows"]["count"] >= 1
        finally:
            set_registry(MetricsRegistry())
            set_tracer(Tracer(enabled=False))


class TestDynamicBatchMode:
    """One queue, no row bound, zero padding."""

    def test_stub_dynamic_coalesces_without_row_bound(self):
        block = threading.Event()
        stub = StubSession(block=block)
        engine = BatchingEngine(
            stub, max_batch=4, batch_timeout_us=50_000
        )
        try:
            futures = [submit_rows(engine, b)[0] for b in (5, 7, 9)]
            block.set()
            for future, batch in zip(futures, (5, 7, 9)):
                assert future.result(timeout=30)["y"].shape[0] == batch
            # 21 combined rows, no row bound: at most two exact windows
            # (the stub asserts each executes unpadded).
            assert len(stub.calls) <= 2
            assert sum(stub.calls) == 21
        finally:
            stub.block = None
            engine.close()

    def test_real_dynamic_session_unpadded_and_identical(self):
        weights = mlp_weights()
        reference = InferenceSession.for_workload("MLP_1", weights=weights)
        with InferenceSession.for_workload(
            "MLP_1",
            weights=weights,
            batching="on",
            max_batch=8,
            batch_timeout_us=5_000,
        ) as sess:
            rng = np.random.RandomState(11)
            xs = {
                b: rng.randn(b, 13).astype(np.float32)
                for b in (1, 3, 8, 17, 32)
            }
            futures = {
                b: [sess.submit({"x": xs[b]}) for _ in range(2)]
                for b in xs
            }
            for b, futs in futures.items():
                want = next(iter(reference.run({"x": xs[b]}).values()))
                for future in futs:
                    got = next(iter(future.result(30).values()))
                    np.testing.assert_array_equal(got, want)
            stats = sess.engine.stats()
            assert stats.padded_rows == 0
            assert stats.completed == 10
        reference.close()
