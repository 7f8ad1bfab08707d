"""InferenceSession: one shape-polymorphic partition, numerical identity,
threading, lifecycle."""

import threading

import numpy as np
import pytest

from repro import (
    CompilerOptions,
    DType,
    compile_counter,
    compile_graph,
)
from repro.graph_ir.reference import evaluate_graph
from repro.runtime.partition import CompiledPartition
from repro.service import InferenceSession, PartitionCache
from repro.service.session import DYNAMIC_BATCH_HINT
from repro.workloads import (
    build_mha_graph,
    build_mlp_graph,
    make_mha_inputs,
    make_mlp_inputs,
)
from tests.runtime.test_dynamic import pad_to_hint


def mlp_weights(name="MLP_1", seed=0):
    inputs = make_mlp_inputs(name, 32, seed=seed)
    return {k: v for k, v in inputs.items() if k.startswith("w")}


def mlp_session(weights, **kwargs):
    return InferenceSession.for_workload(
        "MLP_1", weights=weights, **kwargs
    )


@pytest.fixture
def executed_shapes(monkeypatch):
    """Input shapes of every CompiledPartition.execute, in call order."""
    shapes = []
    original = CompiledPartition.execute

    def spy(self, inputs, *args, **kwargs):
        shapes.append({k: np.shape(v) for k, v in inputs.items()})
        return original(self, inputs, *args, **kwargs)

    monkeypatch.setattr(CompiledPartition, "execute", spy)
    return shapes


class TestBucketing:
    """A session has no buckets: one partition, exact rows."""

    def test_no_buckets_compiles_exact(self, executed_shapes):
        sess = mlp_session(mlp_weights())
        x = np.random.RandomState(0).randn(17, 13).astype(np.float32)
        out = sess.run({"x": x})
        assert next(iter(out.values())).shape == (17, 128)
        # The partition ran on the request's 17 rows: nothing padded.
        assert [shapes["x"] for shapes in executed_shapes] == [(17, 13)]
        sess.close()

    def test_introspection(self):
        sess = mlp_session(mlp_weights())
        assert sess.input_names == ["x"]
        assert sess.weight_names == ["w0", "w1", "w2"]
        assert sess.input_batch_axes == {"x": [(0, 1)]}
        assert sess.output_batch_axes == [[(0, 1)]]


class TestNumericalIdentity:
    def test_mlp_exact_bucket_matches_direct(self):
        weights = mlp_weights()
        sess = mlp_session(weights)
        rng = np.random.RandomState(1)
        x = rng.randn(32, 13).astype(np.float32)
        served = list(sess.run({"x": x}).values())[0]
        direct = list(
            compile_graph(build_mlp_graph("MLP_1", 32)).execute(
                {**weights, "x": x}
            ).values()
        )[0]
        np.testing.assert_array_equal(served, direct)

    def test_mlp_padded_bucket_matches_direct(self):
        weights = mlp_weights()
        sess = mlp_session(weights)
        rng = np.random.RandomState(2)
        x = rng.randn(20, 13).astype(np.float32)
        served = list(sess.run({"x": x}).values())[0]
        direct = list(
            compile_graph(build_mlp_graph("MLP_1", 20)).execute(
                {**weights, "x": x}
            ).values()
        )[0]
        assert served.shape == (20, 128)
        np.testing.assert_array_equal(served, direct)

    def test_mlp_int8_padded_matches_direct(self):
        inputs = make_mlp_inputs("MLP_1", 24, DType.s8)
        weights = {k: v for k, v in inputs.items() if k.startswith("w")}
        sess = InferenceSession.for_workload(
            "MLP_1", dtype=DType.s8, weights=weights
        )
        served = list(sess.run({"x": inputs["x"]}).values())[0]
        direct = list(
            compile_graph(build_mlp_graph("MLP_1", 24, DType.s8)).execute(
                inputs
            ).values()
        )[0]
        np.testing.assert_array_equal(served, direct)

    def test_mha_exact_and_padded_match_direct(self):
        sess = InferenceSession.for_workload("MHA_1")
        for batch in (4, 2):
            inputs = make_mha_inputs("MHA_1", batch, seed=batch)
            served = list(sess.run(inputs).values())[0]
            direct = list(
                compile_graph(build_mha_graph("MHA_1", batch)).execute(
                    inputs
                ).values()
            )[0]
            assert served.shape[0] == batch
            np.testing.assert_array_equal(served, direct)


class TestThreadedServing:
    def test_mixed_batches_from_many_threads(self):
        weights = mlp_weights()
        cache = PartitionCache()
        sess = mlp_session(weights, cache=cache)
        batches = [8, 16, 32, 40, 48, 64, 24, 56]
        rng = np.random.RandomState(3)
        requests = [
            rng.randn(batch, 13).astype(np.float32) for batch in batches
        ]
        # Reference results from an identical session served sequentially
        # (own cache, so the concurrent session still races compilation).
        # Compilation is deterministic, so bitwise equality is required.
        reference = mlp_session(weights)
        expected = {}
        for batch, x in zip(batches, requests):
            expected[batch] = list(reference.run({"x": x}).values())[0]

        barrier = threading.Barrier(len(batches))
        results = [None] * len(batches)
        errors = []

        def worker(i):
            try:
                barrier.wait()
                results[i] = list(
                    sess.run({"x": requests[i]}).values()
                )[0]
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        with compile_counter() as counter:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(batches))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert not errors
        # One partition serves every request: one compilation even under
        # concurrency (single-flight), regardless of arrival order.
        assert counter.count == 1
        for i, batch in enumerate(batches):
            np.testing.assert_array_equal(results[i], expected[batch])
        assert sess.stats().hit_rate > 0


class TestSharedCache:
    def test_sessions_share_compilations_via_cache(self):
        weights = mlp_weights()
        cache = PartitionCache()
        a = mlp_session(weights, cache=cache)
        b = mlp_session(weights, cache=cache)
        rng = np.random.RandomState(4)
        x = rng.randn(32, 13).astype(np.float32)
        with compile_counter() as counter:
            out_a = list(a.run({"x": x}).values())[0]
            out_b = list(b.run({"x": x}).values())[0]
        assert counter.count == 1  # isomorphic builders share a signature
        np.testing.assert_array_equal(out_a, out_b)

    def test_options_split_cache_entries(self):
        weights = mlp_weights()
        cache = PartitionCache()
        full = mlp_session(weights, cache=cache)
        ablated = mlp_session(
            weights,
            cache=cache,
            options=CompilerOptions.no_coarse_fusion(),
        )
        rng = np.random.RandomState(5)
        x = rng.randn(32, 13).astype(np.float32)
        with compile_counter() as counter:
            full.run({"x": x})
            ablated.run({"x": x})
        assert counter.count == 2


class TestValidation:
    def test_missing_batch_input(self):
        sess = mlp_session(mlp_weights())
        with pytest.raises(ValueError, match="missing input"):
            sess.run({"not_x": np.zeros((4, 13), np.float32)})

    def test_weight_scaling_with_batch_rejected(self):
        from repro.graph_ir import GraphBuilder

        def bad_builder(batch):
            b = GraphBuilder("bad")
            x = b.input("x", DType.f32, (batch, 8))
            w = b.constant("w", dtype=DType.f32, shape=(batch, 8))
            b.output(b.add(x, w))
            return b.finish()

        with pytest.raises(ValueError, match="batch-independent"):
            InferenceSession(bad_builder)

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            InferenceSession.for_workload("RNN_9")


class TestSessionLifecycle:
    """ISSUE satellite: sessions own a close() that releases partitions."""

    def test_close_releases_owned_cache_partitions(self):
        sess = mlp_session(mlp_weights())
        x = np.zeros((32, 13), np.float32)
        sess.run({"x": x})
        cache = sess.cache
        residents = cache.resident_partitions()
        assert residents
        for p in residents:
            p.num_threads = 2
            p.execute({"x": x, **mlp_weights()})
            assert p.has_active_pool
        sess.close()
        assert sess.closed
        for p in residents:
            assert not p.has_active_pool
        assert len(cache) == 0
        sess.close()  # idempotent

    def test_close_leaves_shared_cache_alone(self):
        cache = PartitionCache()
        sess = mlp_session(mlp_weights(), cache=cache)
        sess.run({"x": np.zeros((32, 13), np.float32)})
        assert len(cache) == 1
        sess.close()
        # A caller-provided cache may back other sessions: untouched.
        assert len(cache) == 1
        assert cache.resident_partitions()

    def test_run_and_submit_after_close_raise(self):
        sess = mlp_session(mlp_weights(), batching="on")
        sess.close()
        with pytest.raises(RuntimeError, match="closed"):
            sess.run({"x": np.zeros((4, 13), np.float32)})
        with pytest.raises(RuntimeError, match="closed"):
            sess.submit({"x": np.zeros((4, 13), np.float32)})

    def test_context_manager_closes(self):
        with mlp_session(mlp_weights()) as sess:
            out = sess.run({"x": np.zeros((8, 13), np.float32)})
            assert next(iter(out.values())).shape == (8, 128)
        assert sess.closed


class TestCloseRace:
    """ISSUE satellite: a submit racing close() must either serve or
    raise SessionClosedError — never hang, never lose a future."""

    def test_submit_storm_racing_close_settles_every_future(self):
        from repro.errors import SessionClosedError

        weights = mlp_weights()
        x = np.random.RandomState(9).randn(4, 13).astype(np.float32)
        for _ in range(3):  # repeat: the race window is narrow
            sess = mlp_session(
                weights,
                batching="on",
                batch_timeout_us=200,
            )
            sess.run({"x": x})  # warm so submits are fast
            start = threading.Barrier(3)
            futures, rejected = [], []

            def submitter():
                start.wait()
                for _ in range(50):
                    try:
                        futures.append(sess.submit({"x": x}))
                    except SessionClosedError:
                        rejected.append(1)
                        return

            def closer():
                start.wait()
                sess.close(drain=True)

            threads = [
                threading.Thread(target=submitter),
                threading.Thread(target=submitter),
                threading.Thread(target=closer),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert sess.closed
            # Every accepted future settles: a result or a closed error.
            for future in futures:
                try:
                    out = future.result(timeout=30)
                    assert next(iter(out.values())).shape == (4, 128)
                except SessionClosedError:
                    pass

    def test_concurrent_closes_are_idempotent(self):
        sess = mlp_session(mlp_weights())
        sess.run({"x": np.zeros((8, 13), np.float32)})
        barrier = threading.Barrier(4)
        errors = []

        def closer():
            try:
                barrier.wait()
                sess.close()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert sess.closed


class TestBatchingMode:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="batching"):
            mlp_session(mlp_weights(), batching="sometimes")

    def test_off_mode_has_no_engine(self):
        sess = mlp_session(mlp_weights())
        assert sess.batching == "off"
        assert sess.engine is None
        with pytest.raises(RuntimeError, match="batching"):
            sess.submit({"x": np.zeros((4, 13), np.float32)})
        sess.close()

    def test_on_mode_serves_through_engine(self):
        weights = mlp_weights()
        cache = PartitionCache()
        reference = mlp_session(weights, cache=cache)
        with mlp_session(
            weights,
            cache=cache,
            batching="on",
            max_batch=4,
            batch_timeout_us=5_000,
        ) as sess:
            assert sess.batching == "on"
            assert sess.engine is not None
            rng = np.random.RandomState(6)
            x = rng.randn(12, 13).astype(np.float32)
            served = next(iter(sess.run({"x": x}).values()))
            direct = next(iter(reference.run({"x": x}).values()))
            np.testing.assert_array_equal(served, direct)
            assert sess.engine.stats().completed == 1
        assert sess.engine.closed
        reference.close()

    def test_default_settings_coalesce_concurrent_submits(self):
        with mlp_session(mlp_weights(), batching="on") as sess:
            x = np.random.RandomState(8).randn(4, 13).astype(np.float32)
            sess.run({"x": x})  # warm: compile + first execute
            before = sess.engine.stats().batches
            futures = [sess.submit({"x": x}) for _ in range(16)]
            for future in futures:
                assert next(iter(future.result(30).values())).shape == (4, 128)
            assert sess.engine.stats().batches - before < 16


#: Cases beyond MLP_1 f32: (workload, dtype, batches).
#: MHA_1 s8 is left to the tests/runtime/test_dynamic.py matrix.
DYNAMIC_CASES = (
    ("MLP_1", DType.s8, (1, 3, 17, 32)),
    ("MHA_1", DType.f32, (1, 3)),
)


def workload_weights(workload, dtype):
    """Runtime weights of ``workload``, fixed at batch 32 (none for MHA)."""
    if workload.startswith("MHA"):
        return {}
    inputs = make_mlp_inputs(workload, 32, dtype)
    return {k: v for k, v in inputs.items() if k.startswith("w")}


def workload_session(workload, dtype, **kwargs):
    return InferenceSession.for_workload(
        workload,
        dtype=dtype,
        weights=workload_weights(workload, dtype),
        **kwargs,
    )


def workload_activations(workload, dtype, batch, seed):
    if workload.startswith("MHA"):
        return make_mha_inputs(workload, batch, dtype, seed=seed)
    return {"x": make_mlp_inputs(workload, batch, dtype, seed=seed)["x"]}


def padded_static_reference(workload, dtype, feed, batch):
    """The static hint-sized program on zero-padded inputs, cropped back
    to ``batch`` — what the shape-polymorphic partition must equal."""
    build = build_mha_graph if workload.startswith("MHA") else build_mlp_graph
    hint = DYNAMIC_BATCH_HINT
    weights = workload_weights(workload, dtype)
    base = {**workload_activations(workload, dtype, hint, 0), **weights}
    _, static_feed = pad_to_hint({**feed, **weights}, base, batch, hint)
    outputs = compile_graph(build(workload, hint, dtype)).execute(static_feed)
    return [array[:batch] for array in outputs.values()]


class TestDynamicBatch:
    """One shape-polymorphic partition, zero padding."""

    def test_one_compile_serves_every_batch_unpadded(self, executed_shapes):
        weights = mlp_weights()
        sess = mlp_session(weights)
        rng = np.random.RandomState(3)
        with compile_counter() as counter:
            for batch in (1, 3, 8, 17, 32):
                out = sess.run(
                    {"x": rng.randn(batch, 13).astype(np.float32)}
                )
                assert next(iter(out.values())).shape[0] == batch
        assert counter.count == 1
        assert sess.stats().compiles == 1
        assert [shapes["x"][0] for shapes in executed_shapes] == [
            1, 3, 8, 17, 32
        ]
        sess.close()
        for workload, dtype, batches in DYNAMIC_CASES:
            sess = workload_session(workload, dtype)
            executed_shapes.clear()
            with compile_counter() as counter:
                for batch in batches:
                    feed = workload_activations(workload, dtype, batch, batch)
                    out = sess.run(feed)
                    assert next(iter(out.values())).shape[0] == batch
                    # Executed on the request's own shapes: no padding.
                    assert {
                        name: executed_shapes[-1][name] for name in feed
                    } == {name: array.shape for name, array in feed.items()}
            assert counter.count == 1, (workload, dtype)
            assert sess.stats().compiles == 1
            sess.close()

    def test_bit_identical_to_static_bucket_path(self):
        cases = (("MLP_1", DType.f32, (1, 3, 8, 17, 32)),) + DYNAMIC_CASES
        for workload, dtype, batches in cases:
            sess = workload_session(workload, dtype)
            for batch in batches:
                feed = workload_activations(workload, dtype, batch, batch)
                got = list(sess.run(feed).values())
                want = padded_static_reference(workload, dtype, feed, batch)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
            sess.close()

    def test_warm_compiles_the_one_partition(self):
        sess = mlp_session(mlp_weights())
        with compile_counter() as counter:
            sess.warm()
        assert counter.count == 1
        with compile_counter() as counter:
            sess.run({"x": np.zeros((17, 13), np.float32)})
        assert counter.count == 0
        sess.close()


class TestOneCompile:
    def test_distinct_batches_share_one_compile_and_match_reference(self):
        weights = mlp_weights()
        sess = mlp_session(weights)
        rng = np.random.RandomState(5)
        batches = list(range(1, 41, 3)) + [33, 47, 50, 64, 71, 96]
        assert len(set(batches)) == 20
        assert max(batches) > DYNAMIC_BATCH_HINT
        with compile_counter() as counter:
            for batch in batches:
                x = rng.randn(batch, 13).astype(np.float32)
                got = list(sess.run({"x": x}).values())
                want = list(
                    evaluate_graph(
                        build_mlp_graph("MLP_1", batch), {"x": x, **weights}
                    ).values()
                )
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    np.testing.assert_allclose(g, w, rtol=1e-5, atol=1e-5)
        assert counter.count == 1
        assert sess.stats().compiles == 1
        sess.close()
