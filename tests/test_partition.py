"""Tests for the CompiledPartition public API."""

import threading

import numpy as np
import pytest

from repro import CompilerOptions, DType, GraphBuilder, compile_graph
from repro.errors import ExecutionError


def make_partition():
    b = GraphBuilder("p")
    x = b.input("x", DType.f32, (16, 32))
    w = b.constant("w", dtype=DType.f32, shape=(32, 16))
    b.output(b.relu(b.matmul(x, w)))
    return compile_graph(b.finish())


class TestIntrospection:
    def test_names(self):
        p = make_partition()
        assert p.input_names == ["x"]
        assert p.weight_names == ["w"]
        assert len(p.output_names) == 1

    def test_not_initialized_before_first_run(self):
        p = make_partition()
        assert not p.is_initialized

    def test_initialized_after_first_run(self):
        p = make_partition()
        rng = np.random.RandomState(0)
        p.execute(
            {
                "x": rng.randn(16, 32).astype(np.float32),
                "w": rng.randn(32, 16).astype(np.float32),
            }
        )
        assert p.is_initialized

    def test_stats_available(self):
        p = make_partition()
        rng = np.random.RandomState(0)
        p.execute(
            {
                "x": rng.randn(16, 32).astype(np.float32),
                "w": rng.randn(32, 16).astype(np.float32),
            }
        )
        assert p.last_stats is not None
        assert p.last_stats.brgemm_calls > 0
        assert p.init_stats is not None
        assert p.init_stats.pack_stmts > 0  # weight prepack


class TestWarmth:
    """``is_warm``: whether the next execute is free of one-time work."""

    @pytest.mark.parametrize("backend", ["interpret", "codegen"])
    def test_cold_until_first_execute(self, backend):
        b = GraphBuilder("p")
        x = b.input("x", DType.f32, (16, 32))
        w = b.constant("w", dtype=DType.f32, shape=(32, 16))
        b.output(b.relu(b.matmul(x, w)))
        p = compile_graph(
            b.finish(), options=CompilerOptions(executor=backend)
        )
        assert not p.is_warm
        rng = np.random.RandomState(0)
        p.execute(
            {
                "x": rng.randn(16, 32).astype(np.float32),
                "w": rng.randn(32, 16).astype(np.float32),
            }
        )
        assert p.is_warm
        p.close()
        assert p.is_warm  # close releases the pool, not the build


class TestExecuteValidation:
    def test_missing_activation(self):
        p = make_partition()
        with pytest.raises(ExecutionError, match="missing input"):
            p.execute({"w": np.zeros((32, 16), np.float32)})

    def test_wrong_shape(self):
        p = make_partition()
        with pytest.raises(ExecutionError, match="shape"):
            p.execute(
                {
                    "x": np.zeros((16, 33), np.float32),
                    "w": np.zeros((32, 16), np.float32),
                }
            )

    def test_wrong_dtype(self):
        p = make_partition()
        with pytest.raises(ExecutionError, match="dtype"):
            p.execute(
                {
                    "x": np.zeros((16, 32), np.float64),
                    "w": np.zeros((32, 16), np.float32),
                }
            )

    def test_weights_ignored_after_first_run(self):
        """Weights passed on later runs are ignored — constants are cached
        (the paper's runtime-constant contract)."""
        p = make_partition()
        rng = np.random.RandomState(0)
        x = rng.randn(16, 32).astype(np.float32)
        w = rng.randn(32, 16).astype(np.float32)
        first = list(p.execute({"x": x, "w": w}).values())[0]
        other_w = rng.randn(32, 16).astype(np.float32)
        second = list(p.execute({"x": x, "w": other_w}).values())[0]
        np.testing.assert_array_equal(first, second)

    def test_non_contiguous_input_accepted(self):
        p = make_partition()
        rng = np.random.RandomState(0)
        x = rng.randn(32, 32).astype(np.float32)[::2]  # strided view
        w = rng.randn(32, 16).astype(np.float32)
        out = list(p.execute({"x": x, "w": w}).values())[0]
        np.testing.assert_allclose(
            out, np.maximum(np.ascontiguousarray(x) @ w, 0), rtol=1e-4,
            atol=1e-4,
        )

    def test_outputs_are_fresh_buffers(self):
        p = make_partition()
        rng = np.random.RandomState(0)
        x = rng.randn(16, 32).astype(np.float32)
        w = rng.randn(32, 16).astype(np.float32)
        out1 = list(p.execute({"x": x, "w": w}).values())[0]
        out2 = list(p.execute({"x": x}).values())[0]
        assert out1 is not out2
        out1[...] = 0  # mutating one result must not affect the next
        out3 = list(p.execute({"x": x}).values())[0]
        np.testing.assert_array_equal(out2, out3)


class TestErrorPaths:
    def test_missing_weight_on_first_call(self):
        p = make_partition()
        with pytest.raises(ExecutionError, match="missing input 'w'"):
            p.execute({"x": np.zeros((16, 32), np.float32)})
        assert not p.is_initialized  # a failed init leaves no cache behind

    def test_weights_not_required_after_init(self):
        p = make_partition()
        rng = np.random.RandomState(0)
        x = rng.randn(16, 32).astype(np.float32)
        w = rng.randn(32, 16).astype(np.float32)
        first = list(p.execute({"x": x, "w": w}).values())[0]
        # Later calls may omit the weight entirely.
        second = list(p.execute({"x": x}).values())[0]
        np.testing.assert_array_equal(first, second)

    def test_shape_mismatch_message_names_tensor(self):
        p = make_partition()
        with pytest.raises(
            ExecutionError, match=r"input 'x' has shape \(16, 33\)"
        ):
            p.execute(
                {
                    "x": np.zeros((16, 33), np.float32),
                    "w": np.zeros((32, 16), np.float32),
                }
            )

    def test_dtype_mismatch_message_names_tensor(self):
        p = make_partition()
        with pytest.raises(
            ExecutionError, match="input 'w' has dtype int8"
        ):
            p.execute(
                {
                    "x": np.zeros((16, 32), np.float32),
                    "w": np.zeros((32, 16), np.int8),
                }
            )

    def test_execute_with_stats_returns_per_call_stats(self):
        p = make_partition()
        rng = np.random.RandomState(0)
        feed = {
            "x": rng.randn(16, 32).astype(np.float32),
            "w": rng.randn(32, 16).astype(np.float32),
        }
        _, stats1 = p.execute_with_stats(feed)
        _, stats2 = p.execute_with_stats({"x": feed["x"]})
        assert stats1 is not stats2  # each call owns its stats object
        assert stats1.brgemm_calls == stats2.brgemm_calls > 0


class TestConcurrency:
    def test_multithreaded_execute_bitwise_identical(self):
        """The ISSUE stress test: concurrent first-call executions must
        initialize exactly once and agree bitwise on every output."""
        p = make_partition()
        rng = np.random.RandomState(7)
        x = rng.randn(16, 32).astype(np.float32)
        w = rng.randn(32, 16).astype(np.float32)
        reference = list(
            compile_graph_reference().execute({"x": x, "w": w}).values()
        )[0]
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def worker(i):
            try:
                barrier.wait()
                # All threads race the first call (weights included).
                results[i] = list(
                    p.execute({"x": x, "w": w}).values()
                )[0]
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for result in results:
            np.testing.assert_array_equal(result, reference)

    def test_init_races_do_not_clobber_weight_cache(self):
        p = make_partition()
        rng = np.random.RandomState(8)
        x = rng.randn(16, 32).astype(np.float32)
        w = rng.randn(32, 16).astype(np.float32)
        other_w = rng.randn(32, 16).astype(np.float32)
        barrier = threading.Barrier(2)
        outs = [None, None]

        def worker(i, weights):
            barrier.wait()
            outs[i] = list(
                p.execute({"x": x, "w": weights}).values()
            )[0]

        threads = [
            threading.Thread(target=worker, args=(0, w)),
            threading.Thread(target=worker, args=(1, other_w)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly one thread's weights won the init; both executions used
        # that single cached copy, so they agree bitwise with each other
        # and with every later call.  Which weights won is nondeterministic,
        # but the result must match one of the two candidates.
        assert outs[0].tobytes() == outs[1].tobytes()
        later = list(p.execute({"x": x}).values())[0]
        np.testing.assert_array_equal(later, outs[0])
        candidates = [np.maximum(x @ w, 0), np.maximum(x @ other_w, 0)]
        assert any(
            np.allclose(outs[0], c, rtol=1e-4, atol=1e-4)
            for c in candidates
        )


def compile_graph_reference():
    b = GraphBuilder("p_ref")
    x = b.input("x", DType.f32, (16, 32))
    w = b.constant("w", dtype=DType.f32, shape=(32, 16))
    b.output(b.relu(b.matmul(x, w)))
    return compile_graph(b.finish())


class TestArena:
    def test_arena_size_exposed(self):
        b = GraphBuilder("deep")
        t = b.input("x", DType.f32, (32, 64))
        for i in range(4):
            w = b.constant(f"w{i}", dtype=DType.f32, shape=(64, 64))
            t = b.relu(b.matmul(t, w))
        b.output(t)
        p = compile_graph(
            b.finish(), options=CompilerOptions.no_coarse_fusion()
        )
        assert p.arena_size > 0
        assert p.arena_size % 64 == 0


def make_threaded_partition():
    b = GraphBuilder("p")
    x = b.input("x", DType.f32, (16, 32))
    w = b.constant("w", dtype=DType.f32, shape=(32, 16))
    b.output(b.relu(b.matmul(x, w)))
    return compile_graph(b.finish(), num_threads=2)


class TestClose:
    def test_double_close_is_idempotent(self):
        p = make_threaded_partition()
        x = np.random.default_rng(0).standard_normal((16, 32)).astype(
            np.float32
        )
        w = np.random.default_rng(1).standard_normal((32, 16)).astype(
            np.float32
        )
        p.execute({"x": x, "w": w})
        assert p.has_active_pool
        p.close()
        assert not p.has_active_pool
        p.close()  # an owner and an evicting cache may both close it
        assert not p.has_active_pool

    def test_close_before_first_execute(self):
        p = make_threaded_partition()
        p.close()
        p.close()

    def test_concurrent_close_is_safe(self):
        p = make_threaded_partition()
        x = np.random.default_rng(0).standard_normal((16, 32)).astype(
            np.float32
        )
        w = np.random.default_rng(1).standard_normal((32, 16)).astype(
            np.float32
        )
        p.execute({"x": x, "w": w})
        errors = []

        def closer():
            try:
                p.close()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert not p.has_active_pool

    def test_execute_after_close_rebuilds_pool(self):
        p = make_threaded_partition()
        x = np.random.default_rng(0).standard_normal((16, 32)).astype(
            np.float32
        )
        w = np.random.default_rng(1).standard_normal((32, 16)).astype(
            np.float32
        )
        first = p.execute({"x": x, "w": w})
        p.close()
        again = p.execute({"x": x})
        for a, b in zip(first.values(), again.values()):
            np.testing.assert_array_equal(a, b)
        p.close()
