"""The executor contract: the default backend against the interpreter.

Two backends execute Tensor IR: the reference interpreter and codegen,
the one optimising backend and the default.  The default is only allowed
to be a backend other than the interpreter because it is bit-identical
to it; the differential matrix here (MLP/MHA x f32/int8 x 1/4 threads,
run on whatever ``CompilerOptions()`` selects) is that contract.  The
rest covers backend selection, the partition's persistent pool, the
interpreter satellites (Free clearing thread-local status, lock-free
serial stats) and the build-time specialization the optimising backend
does (folded slices, bounds checks deferred to run time, entry
validation and error messages identical to the interpreter's).
Codegen-only behavior lives in ``test_codegen.py``.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import CompilerOptions, DType, compile_graph
from repro.errors import ExecutionError
from repro.runtime import (
    EXECUTOR_BACKENDS,
    CodegenExecutor,
    CompiledPartition,
    ExecutionStats,
    Interpreter,
)
from repro.runtime.interpreter import _NullLock
from repro.tensor_ir import SliceRef, TirBuilder, TirModule
from repro.tensor_ir.stmt import Alloc, full_slice
from repro.workloads import (
    build_mha_graph,
    build_mlp_graph,
    make_mha_inputs,
    make_mlp_inputs,
)

WORKLOADS = {
    "MLP_1": (lambda dtype: build_mlp_graph("MLP_1", 16, dtype),
              lambda dtype: make_mlp_inputs("MLP_1", 16, dtype)),
    "MHA_1": (lambda dtype: build_mha_graph("MHA_1", 2, dtype),
              lambda dtype: make_mha_inputs("MHA_1", 2, dtype)),
}


def run_backend(workload, dtype, options, num_threads):
    build, feed = WORKLOADS[workload]
    partition = compile_graph(
        build(dtype), options=options, num_threads=num_threads
    )
    outputs, stats = partition.execute_with_stats(dict(feed(dtype)))
    partition.close()
    # Tensor names differ between independently built graphs (global id
    # counter), so equivalence is positional.
    return list(outputs.values()), stats


def error_message(runner, module, buffers):
    """The ExecutionError message ``runner(module).run(buffers)`` raises."""
    with pytest.raises(ExecutionError) as err:
        runner(module).run(buffers)
    return str(err.value)


class TestDifferential:
    """The default executor and the interpreter must be indistinguishable."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("dtype", [DType.f32, DType.s8],
                             ids=["f32", "int8"])
    @pytest.mark.parametrize("num_threads", [1, 4])
    def test_outputs_bit_identical_and_stats_match(
        self, workload, dtype, num_threads
    ):
        ref_out, ref_stats = run_backend(
            workload, dtype, CompilerOptions(executor="interpret"),
            num_threads,
        )
        got_out, got_stats = run_backend(
            workload, dtype, CompilerOptions(), num_threads
        )
        assert len(ref_out) == len(got_out)
        for ref, got in zip(ref_out, got_out):
            np.testing.assert_array_equal(ref, got)
        ref_dict, got_dict = ref_stats.to_dict(), got_stats.to_dict()
        if num_threads == 1:
            assert ref_dict == got_dict
        else:
            # peak_temp_bytes depends on thread interleaving in both
            # backends; every deterministic counter must still agree.
            for key in ref_dict:
                if key != "peak_temp_bytes":
                    assert ref_dict[key] == got_dict[key], key
            assert got_dict["peak_temp_bytes"] > 0

    def test_threaded_equals_serial_compiled(self):
        # "compiled": the default, generated-code backend.
        serial, _ = run_backend("MLP_1", DType.f32, CompilerOptions(), 1)
        threaded, _ = run_backend("MLP_1", DType.f32, CompilerOptions(), 4)
        for ref, got in zip(serial, threaded):
            np.testing.assert_array_equal(ref, got)

    def test_repeated_calls_reuse_state_correctly(self):
        build, feed = WORKLOADS["MLP_1"]
        partition = compile_graph(build(DType.f32))
        first = partition.execute(dict(feed(DType.f32)))
        second = partition.execute(dict(feed(DType.f32)))
        # Pooled temporaries and the pooled arena must be re-zeroed: any
        # stale state from call one would perturb call two.
        for ref, got in zip(first.values(), second.values()):
            np.testing.assert_array_equal(ref, got)
        partition.close()


class TestBackendSelection:
    def test_default_is_codegen(self):
        partition = compile_graph(build_mlp_graph("MLP_1", 16, DType.f32))
        assert partition.executor == "codegen"
        assert CompilerOptions().executor == "codegen"
        assert EXECUTOR_BACKENDS == ("interpret", "codegen")

    def test_interpret_selectable_via_options(self):
        partition = compile_graph(
            build_mlp_graph("MLP_1", 16, DType.f32),
            options=CompilerOptions(executor="interpret"),
        )
        assert partition.executor == "interpret"

    def test_invalid_backend_rejected_at_compile(self):
        with pytest.raises(ValueError, match="executor"):
            compile_graph(
                build_mlp_graph("MLP_1", 16, DType.f32),
                options=CompilerOptions(executor="jit"),
            )

    def test_removed_compiled_backend_rejected(self):
        # The closure-program backend was deleted; its name must fail
        # loudly rather than silently fall back to another backend.
        removed = "compiled"
        with pytest.raises(ValueError, match=f"executor='{removed}'"):
            compile_graph(
                build_mlp_graph("MLP_1", 16, DType.f32),
                options=CompilerOptions(executor=removed),
            )

    def test_invalid_backend_rejected_by_partition(self):
        partition = compile_graph(build_mlp_graph("MLP_1", 16, DType.f32))
        with pytest.raises(ValueError, match="jit"):
            CompiledPartition(partition.lowered, executor="jit")

    def test_executor_choice_enters_cache_signature(self):
        from repro.microkernel.machine import XEON_8358
        from repro.service import graph_signature

        sig_default = graph_signature(
            build_mlp_graph("MLP_1", 16, DType.f32),
            XEON_8358,
            CompilerOptions(),
        )
        sig_interp = graph_signature(
            build_mlp_graph("MLP_1", 16, DType.f32),
            XEON_8358,
            CompilerOptions(executor="interpret"),
        )
        assert sig_default != sig_interp

    def test_session_executor_override(self):
        from repro.service import InferenceSession

        feed = make_mlp_inputs("MLP_1", 16, DType.f32)
        outs = []
        for backend in EXECUTOR_BACKENDS:
            options = CompilerOptions(executor=backend)
            probe = InferenceSession.for_workload("MLP_1", options=options)
            weights = {name: feed[name] for name in probe.weight_names}
            session = InferenceSession.for_workload(
                "MLP_1", weights=weights, options=options
            )
            inputs = {name: feed[name] for name in session.input_names}
            outs.append(list(session.run(inputs).values()))
            session.close()
        for ref, got in zip(*outs):
            np.testing.assert_array_equal(ref, got)


class TestPartitionPool:
    def test_pool_persists_across_calls_and_tracks_num_threads(self):
        feed = make_mlp_inputs("MLP_1", 16, DType.f32)
        partition = compile_graph(
            build_mlp_graph("MLP_1", 16, DType.f32), num_threads=2
        )
        partition.execute(dict(feed))
        pool = partition._pool
        assert pool is not None
        partition.execute(dict(feed))
        assert partition._pool is pool  # no per-call churn
        partition.num_threads = 3
        partition.execute(dict(feed))
        assert partition._pool is not pool
        assert partition._pool_size == 3
        partition.close()
        assert partition._pool is None

    def test_single_threaded_partition_never_builds_a_pool(self):
        feed = make_mlp_inputs("MLP_1", 16, DType.f32)
        partition = compile_graph(build_mlp_graph("MLP_1", 16, DType.f32))
        partition.execute(dict(feed))
        assert partition._pool is None


def _parallel_module():
    b = TirBuilder("f")
    b.param("x", DType.f32, (4, 8))
    with b.parallel_for("i", 4) as i:
        b.fill(SliceRef("x", (i, 0), (1, 8)), 2.0)
    with b.parallel_for("j", 4) as j:
        b.fill(SliceRef("x", (j, 0), (1, 8)), 3.0)
    module = TirModule(entry="f")
    module.add(b.finish())
    return module


def _fill_module():
    b = TirBuilder("f")
    b.param("x", DType.f32, (4, 8))
    with b.for_("i", 4) as i:
        b.fill(SliceRef("x", (i, 0), (1, 8)), 1.0)
    module = TirModule(entry="f")
    module.add(b.finish())
    return module


class TestInterpreterSatellites:
    def test_parallel_loops_share_one_pool_for_interpreter_lifetime(self):
        module = _parallel_module()
        interp = Interpreter(module, num_threads=2)
        x = np.zeros((4, 8), dtype=np.float32)
        interp.run({"x": x})
        pool = interp._own_pool
        assert pool is not None  # created once, on the first loop
        interp.run({"x": x})
        assert interp._own_pool is pool
        assert np.all(x == 3.0)
        interp.close()
        assert interp._own_pool is None

    def test_injected_pool_is_used_and_not_owned(self):
        module = _parallel_module()
        with ThreadPoolExecutor(max_workers=2) as pool:
            interp = Interpreter(module, num_threads=2, pool=pool)
            x = np.zeros((4, 8), dtype=np.float32)
            interp.run({"x": x})
            assert interp._own_pool is None
            assert np.all(x == 3.0)

    def test_serial_interpreter_skips_the_stats_lock(self):
        module = _parallel_module()
        assert isinstance(Interpreter(module)._stats_lock, _NullLock)
        threaded = Interpreter(module, num_threads=2)
        assert not isinstance(threaded._stats_lock, _NullLock)
        assert isinstance(threaded._stats_lock, type(threading.Lock()))

    def test_free_clears_thread_local_status(self):
        # A name freed and re-allocated as a plain buffer must not be
        # forked (zeroed) per parallel iteration like the dead
        # thread-local buffer it replaced.
        b = TirBuilder("f")
        b.param("out", DType.f32, (4, 4))
        b.alloc("scratch", DType.f32, (4,), thread_local=True)
        b.free("scratch")
        b.emit(
            Alloc(tensor="scratch", dtype=DType.f32, shape=(4,))
        )
        b.fill(full_slice("scratch", (4,)), 3.0)
        with b.parallel_for("i", 4) as i:
            b.copy(
                SliceRef("out", (i, 0), (1, 4)),
                full_slice("scratch", (4,)),
            )
        b.free("scratch")
        module = TirModule(entry="f")
        module.add(b.finish())
        out = np.zeros((4, 4), dtype=np.float32)
        Interpreter(module, num_threads=2).run({"out": out})
        assert np.all(out == 3.0)  # stale thread-local status would give 0

    def test_stats_merge(self):
        parent = ExecutionStats(brgemm_calls=1, parallel_loops=1)
        parent.note_alloc(100)
        child = ExecutionStats(brgemm_calls=2, compute_stmts=3)
        child.note_alloc(50)
        child.note_free(50)
        parent.merge(child)
        assert parent.brgemm_calls == 3
        assert parent.compute_stmts == 3
        assert parent.parallel_loops == 1
        # Child peak stacks on the parent's live bytes at the fork.
        assert parent.peak_temp_bytes == 150


class TestSpecialization:
    """Build-time specialization in the optimising backend."""

    def test_constant_slices_and_bounds_precomputed(self):
        executor = CodegenExecutor(_fill_module())
        # The constant column range folds into a literal slice.
        assert "0:8]" in executor.source_for("f")
        x = np.zeros((4, 8), dtype=np.float32)
        executor.run({"x": x})
        assert np.all(x == 1.0)

    def test_dynamic_bounds_error_matches_interpreter(self):
        def build():
            b = TirBuilder("f")
            b.param("x", DType.f32, (6,))
            with b.for_("i", 4) as i:
                b.fill(SliceRef("x", (i * 2,), (2,)), 1.0)
            module = TirModule(entry="f")
            module.add(b.finish())
            return module

        messages = [
            error_message(runner, build(), {"x": np.zeros(6, np.float32)})
            for runner in (Interpreter, CodegenExecutor)
        ]
        assert messages[0] == messages[1]
        assert "out of bounds" in messages[0]

    def test_static_out_of_bounds_raises_at_run_not_build(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4,))
        b.fill(SliceRef("x", (2,), (4,)), 1.0)  # [2, 6) over a (4,) buf
        module = TirModule(entry="f")
        module.add(b.finish())
        executor = CodegenExecutor(module)  # build must not raise
        with pytest.raises(ExecutionError, match="out of bounds"):
            executor.run({"x": np.zeros(4, dtype=np.float32)})

    def test_entry_validation_matches_interpreter(self):
        for buffers, expected in (
            ({}, "missing buffer 'x'"),
            ({"x": np.zeros((5, 8), dtype=np.float32)}, "has shape"),
        ):
            messages = [
                error_message(runner, _fill_module(), buffers)
                for runner in (Interpreter, CodegenExecutor)
            ]
            assert messages[0] == messages[1]
            assert expected in messages[0]

    def test_pooled_temporaries_are_rezeroed(self):
        # out += tmp with tmp never written: must read zeros on every
        # call, including ones served from the buffer free-list.
        b = TirBuilder("f")
        b.param("out", DType.f32, (4,))
        tmp = b.alloc("tmp", DType.f32, (4,))
        b.compute(
            "add",
            full_slice("out", (4,)),
            [full_slice("out", (4,)), full_slice(tmp, (4,))],
        )
        b.fill(full_slice(tmp, (4,)), 9.0)  # poison before the free
        b.free(tmp)
        module = TirModule(entry="f")
        module.add(b.finish())
        executor = CodegenExecutor(module)
        for _ in range(3):
            out = np.ones(4, dtype=np.float32)
            executor.run({"out": out})
            np.testing.assert_array_equal(out, np.ones(4))

    def test_stats_match_interpreter_exactly(self):
        module = _parallel_module()
        x = np.zeros((4, 8), dtype=np.float32)
        interp = Interpreter(module)
        interp.run({"x": x})
        stats = CodegenExecutor(module).run(
            {"x": np.zeros((4, 8), dtype=np.float32)}
        )
        assert stats.to_dict() == interp.stats.to_dict()
