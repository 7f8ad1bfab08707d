"""The codegen executor: differential equivalence and satellites.

The whole-program codegen backend is only allowed to exist because it is
bit-identical to the reference interpreter.  The differential matrix
(MLP/MHA x f32/int8 x 1/4 threads) is the contract; the rest covers
codegen unit behavior (deterministic source, linecache
registration, pooled buffers, source dumping, error-message parity with
the interpreter) and the executor-choice cache-isolation regression
suite.
"""

import linecache
import traceback

import numpy as np
import pytest

from repro import CompilerOptions, DType, compile_graph
from repro.errors import ExecutionError
from repro.microkernel.brgemm import brgemm_partial
from repro.microkernel.machine import XEON_8358
from repro.runtime import (
    EXECUTOR_BACKENDS,
    CodegenExecutor,
    Interpreter,
)
from repro.service import PartitionCache, graph_signature
from repro.tensor_ir import SliceRef, TirBuilder, TirModule
from repro.tensor_ir.stmt import full_slice
from repro.tuner.cache import tuning_key
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


def run_backend(workload, dtype, backend, num_threads):
    build, feed = WORKLOADS[workload]
    partition = compile_graph(
        build(dtype),
        options=CompilerOptions(executor=backend),
        num_threads=num_threads,
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
    """Codegen must be indistinguishable from the interpreter."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("dtype", [DType.f32, DType.s8],
                             ids=["f32", "int8"])
    @pytest.mark.parametrize("num_threads", [1, 4])
    def test_outputs_bit_identical_and_stats_match(
        self, workload, dtype, num_threads
    ):
        ref_out, ref_stats = run_backend(
            workload, dtype, "interpret", num_threads
        )
        got_out, got_stats = run_backend(
            workload, dtype, "codegen", num_threads
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

    def test_dynamic_oob_error_identical_across_backends(self):
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


class TestCacheIsolation:
    """The executor choice must partition every cache namespace."""

    def test_graph_signatures_distinct_per_executor(self):
        signatures = {
            backend: graph_signature(
                build_mlp_graph("MLP_1", 16, DType.f32),
                XEON_8358,
                CompilerOptions(executor=backend),
            )
            for backend in EXECUTOR_BACKENDS
        }
        assert len(set(signatures.values())) == len(EXECUTOR_BACKENDS)

    def test_graph_signatures_distinct_with_tuning_enabled(self):
        signatures = {
            graph_signature(
                build_mlp_graph("MLP_1", 16, DType.f32),
                XEON_8358,
                CompilerOptions(executor=backend, tuning="model"),
            )
            for backend in EXECUTOR_BACKENDS
        }
        assert len(signatures) == len(EXECUTOR_BACKENDS)

    def test_partition_cache_never_shares_across_executors(self):
        cache = PartitionCache()
        compiles = []

        def compile_for(backend):
            def compile_fn():
                compiles.append(backend)
                return compile_graph(
                    build_mlp_graph("MLP_1", 16, DType.f32),
                    options=CompilerOptions(executor=backend),
                )

            return compile_fn

        partitions = {}
        for backend in EXECUTOR_BACKENDS:
            signature = graph_signature(
                build_mlp_graph("MLP_1", 16, DType.f32),
                XEON_8358,
                CompilerOptions(executor=backend),
            )
            partitions[backend] = cache.get_or_compile(
                signature, compile_for(backend)
            )
            # A second lookup with the same signature must hit, not
            # recompile.
            assert cache.get_or_compile(
                signature, compile_for(backend)
            ) is partitions[backend]
        assert compiles == list(EXECUTOR_BACKENDS)
        assert len(set(map(id, partitions.values()))) == len(
            EXECUTOR_BACKENDS
        )

    def test_tuning_keys_distinct_per_executor(self):
        keys = {
            tuning_key(
                256, 256, 256, DType.f32, XEON_8358, executor=backend
            )
            for backend in EXECUTOR_BACKENDS
        }
        assert len(keys) == len(EXECUTOR_BACKENDS)
        # The default is the codegen executor's namespace.
        assert tuning_key(256, 256, 256, DType.f32, XEON_8358) == tuning_key(
            256, 256, 256, DType.f32, XEON_8358, executor="codegen"
        )


def _fill_module(shape=(4, 8)):
    b = TirBuilder("f")
    b.param("x", DType.f32, shape)
    with b.for_("i", shape[0]) as i:
        b.fill(SliceRef("x", (i, 0), (1, shape[1])), 1.0)
    module = TirModule(entry="f")
    module.add(b.finish())
    return module


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


class TestCodegenUnit:
    """Unit behavior of the source emitter and the generated programs."""

    def test_generated_source_is_deterministic(self):
        first = CodegenExecutor(_fill_module())
        second = CodegenExecutor(_fill_module())
        assert first.sources == second.sources
        assert first.filenames == second.filenames

    def test_sources_are_real_python_with_literal_loops(self):
        executor = CodegenExecutor(_fill_module())
        source = executor.source_for("f")
        assert "def _codegen_f(_ctx, t_x):" in source
        assert "for s_i in range(0, 4, 1):" in source
        compile(source, "<check>", "exec")  # must be valid Python

    def test_linecache_registration_and_traceback_lines(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4,))
        b.fill(SliceRef("x", (2,), (4,)), 1.0)  # static OOB: [2, 6)
        module = TirModule(entry="f")
        module.add(b.finish())
        executor = CodegenExecutor(module)  # build must not raise
        filename = executor.filenames["f"]
        assert filename.startswith("<repro-codegen:f:")
        try:
            executor.run({"x": np.zeros(4, dtype=np.float32)})
        except ExecutionError as exc:
            frames = traceback.extract_tb(exc.__traceback__)
        else:  # pragma: no cover - the run above must raise
            pytest.fail("static OOB did not raise at run time")
        generated = [f for f in frames if f.filename == filename]
        assert generated, "no traceback frame in generated code"
        # linecache serves the emitted line, so the frame shows source.
        assert "out of bounds" in generated[-1].line
        assert linecache.getline(filename, generated[-1].lineno).strip() \
            == generated[-1].line

    def test_static_oob_raises_at_run_not_build(self):
        def build():
            b = TirBuilder("f")
            b.param("x", DType.f32, (4,))
            b.fill(SliceRef("x", (2,), (4,)), 1.0)  # [2, 6) over (4,)
            module = TirModule(entry="f")
            module.add(b.finish())
            return module

        CodegenExecutor(build())  # build must not raise
        messages = [
            error_message(runner, build(), {"x": np.zeros(4, np.float32)})
            for runner in (Interpreter, CodegenExecutor)
        ]
        assert messages[0] == messages[1]
        assert "out of bounds" in messages[0]

    def test_entry_validation_matches_other_backends(self):
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

    def test_int8_brgemm_with_float_b_rejected_by_both_backends(self):
        b = TirBuilder("f")
        b.param("a", DType.s8, (1, 4, 8))
        b.param("b", DType.f32, (1, 4, 8))
        b.param("c", DType.s32, (4, 4))
        b.brgemm(full_slice("c", (4, 4)), full_slice("a", (1, 4, 8)),
                 full_slice("b", (1, 4, 8)), batch=1)
        module = TirModule(entry="f")
        module.add(b.finish())
        buffers = {
            "a": np.zeros((1, 4, 8), np.int8),
            "b": np.zeros((1, 4, 8), np.float32),
            "c": np.zeros((4, 4), np.int32),
        }
        messages = [
            error_message(runner, module, dict(buffers))
            for runner in (Interpreter, CodegenExecutor)
        ]
        assert messages[0] == messages[1]
        assert "int8 B operand" in messages[0]

    def test_pooled_temporaries_are_rezeroed(self):
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

    def test_parallel_stats_match_interpreter_exactly(self):
        module = _parallel_module()
        interp = Interpreter(module)
        interp.run({"x": np.zeros((4, 8), dtype=np.float32)})
        x = np.zeros((4, 8), dtype=np.float32)
        stats = CodegenExecutor(module).run({"x": x})
        assert stats.to_dict() == interp.stats.to_dict()
        assert np.all(x == 3.0)

    def test_brgemm_global_is_the_microkernel(self):
        """The emitted ``_brgemm_partial`` is the interpreter's kernel."""
        partition = compile_graph(
            build_mlp_graph("MLP_1", 16, DType.f32),
            options=CompilerOptions(executor="codegen"),
        )
        executor = CodegenExecutor(partition.lowered.module)
        partition.close()
        callers = [
            name for name, source in executor.sources.items()
            if "_brgemm_partial(" in source
        ]
        assert callers
        for name in callers:
            bound = executor._fns[name].__globals__["_brgemm_partial"]
            assert bound is brgemm_partial

    def test_dump_sources_writes_every_function(self, tmp_path):
        executor = CodegenExecutor(_fill_module())
        paths = executor.dump_sources(str(tmp_path))
        assert len(paths) == len(executor.sources)
        for path in paths:
            content = open(path, encoding="utf-8").read()
            assert "generated by repro.runtime.codegen" in content

    def test_dump_env_var_writes_on_build(self, tmp_path, monkeypatch):
        target = tmp_path / "emitted"
        monkeypatch.setenv("REPRO_DUMP_CODEGEN", str(target))
        CodegenExecutor(_fill_module())
        written = list(target.glob("*.py"))
        assert written, "REPRO_DUMP_CODEGEN did not write sources"

    def test_codegen_selectable_via_options(self):
        partition = compile_graph(
            build_mlp_graph("MLP_1", 16, DType.f32),
            options=CompilerOptions(executor="codegen"),
        )
        assert partition.executor == "codegen"
        feed = make_mlp_inputs("MLP_1", 16, DType.f32)
        outputs = partition.execute(dict(feed))
        assert outputs
        partition.close()

    def test_session_executor_override_accepts_codegen(self):
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
