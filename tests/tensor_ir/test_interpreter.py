"""Interpreter tests: the Tensor IR execution substrate."""

import numpy as np
import pytest

from repro.dtypes import DType
from repro.errors import ExecutionError
from repro.runtime import Interpreter
from repro.tensor_ir import (
    SliceRef,
    TirBuilder,
    TirModule,
)
from repro.tensor_ir.stmt import full_slice


def run_func(func, buffers):
    module = TirModule(entry=func.name)
    module.add(func)
    interp = Interpreter(module)
    interp.run(buffers)
    return interp


class TestBasics:
    def test_fill(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4, 4))
        b.fill(full_slice("x", (4, 4)), 7.0)
        x = np.zeros((4, 4), dtype=np.float32)
        run_func(b.finish(), {"x": x})
        assert np.all(x == 7.0)

    def test_loop_with_slices(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4, 8))
        with b.for_("i", 4) as i:
            b.fill(SliceRef("x", (i, 0), (1, 8)), 2.0)
        x = np.zeros((4, 8), dtype=np.float32)
        run_func(b.finish(), {"x": x})
        assert np.all(x == 2.0)

    def test_scalar_assignment_in_loop(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (6,))
        with b.for_("i", 2) as i:
            with b.for_("j", 3) as j:
                k = b.let("k", i * 3 + j)
                b.fill(SliceRef("x", (k,), (1,)), 1.0)
        x = np.zeros(6, dtype=np.float32)
        run_func(b.finish(), {"x": x})
        assert np.all(x == 1.0)

    def test_compute_relu(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (8,))
        b.param("y", DType.f32, (8,))
        b.compute("relu", full_slice("y", (8,)), [full_slice("x", (8,))])
        x = np.linspace(-4, 3, 8).astype(np.float32)
        y = np.zeros(8, dtype=np.float32)
        run_func(b.finish(), {"x": x, "y": y})
        np.testing.assert_array_equal(y, np.maximum(x, 0))

    def test_compute_binary_broadcast(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4, 8))
        b.param("bias", DType.f32, (8,))
        b.param("y", DType.f32, (4, 8))
        b.compute(
            "add",
            full_slice("y", (4, 8)),
            [full_slice("x", (4, 8)), full_slice("bias", (8,))],
        )
        x = np.random.rand(4, 8).astype(np.float32)
        bias = np.random.rand(8).astype(np.float32)
        y = np.zeros((4, 8), dtype=np.float32)
        run_func(b.finish(), {"x": x, "bias": bias, "y": y})
        np.testing.assert_allclose(y, x + bias, rtol=1e-6)

    def test_compute_scalar_source(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4,))
        b.param("y", DType.f32, (4,))
        b.compute(
            "mul", full_slice("y", (4,)), [full_slice("x", (4,)), 2.0]
        )
        x = np.arange(4, dtype=np.float32)
        y = np.zeros(4, dtype=np.float32)
        run_func(b.finish(), {"x": x, "y": y})
        np.testing.assert_array_equal(y, x * 2)

    def test_reduction_with_accumulate_max(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4, 8))
        b.param("m", DType.f32, (4, 1))
        b.fill(full_slice("m", (4, 1)), -1e30)
        with b.for_("j", 2) as j:
            b.compute(
                "reduce_max",
                full_slice("m", (4, 1)),
                [SliceRef("x", (0, j * 4), (4, 4))],
                attrs={"axis": -1, "keepdims": True, "accumulate": "max"},
            )
        x = np.random.rand(4, 8).astype(np.float32)
        m = np.zeros((4, 1), dtype=np.float32)
        run_func(b.finish(), {"x": x, "m": m})
        np.testing.assert_allclose(m, x.max(axis=1, keepdims=True))

    def test_alloc_and_copy(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4, 4))
        b.param("y", DType.f32, (16,))
        tmp = b.alloc("tmp", DType.f32, (4, 4))
        b.copy(full_slice(tmp, (4, 4)), full_slice("x", (4, 4)))
        b.copy(full_slice("y", (16,)), full_slice(tmp, (4, 4)))
        b.free(tmp)
        x = np.random.rand(4, 4).astype(np.float32)
        y = np.zeros(16, dtype=np.float32)
        interp = run_func(b.finish(), {"x": x, "y": y})
        np.testing.assert_array_equal(y, x.ravel())
        assert interp.stats.peak_temp_bytes == 64


class TestPackUnpack:
    def test_pack_matches_layout(self):
        from repro.graph_ir.layout import blocked_2d

        b = TirBuilder("f")
        b.param("x", DType.f32, (8, 8))
        b.param("xb", DType.f32, (2, 2, 4, 4))
        b.pack(
            full_slice("xb", (2, 2, 4, 4)),
            full_slice("x", (8, 8)),
            block_sizes=(4, 4),
        )
        x = np.random.rand(8, 8).astype(np.float32)
        xb = np.zeros((2, 2, 4, 4), dtype=np.float32)
        run_func(b.finish(), {"x": x, "xb": xb})
        expected = blocked_2d(4, 4).to_physical(x)
        np.testing.assert_array_equal(xb, expected)

    def test_pack_swap_inner_matches_b_layout(self):
        from repro.graph_ir.layout import blocked_2d

        b = TirBuilder("f")
        b.param("x", DType.f32, (8, 6))
        b.param("xb", DType.f32, (2, 2, 3, 4))
        b.pack(
            full_slice("xb", (2, 2, 3, 4)),
            full_slice("x", (8, 6)),
            block_sizes=(4, 3),
            swap_inner=True,
        )
        x = np.random.rand(8, 6).astype(np.float32)
        xb = np.zeros((2, 2, 3, 4), dtype=np.float32)
        run_func(b.finish(), {"x": x, "xb": xb})
        expected = blocked_2d(4, 3, swap_inner=True).to_physical(x)
        np.testing.assert_array_equal(xb, expected)

    def test_pack_pads_tail(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (5, 5))
        b.param("xb", DType.f32, (2, 2, 4, 4))
        b.pack(
            full_slice("xb", (2, 2, 4, 4)),
            full_slice("x", (5, 5)),
            block_sizes=(4, 4),
        )
        x = np.ones((5, 5), dtype=np.float32)
        xb = np.zeros((2, 2, 4, 4), dtype=np.float32)
        run_func(b.finish(), {"x": x, "xb": xb})
        assert xb.sum() == 25.0
        assert xb[1, 1, 0, 0] == 1.0  # element (4, 4) lands in block (1, 1)
        assert xb[1, 1, 3, 3] == 0.0  # padding

    def test_unpack_roundtrip(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (5, 7))
        b.param("xb", DType.f32, (2, 2, 4, 4))
        b.param("y", DType.f32, (5, 7))
        b.pack(
            full_slice("xb", (2, 2, 4, 4)),
            full_slice("x", (5, 7)),
            block_sizes=(4, 4),
        )
        b.unpack(
            full_slice("y", (5, 7)),
            full_slice("xb", (2, 2, 4, 4)),
            block_sizes=(4, 4),
        )
        x = np.random.rand(5, 7).astype(np.float32)
        y = np.zeros((5, 7), dtype=np.float32)
        run_func(
            b.finish(),
            {"x": x, "xb": np.zeros((2, 2, 4, 4), np.float32), "y": y},
        )
        np.testing.assert_array_equal(y, x)

    def test_slice_level_pack_in_loop(self):
        """Anchor-4 style: pack one [1, BS, MB, KB] slab per iteration."""
        MB, KB, BS = 4, 4, 2
        b = TirBuilder("f")
        b.param("A", DType.f32, (8, 16))  # M=8, K=16
        b.param("Ab", DType.f32, (2, 4, MB, KB))
        with b.for_("mpsi", 2) as mpsi:
            with b.for_("ksi", 4, step=BS) as ksi:
                b.pack(
                    SliceRef("Ab", (mpsi, ksi, 0, 0), (1, BS, MB, KB)),
                    SliceRef("A", (mpsi * MB, ksi * KB), (MB, BS * KB)),
                    block_sizes=(MB, KB),
                )
        from repro.graph_ir.layout import blocked_2d

        A = np.random.rand(8, 16).astype(np.float32)
        Ab = np.zeros((2, 4, MB, KB), dtype=np.float32)
        run_func(b.finish(), {"A": A, "Ab": Ab})
        np.testing.assert_array_equal(Ab, blocked_2d(MB, KB).to_physical(A))


class TestBrgemm:
    def test_brgemm_in_loop_nest(self):
        """A minimal single-core kernel: C[M,N] = A x B via brgemm blocks."""
        M, N, K = 8, 8, 16
        MB, NB, KB, BS = 4, 4, 4, 2
        KF = BS * KB  # operands hold BS K-blocks folded into one
        b = TirBuilder("kernel")
        b.param("Ab", DType.f32, (M // MB, K // KF, MB, KF))
        b.param("Bb", DType.f32, (K // KF, N // NB, NB, KF))
        b.param("C", DType.f32, (M, N))
        with b.for_("mi", M // MB) as mi:
            with b.for_("ni", N // NB) as ni:
                acc = b.alloc("acc", DType.f32, (MB, NB))
                b.fill(full_slice(acc, (MB, NB)), 0.0)
                with b.for_("ki", K // KF) as ki:
                    b.brgemm(
                        c=full_slice(acc, (MB, NB)),
                        a=SliceRef("Ab", (mi, ki, 0, 0), (1, 1, MB, KF)),
                        b=SliceRef("Bb", (ki, ni, 0, 0), (1, 1, NB, KF)),
                        batch=BS,
                    )
                b.copy(
                    SliceRef("C", (mi * MB, ni * NB), (MB, NB)),
                    full_slice(acc, (MB, NB)),
                )
                b.free(acc)
        from repro.graph_ir.layout import blocked_2d

        A = np.random.rand(M, K).astype(np.float32)
        B = np.random.rand(K, N).astype(np.float32)
        C = np.zeros((M, N), dtype=np.float32)
        buffers = {
            "Ab": blocked_2d(MB, KF).to_physical(A),
            "Bb": blocked_2d(KF, NB, swap_inner=True).to_physical(B),
            "C": C,
        }
        interp = run_func(b.finish(), buffers)
        np.testing.assert_allclose(C, A @ B, rtol=1e-5)
        assert interp.stats.brgemm_calls == (M // MB) * (N // NB) * (K // KB) // BS

    def test_brgemm_b_batch_dim_second(self):
        """Operand slices must squeeze to one folded 2-D block.

        ``Bb[ksi:1, npsi:1, 0:NB, 0:BS*KB]`` squeezes to ``[NB, BS*KB]``
        (exercised above); a slice spanning two K-blocks does not, and is
        rejected instead of being copied into shape.
        """
        b = TirBuilder("f")
        b.param("Ab", DType.f32, (2, 2, 4, 4))
        b.param("Bb", DType.f32, (2, 2, 4, 4))
        b.param("C", DType.f32, (4, 4))
        b.brgemm(
            c=full_slice("C", (4, 4)),
            a=SliceRef("Ab", (0, 0, 0, 0), (2, 2, 4, 4)),  # bad: 2x2 batch
            b=SliceRef("Bb", (0, 0, 0, 0), (1, 2, 4, 4)),
            batch=2,
        )
        with pytest.raises(ExecutionError):
            run_func(
                b.finish(),
                {
                    "Ab": np.zeros((2, 2, 4, 4), np.float32),
                    "Bb": np.zeros((2, 2, 4, 4), np.float32),
                    "C": np.zeros((4, 4), np.float32),
                },
            )

    def test_int8_brgemm(self):
        b = TirBuilder("f")
        b.param("A", DType.u8, (1, 4, 8))
        b.param("B", DType.s8, (1, 4, 8))
        b.param("C", DType.s32, (4, 4))
        b.brgemm(
            c=full_slice("C", (4, 4)),
            a=full_slice("A", (1, 4, 8)),
            b=full_slice("B", (1, 4, 8)),
            batch=1,
            initialize=True,
        )
        A = np.random.randint(0, 255, (1, 4, 8)).astype(np.uint8)
        B = np.random.randint(-128, 127, (1, 4, 8)).astype(np.int8)
        C = np.zeros((4, 4), dtype=np.int32)
        run_func(b.finish(), {"A": A, "B": B, "C": C})
        expected = A[0].astype(np.int32) @ B[0].astype(np.int32).T
        np.testing.assert_array_equal(C, expected)


class TestCallsAndErrors:
    def test_cross_function_call(self):
        module = TirModule(entry="main")
        inner = TirBuilder("double")
        inner.param("io", DType.f32, (4,))
        inner.compute(
            "mul", full_slice("io", (4,)), [full_slice("io", (4,)), 2.0]
        )
        module.add(inner.finish())
        outer = TirBuilder("main")
        outer.param("x", DType.f32, (4,))
        outer.call("double", ["x"])
        outer.call("double", ["x"])
        module.add(outer.finish())
        x = np.ones(4, dtype=np.float32)
        interp = Interpreter(module)
        interp.run({"x": x})
        np.testing.assert_array_equal(x, np.full(4, 4.0))
        assert interp.stats.function_calls == 2

    def test_missing_buffer(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4,))
        with pytest.raises(ExecutionError, match="missing buffer"):
            run_func(b.finish(), {})

    def test_shape_mismatch(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4,))
        with pytest.raises(ExecutionError, match="shape"):
            run_func(b.finish(), {"x": np.zeros(5, dtype=np.float32)})

    def test_out_of_bounds_slice(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4,))
        b.fill(SliceRef("x", (2,), (4,)), 1.0)
        with pytest.raises(ExecutionError, match="out of bounds"):
            run_func(b.finish(), {"x": np.zeros(4, dtype=np.float32)})

    def test_arena_allocation(self):
        from repro.tensor_ir.stmt import Alloc

        b = TirBuilder("f")
        b.param("x", DType.f32, (4,))
        tmp = b.alloc("tmp", DType.f32, (4,))
        b.copy(full_slice(tmp, (4,)), full_slice("x", (4,)))
        b.compute("mul", full_slice(tmp, (4,)), [full_slice(tmp, (4,)), 3.0])
        b.copy(full_slice("x", (4,)), full_slice(tmp, (4,)))
        func = b.finish()
        # Place the temp at arena offset 64.
        for stmt in func.body.body:
            if isinstance(stmt, Alloc):
                stmt.arena_offset = 64
        module = TirModule(entry="f")
        module.add(func)
        interp = Interpreter(module, arena_size=128)
        x = np.ones(4, dtype=np.float32)
        interp.run({"x": x})
        np.testing.assert_array_equal(x, np.full(4, 3.0))

    def test_arena_overflow(self):
        from repro.tensor_ir.stmt import Alloc

        b = TirBuilder("f")
        b.param("x", DType.f32, (4,))
        tmp = b.alloc("tmp", DType.f32, (64,))
        b.fill(full_slice(tmp, (64,)), 0.0)
        func = b.finish()
        for stmt in func.body.body:
            if isinstance(stmt, Alloc):
                stmt.arena_offset = 0
        module = TirModule(entry="f")
        module.add(func)
        interp = Interpreter(module, arena_size=16)
        with pytest.raises(ExecutionError, match="arena overflow"):
            interp.run({"x": np.zeros(4, dtype=np.float32)})


class TestPrinter:
    def test_printer_output(self):
        from repro.tensor_ir import format_function

        b = TirBuilder("demo")
        b.param("x", DType.f32, (4, 4))
        with b.parallel_for("i", 4, merge_tag="mlp0") as i:
            b.fill(SliceRef("x", (i, 0), (1, 4)), 0.0)
        text = format_function(b.finish())
        assert "parallel loop i" in text
        assert "merge:mlp0" in text
        assert "func demo" in text
