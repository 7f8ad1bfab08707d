"""Structural checks of the generated Tensor IR (paper Figures 4 and 6).

Compiles matmul + post-ops and inspects the generated function: the loop
nest shape, the brgemm slice shapes, anchor placement of the fused
post-ops and the effect of the tensor-size optimization on the full-size
temporaries the lowering introduces.
"""

import numpy as np
import pytest

from repro import CompilerOptions, DType, GraphBuilder, compile_graph
from repro.tensor_ir import format_function
from repro.tensor_ir.stmt import Alloc, BrgemmCall, Compute, For, Pack
from repro.tensor_ir.visitor import walk


def compile_matmul_relu(m=64, k=64, n=64, options=None):
    b = GraphBuilder("f")
    x = b.input("x", DType.f32, (m, k))
    w = b.constant("w", dtype=DType.f32, shape=(k, n))
    b.output(b.relu(b.matmul(x, w)))
    return compile_graph(b.finish(), options=options)


def fused_function(partition):
    module = partition.lowered.module
    for name, func in module.functions.items():
        if name != "main" and "fused" in name or "merged" in name:
            return func
    raise AssertionError("no fused function found")


class TestLoopNestStructure:
    def test_parallel_loops_then_serial(self):
        """Figure 2's shape: parallel mpi/npi wrap serial msi/ksi/nsi."""
        func = fused_function(compile_matmul_relu())
        fors = [s for s in walk(func.body) if isinstance(s, For)]
        names = [f.var for f in fors]
        assert any(v.startswith("mpi") for v in names)
        assert any(v.startswith("npi") for v in names)
        assert any(v.startswith("msi") for v in names)
        assert any(v.startswith("ksi") for v in names)
        assert any(v.startswith("nsi") for v in names)
        parallel = {f.var for f in fors if f.parallel}
        serial = {f.var for f in fors if not f.parallel}
        assert any(v.startswith("mpi") for v in parallel)
        assert any(v.startswith("npi") for v in parallel)
        assert any(v.startswith("msi") for v in serial)

    def test_brgemm_slice_shapes(self):
        """The microkernel consumes BS blocks folded in K:
        [1, 1, MB, BS*KB] x [1, 1, NB, BS*KB]."""
        partition = compile_matmul_relu()
        func = fused_function(partition)
        params = func.attrs.get("params") or list(
            func.attrs.get("merge_members", [{}])
        )[0].get("params")
        calls = [s for s in walk(func.body) if isinstance(s, BrgemmCall)]
        assert calls, "no brgemm call generated"
        for call in calls:
            assert call.batch == params.bs
            assert call.a.sizes == (1, 1, params.mb, params.bs * params.kb)
            assert call.b.sizes == (1, 1, params.nb, params.bs * params.kb)
            assert call.c.sizes[-2:] == (params.mb, params.nb)

    def test_post_op_after_k_loop(self):
        """Post-ops run only after the ksi reduction completes (the paper:
        'post-op fusion must be done after k-dimension reduction')."""
        func = fused_function(compile_matmul_relu())

        def k_loop_contains_compute(stmt):
            inside = False
            for node in walk(stmt):
                if isinstance(node, For) and node.var.startswith("ksi"):
                    for inner in walk(node.body):
                        if isinstance(inner, Compute) and inner.op == "relu":
                            return True
            return False

        assert not k_loop_contains_compute(func.body)
        assert any(
            isinstance(s, Compute) and s.op == "relu"
            for s in walk(func.body)
        )


class TestTensorSizeOptimization:
    def test_slice_packed_a_is_shrunk(self):
        """Figure 6's A' reduces to one slab: BS K-blocks folded into
        [1, 1, MB, BS*KB]."""
        partition = compile_matmul_relu(m=64, k=128, n=64)
        func = fused_function(partition)
        a_allocs = [
            s
            for s in walk(func.body)
            if isinstance(s, Alloc) and s.tensor.startswith("A_blk")
        ]
        if not a_allocs:
            pytest.skip("A operand consumed blocked; no packing temp")
        params = func.attrs.get("params") or list(
            func.attrs["merge_members"]
        )[0]["params"]
        alloc = a_allocs[0]
        assert alloc.shape == (1, 1, params.mb, params.bs * params.kb), (
            f"A' not shrunk: {alloc.shape}"
        )

    def test_post_op_temp_is_shrunk_to_block(self):
        """C''-style post-op temporaries shrink to one block."""
        b = GraphBuilder("f")
        x = b.input("x", DType.f32, (64, 64))
        w = b.constant("w", dtype=DType.f32, shape=(64, 64))
        bias = b.constant("bias", dtype=DType.f32, shape=(64,))
        y = b.matmul(x, w)
        y = b.add(y, bias)
        b.output(b.relu(y))
        partition = compile_graph(b.finish())
        func = fused_function(partition)
        pv_allocs = [
            s
            for s in walk(func.body)
            if isinstance(s, Alloc) and s.tensor.startswith("pv_")
        ]
        assert pv_allocs
        for alloc in pv_allocs:
            # Shrunk from [M/MB, N/NB, MB, NB] to [1, 1, MB, NB].
            assert alloc.shape[0] == 1 and alloc.shape[1] == 1, alloc.shape

    def test_without_shrink_temps_are_full_size(self):
        partition = compile_matmul_relu(
            m=64,
            k=128,
            n=64,
            options=CompilerOptions(enable_tensor_shrink=False),
        )
        func = fused_function(partition)
        a_allocs = [
            s
            for s in walk(func.body)
            if isinstance(s, Alloc) and s.tensor.startswith("A_blk")
        ]
        if not a_allocs:
            pytest.skip("A operand consumed blocked; no packing temp")
        assert a_allocs[0].shape[0] > 1  # still [M/MB, K/KB, MB, KB]


class TestAnchorPlacement:
    def test_pack_slice_sits_in_k_loop(self):
        """Pre-op anchor #4: the fused A reorder lives in the ksi loop."""
        partition = compile_matmul_relu(m=64, k=128, n=64)
        func = fused_function(partition)
        found = False
        for node in walk(func.body):
            if isinstance(node, For) and node.var.startswith("ksi"):
                for inner in walk(node.body):
                    if isinstance(inner, Pack):
                        found = True
        anchors = func.attrs.get("anchors") or list(
            func.attrs.get("merge_members", [{}])
        )[0].get("anchors", {})
        if anchors.get("pre_a") and "4" in anchors["pre_a"].value:
            assert found, "anchor-4 pack not inside the ksi loop"

    def test_printer_shows_fig6_shape(self):
        func = fused_function(compile_matmul_relu())
        text = format_function(func)
        assert "batch_reduce_gemm" in text
        assert "parallel loop" in text
        assert "relu(" in text
