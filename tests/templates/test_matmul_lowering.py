"""End-to-end tests of the matmul template generator.

Each test builds a FusedMatmul by hand, lowers it with the template
generator, runs the Tensor IR through the interpreter, and compares the
result with the fused region's op-by-op reference evaluation.
"""

import numpy as np
import pytest

from repro.dtypes import DType
from repro.graph_ir import GraphBuilder, blocked_2d
from repro.graph_ir.fused_op import FusedMatmul, OperandMode
from repro.graph_ir.layout import BlockedLayout
from repro.microkernel.machine import XEON_8358
from repro.runtime import Interpreter
from repro.templates.heuristics import (
    HeuristicConstraints,
    select_matmul_params,
)
from repro.templates.matmul import lower_fused_matmul
from repro.templates.params import MatmulParams, TemplateKind
from repro.tensor_ir import TirModule


def run_fused(fused, buffers_by_id, machine=XEON_8358):
    """Lower, interpret, and return the output array."""
    func = lower_fused_matmul(fused, machine)
    module = TirModule(entry=func.name)
    module.add(func)
    interp = Interpreter(module)
    out = fused.output
    if any(t.id == out.id for t in [fused.a, fused.b]):
        raise AssertionError("output aliases an input")
    # Build the call frame: params follow external_inputs + output order.
    call = {}
    for tensor, param in zip(
        fused.external_inputs() + [fused.output], func.params
    ):
        call[param.name] = buffers_by_id[tensor.id]
    interp.run(call)
    return buffers_by_id[out.id], interp


def alloc_output(fused):
    out = fused.output
    return np.zeros(out.layout.physical_shape(out.shape), out.dtype.to_numpy())


def params_for(fused, dtype, **kw):
    out_shape = fused.matmul.outputs[0].shape
    m, n = out_shape[-2:]
    a = fused.a.shape
    k = a[-2] if fused.matmul.attr("transpose_a") else a[-1]
    batch = 1
    for d in out_shape[:-2]:
        batch *= d
    return select_matmul_params(
        m, n, k, dtype, XEON_8358, batch=batch, **kw
    )


class TestPlainMatmul:
    def test_fp32_exact_sizes(self):
        b = GraphBuilder()
        x = b.input("x", DType.f32, (64, 128))
        w = b.input("w", DType.f32, (128, 256))
        y = b.matmul(x, w)
        b.output(y)
        graph = b.finish()
        mm = graph.ops[0]
        fused = FusedMatmul(
            name="mm",
            matmul=mm,
            params=params_for_fixed(64, 256, 128),
            a_mode=OperandMode.PACK_FULL,
            b_mode=OperandMode.PACK_FULL,
        )
        X = np.random.randn(64, 128).astype(np.float32)
        W = np.random.randn(128, 256).astype(np.float32)
        buffers = {x.id: X, w.id: W, y.id: alloc_output(fused)}
        out, _ = run_fused(fused, buffers)
        np.testing.assert_allclose(out, X @ W, rtol=1e-4, atol=1e-4)

    def test_fp32_padded_sizes(self):
        """M=13, K=479, N=1: every dim needs padding (the MLP_2 shapes)."""
        b = GraphBuilder()
        x = b.input("x", DType.f32, (13, 479))
        w = b.input("w", DType.f32, (479, 1))
        y = b.matmul(x, w)
        b.output(y)
        graph = b.finish()
        fused = FusedMatmul(
            name="mm",
            matmul=graph.ops[0],
            params=params_for(
                FusedMatmul(
                    name="t", matmul=graph.ops[0], params=dummy_params()
                ),
                DType.f32,
            ),
            a_mode=OperandMode.PACK_FULL,
            b_mode=OperandMode.PACK_FULL,
        )
        X = np.random.randn(13, 479).astype(np.float32)
        W = np.random.randn(479, 1).astype(np.float32)
        buffers = {x.id: X, w.id: W, y.id: alloc_output(fused)}
        out, _ = run_fused(fused, buffers)
        np.testing.assert_allclose(out, X @ W, rtol=1e-3, atol=1e-3)

    def test_int8_exact(self):
        b = GraphBuilder()
        x = b.input("x", DType.u8, (32, 64))
        w = b.input("w", DType.s8, (64, 48))
        y = b.matmul(x, w)
        b.output(y)
        graph = b.finish()
        fused = FusedMatmul(
            name="mm",
            matmul=graph.ops[0],
            params=params_for_fixed(32, 48, 64),
            a_mode=OperandMode.PACK_FULL,
            b_mode=OperandMode.PACK_FULL,
        )
        X = np.random.randint(0, 256, (32, 64)).astype(np.uint8)
        W = np.random.randint(-128, 128, (64, 48)).astype(np.int8)
        buffers = {x.id: X, w.id: W, y.id: alloc_output(fused)}
        out, _ = run_fused(fused, buffers)
        np.testing.assert_array_equal(
            out, X.astype(np.int32) @ W.astype(np.int32)
        )

    def test_transpose_b(self):
        b = GraphBuilder()
        x = b.input("x", DType.f32, (32, 64))
        w = b.input("w", DType.f32, (48, 64))
        y = b.matmul(x, w, transpose_b=True)
        b.output(y)
        graph = b.finish()
        fused = FusedMatmul(
            name="mm",
            matmul=graph.ops[0],
            params=params_for_fixed(32, 48, 64),
            a_mode=OperandMode.PACK_FULL,
            b_mode=OperandMode.PACK_FULL,
        )
        X = np.random.randn(32, 64).astype(np.float32)
        W = np.random.randn(48, 64).astype(np.float32)
        buffers = {x.id: X, w.id: W, y.id: alloc_output(fused)}
        out, _ = run_fused(fused, buffers)
        np.testing.assert_allclose(out, X @ W.T, rtol=1e-4, atol=1e-4)

    def test_transpose_a(self):
        b = GraphBuilder()
        x = b.input("x", DType.f32, (64, 32))
        w = b.input("w", DType.f32, (64, 48))
        y = b.matmul(x, w, transpose_a=True)
        b.output(y)
        graph = b.finish()
        fused = FusedMatmul(
            name="mm",
            matmul=graph.ops[0],
            params=params_for_fixed(32, 48, 64),
            a_mode=OperandMode.PACK_FULL,
            b_mode=OperandMode.PACK_FULL,
        )
        X = np.random.randn(64, 32).astype(np.float32)
        W = np.random.randn(64, 48).astype(np.float32)
        buffers = {x.id: X, w.id: W, y.id: alloc_output(fused)}
        out, _ = run_fused(fused, buffers)
        np.testing.assert_allclose(out, X.T @ W, rtol=1e-4, atol=1e-4)


def params_for_fixed(m, n, k, dtype=DType.f32, **kw):
    return select_matmul_params(m, n, k, dtype, XEON_8358, **kw)


def dummy_params():
    return MatmulParams(
        m=16, n=16, k=16, mb=16, nb=16, kb=16, bs=1, mpn=1, npn=1
    )


class TestBlockedOperands:
    def test_blocked_inputs_and_output(self):
        """Layout-propagated path: A, B and C all blocked, no packing."""
        params = MatmulParams(
            m=64, n=64, k=64, mb=16, nb=16, kb=16, bs=2, mpn=2, npn=2
        )
        b = GraphBuilder()
        x = b.input("x", DType.f32, (64, 64))
        w = b.input("w", DType.f32, (64, 64))
        y = b.matmul(x, w)
        b.output(y)
        graph = b.finish()
        y.layout = blocked_2d(16, 16)
        fused = FusedMatmul(
            name="mm",
            matmul=graph.ops[0],
            params=params,
            a_mode=OperandMode.BLOCKED,
            b_mode=OperandMode.BLOCKED,
        )
        X = np.random.randn(64, 64).astype(np.float32)
        W = np.random.randn(64, 64).astype(np.float32)
        # Operands folded in K: blocks of BS*KB = 32 along k.
        buffers = {
            x.id: blocked_2d(16, 32).to_physical(X),
            w.id: blocked_2d(32, 16, swap_inner=True).to_physical(W),
            y.id: alloc_output(fused),
        }
        out, interp = run_fused(fused, buffers)
        np.testing.assert_allclose(
            blocked_2d(16, 16).from_physical(out, (64, 64)),
            X @ W,
            rtol=1e-4,
            atol=1e-4,
        )
        assert interp.stats.pack_stmts == 0  # no packing needed

    def test_pack_slice_mode(self):
        """Fine-grain fused A reorder at pre-op anchor #4."""
        params = MatmulParams(
            m=64, n=64, k=64, mb=16, nb=16, kb=16, bs=2, mpn=2, npn=2
        )
        b = GraphBuilder()
        x = b.input("x", DType.f32, (64, 64))
        w = b.input("w", DType.f32, (64, 64))
        y = b.matmul(x, w)
        b.output(y)
        graph = b.finish()
        fused = FusedMatmul(
            name="mm",
            matmul=graph.ops[0],
            params=params,
            a_mode=OperandMode.PACK_SLICE,
            b_mode=OperandMode.BLOCKED,
        )
        X = np.random.randn(64, 64).astype(np.float32)
        W = np.random.randn(64, 64).astype(np.float32)
        buffers = {
            x.id: X,
            w.id: blocked_2d(32, 16, swap_inner=True).to_physical(W),
            y.id: alloc_output(fused),
        }
        out, interp = run_fused(fused, buffers)
        np.testing.assert_allclose(out, X @ W, rtol=1e-4, atol=1e-4)
        # Slice packs: one per (mpsi, ksi) per core pair = MPSN * KSN/BS.
        assert interp.stats.pack_stmts == 4 * 2 * 2  # mpsn=4 kspb=2 npn=2?
        # (npi loop wraps the msi loop, so packs repeat per npi)


class TestPostOps:
    def _fused_with_post(self, builder, matmul_op, post_ops, params):
        return FusedMatmul(
            name="fused",
            matmul=matmul_op,
            post_ops=post_ops,
            params=params,
            a_mode=OperandMode.PACK_FULL,
            b_mode=OperandMode.PACK_FULL,
        )

    def test_matmul_relu(self):
        b = GraphBuilder()
        x = b.input("x", DType.f32, (64, 64))
        w = b.input("w", DType.f32, (64, 64))
        y = b.matmul(x, w)
        z = b.relu(y)
        b.output(z)
        graph = b.finish()
        fused = self._fused_with_post(
            b, graph.ops[0], [graph.ops[1]], params_for_fixed(64, 64, 64)
        )
        X = np.random.randn(64, 64).astype(np.float32)
        W = np.random.randn(64, 64).astype(np.float32)
        buffers = {x.id: X, w.id: W, z.id: alloc_output(fused)}
        out, _ = run_fused(fused, buffers)
        np.testing.assert_allclose(out, np.maximum(X @ W, 0), rtol=1e-4, atol=1e-4)

    def test_matmul_bias_relu(self):
        b = GraphBuilder()
        x = b.input("x", DType.f32, (64, 96))
        w = b.input("w", DType.f32, (96, 64))
        bias = b.input("bias", DType.f32, (64,))
        y = b.matmul(x, w)
        y = b.add(y, bias)
        z = b.relu(y)
        b.output(z)
        graph = b.finish()
        fused = self._fused_with_post(
            b, graph.ops[0], graph.ops[1:], params_for_fixed(64, 64, 96)
        )
        X = np.random.randn(64, 96).astype(np.float32)
        W = np.random.randn(96, 64).astype(np.float32)
        B = np.random.randn(64).astype(np.float32)
        buffers = {
            x.id: X, w.id: W, bias.id: B, z.id: alloc_output(fused)
        }
        out, _ = run_fused(fused, buffers)
        np.testing.assert_allclose(
            out, np.maximum(X @ W + B, 0), rtol=1e-4, atol=1e-5
        )

    def test_int8_requant_chain(self):
        """The low-precision rewrite's post-op chain: cast, scale, clip."""
        b = GraphBuilder()
        x = b.input("x", DType.u8, (32, 64))
        w = b.input("w", DType.s8, (64, 32))
        acc = b.matmul(x, w)  # s32
        f = b.cast(acc, DType.f32)
        scaled = b.mul(f, b.scalar("s", 0.02))
        q = b.cast(scaled, DType.s8)
        b.output(q)
        graph = b.finish()
        scalar_tensor = graph.inputs[-1]
        fused = self._fused_with_post(
            b,
            graph.ops[0],
            graph.ops[1:],
            params_for_fixed(32, 32, 64, DType.u8),
        )
        X = np.random.randint(0, 256, (32, 64)).astype(np.uint8)
        W = np.random.randint(-128, 128, (64, 32)).astype(np.int8)
        buffers = {
            x.id: X,
            w.id: W,
            scalar_tensor.id: np.full((1,), 0.02, np.float32),
            q.id: alloc_output(fused),
        }
        out, _ = run_fused(fused, buffers)
        expected = fused.evaluate_reference(
            {
                x.id: X,
                w.id: W,
                scalar_tensor.id: np.full((1,), 0.02, np.float32),
            }
        )
        np.testing.assert_array_equal(out, expected)

    def test_softmax_reduction_group(self):
        """Decomposed softmax fused as post-ops (the MHA pattern)."""
        b = GraphBuilder()
        x = b.input("x", DType.f32, (64, 64))
        w = b.input("w", DType.f32, (64, 128))
        y = b.matmul(x, w)
        m = b.reduce_max(y, axis=-1)
        sub = b.sub(y, m)
        e = b.exp(sub)
        s = b.reduce_sum(e, axis=-1)
        out = b.div(e, s)
        b.output(out)
        graph = b.finish()
        params = params_for_fixed(
            64, 128, 64, constraints=HeuristicConstraints(require_npn=1)
        )
        fused = self._fused_with_post(
            b, graph.ops[0], graph.ops[1:], params
        )
        X = np.random.randn(64, 64).astype(np.float32)
        W = np.random.randn(64, 128).astype(np.float32) * 0.1
        buffers = {x.id: X, w.id: W, out.id: alloc_output(fused)}
        result, _ = run_fused(fused, buffers)
        logits = X @ W
        expected = np.exp(logits - logits.max(-1, keepdims=True))
        expected /= expected.sum(-1, keepdims=True)
        np.testing.assert_allclose(result, expected, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(result.sum(-1), np.ones(64), rtol=1e-5)

    def test_eltwise_then_softmax_group_split(self):
        """Group 1 (div by scale, add mask) + group 2 (softmax reductions)."""
        b = GraphBuilder()
        x = b.input("x", DType.f32, (32, 64))
        w = b.input("w", DType.f32, (64, 64))
        mask = b.input("mask", DType.f32, (32, 64))
        y = b.matmul(x, w)
        y = b.div(y, b.scalar("scale", 8.0))
        y = b.add(y, mask)
        m = b.reduce_max(y, axis=-1)
        sub = b.sub(y, m)
        e = b.exp(sub)
        s = b.reduce_sum(e, axis=-1)
        out = b.div(e, s)
        b.output(out)
        graph = b.finish()
        scale_t = next(t for t in graph.inputs if t.name == "scale")
        params = params_for_fixed(
            32, 64, 64, constraints=HeuristicConstraints(require_npn=1)
        )
        fused = self._fused_with_post(b, graph.ops[0], graph.ops[1:], params)
        assert fused.reduction_split_index() == 2
        X = np.random.randn(32, 64).astype(np.float32)
        W = np.random.randn(64, 64).astype(np.float32)
        M = np.random.randn(32, 64).astype(np.float32)
        buffers = {
            x.id: X,
            w.id: W,
            mask.id: M,
            scale_t.id: np.full((1,), 8.0, np.float32),
            out.id: alloc_output(fused),
        }
        result, _ = run_fused(fused, buffers)
        logits = (X @ W) / 8.0 + M
        expected = np.exp(logits - logits.max(-1, keepdims=True))
        expected /= expected.sum(-1, keepdims=True)
        np.testing.assert_allclose(result, expected, rtol=1e-4, atol=1e-6)


class TestBatchedMatmul:
    def test_batched_with_broadcast_b(self):
        b = GraphBuilder()
        x = b.input("x", DType.f32, (4, 2, 32, 64))
        w = b.input("w", DType.f32, (64, 48))
        y = b.matmul(x, w)
        b.output(y)
        graph = b.finish()
        params = params_for_fixed(32, 48, 64, batch=8)
        fused = FusedMatmul(
            name="bmm",
            matmul=graph.ops[0],
            params=params,
            a_mode=OperandMode.PACK_FULL,
            b_mode=OperandMode.PACK_FULL,
        )
        X = np.random.randn(4, 2, 32, 64).astype(np.float32)
        W = np.random.randn(64, 48).astype(np.float32)
        buffers = {x.id: X, w.id: W, y.id: alloc_output(fused)}
        out, _ = run_fused(fused, buffers)
        np.testing.assert_allclose(out, X @ W, rtol=1e-4, atol=1e-4)

    def test_batched_full_rank_b(self):
        b = GraphBuilder()
        x = b.input("x", DType.f32, (3, 32, 64))
        w = b.input("w", DType.f32, (3, 64, 32))
        y = b.matmul(x, w)
        b.output(y)
        graph = b.finish()
        params = params_for_fixed(32, 32, 64, batch=3)
        fused = FusedMatmul(
            name="bmm",
            matmul=graph.ops[0],
            params=params,
            a_mode=OperandMode.PACK_FULL,
            b_mode=OperandMode.PACK_FULL,
        )
        X = np.random.randn(3, 32, 64).astype(np.float32)
        W = np.random.randn(3, 64, 32).astype(np.float32)
        buffers = {x.id: X, w.id: W, y.id: alloc_output(fused)}
        out, _ = run_fused(fused, buffers)
        np.testing.assert_allclose(out, X @ W, rtol=1e-4, atol=1e-4)

    def test_batched_matmul_with_mask_and_softmax(self):
        """The full MHA attention score pattern, batched."""
        b = GraphBuilder()
        q = b.input("q", DType.f32, (2, 3, 16, 32))
        k = b.input("k", DType.f32, (2, 3, 16, 32))
        mask = b.input("mask", DType.f32, (2, 1, 1, 16))
        y = b.matmul(q, k, transpose_b=True)
        y = b.div(y, b.scalar("scale", np.sqrt(32.0)))
        y = b.add(y, mask)
        m = b.reduce_max(y, axis=-1)
        e = b.exp(b.sub(y, m))
        s = b.reduce_sum(e, axis=-1)
        out = b.div(e, s)
        b.output(out)
        graph = b.finish()
        scale_t = next(t for t in graph.inputs if t.name == "scale")
        params = params_for_fixed(
            16, 16, 32, batch=6,
            constraints=HeuristicConstraints(require_npn=1),
        )
        fused = FusedMatmul(
            name="attn",
            matmul=graph.ops[0],
            post_ops=graph.ops[1:],
            params=params,
            a_mode=OperandMode.PACK_FULL,
            b_mode=OperandMode.PACK_FULL,
        )
        Q = np.random.randn(2, 3, 16, 32).astype(np.float32)
        K = np.random.randn(2, 3, 16, 32).astype(np.float32)
        M = np.random.randn(2, 1, 1, 16).astype(np.float32)
        buffers = {
            q.id: Q,
            k.id: K,
            mask.id: M,
            scale_t.id: np.full((1,), np.sqrt(32.0), np.float32),
            out.id: alloc_output(fused),
        }
        result, _ = run_fused(fused, buffers)
        logits = Q @ K.transpose(0, 1, 3, 2) / np.sqrt(32.0) + M
        expected = np.exp(logits - logits.max(-1, keepdims=True))
        expected /= expected.sum(-1, keepdims=True)
        np.testing.assert_allclose(result, expected, rtol=1e-4, atol=1e-6)


class TestKSliced:
    def test_k_sliced_matches_reference(self):
        params = MatmulParams(
            m=32,
            n=32,
            k=256,
            mb=16,
            nb=16,
            kb=16,
            bs=2,
            mpn=2,
            npn=2,
            kpn=4,
            kind=TemplateKind.K_SLICED,
        )
        b = GraphBuilder()
        x = b.input("x", DType.f32, (32, 256))
        w = b.input("w", DType.f32, (256, 32))
        y = b.matmul(x, w)
        z = b.relu(y)
        b.output(z)
        graph = b.finish()
        fused = FusedMatmul(
            name="ks",
            matmul=graph.ops[0],
            post_ops=[graph.ops[1]],
            params=params,
            a_mode=OperandMode.PACK_FULL,
            b_mode=OperandMode.PACK_FULL,
        )
        X = np.random.randn(32, 256).astype(np.float32)
        W = np.random.randn(256, 32).astype(np.float32)
        buffers = {x.id: X, w.id: W, z.id: alloc_output(fused)}
        out, interp = run_fused(fused, buffers)
        np.testing.assert_allclose(out, np.maximum(X @ W, 0), rtol=1e-4, atol=1e-4)
        assert interp.stats.barriers == 1
