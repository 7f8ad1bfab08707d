"""The kernel reads what the packs wrote: no operand copy per brgemm call.

Every blocked operand is stored folded in K — an A block is
``[MB, BS*KB]``, a B block ``[NB, BS*KB]`` — by the packs, the
constant-weight reorder and chained producers.  So both backends hand
``brgemm_partial`` two C-contiguous 2-D views, and an f32 weight reaches
it as a view of the partition's constant cache.
"""

from collections import Counter

import numpy as np
import pytest

from repro import CompilerOptions, DType, compile_graph
from repro.graph_ir.symbolic import dyn
from repro.microkernel.brgemm import brgemm_partial
from repro.observability import Tracer, get_tracer
from repro.observability.tracer import set_tracer
from repro.runtime import codegen, interpreter
from repro.workloads import (
    build_mha_graph,
    build_mlp_graph,
    make_mha_inputs,
    make_mlp_inputs,
)

BACKENDS = ("codegen", "interpret")


def compile_for(graph, executor):
    return compile_graph(
        graph, options=CompilerOptions(executor=executor), num_threads=1
    )


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every ``(a2, b2)`` either backend passes the microkernel."""
    calls = []

    def spy(a2, b2):
        calls.append((a2, b2))
        return brgemm_partial(a2, b2)

    monkeypatch.setattr(codegen, "brgemm_partial", spy)
    monkeypatch.setattr(interpreter, "brgemm_partial", spy)
    return calls


def assert_folded_views(calls, weights=None):
    assert calls
    for a2, b2 in calls:
        assert a2.ndim == 2 and b2.ndim == 2
        assert a2.flags.c_contiguous and b2.flags.c_contiguous
        assert a2.shape[1] == b2.shape[1]
        if weights is not None:
            assert any(np.shares_memory(b2, w) for w in weights)


def f32_weights(partition):
    return [
        array
        for array in partition._cache.values()
        if array.dtype == np.float32
    ]


@pytest.mark.parametrize("executor", BACKENDS)
class TestOperandsAreViews:
    def test_mlp_f32_b512(self, executor, kernel_calls):
        partition = compile_for(build_mlp_graph("MLP_1", 512), executor)
        partition.execute(make_mlp_inputs("MLP_1", 512))
        assert len(kernel_calls) == 1792
        assert_folded_views(kernel_calls, f32_weights(partition))

    def test_mha_s8_b2(self, executor, kernel_calls):
        graph = build_mha_graph("MHA_1", 2, DType.s8)
        partition = compile_for(graph, executor)
        partition.execute(make_mha_inputs("MHA_1", 2, DType.s8))
        assert_folded_views(kernel_calls)
        assert {a2.dtype for a2, _ in kernel_calls} <= {
            np.dtype(np.int8),
            np.dtype(np.uint8),
        }

    def test_dynamic_batch_mlp(self, executor, kernel_calls):
        graph = build_mlp_graph("MLP_1", dyn("B", 32))
        partition = compile_for(graph, executor)
        feed = make_mlp_inputs("MLP_1", 32)
        for batch in (1, 17, 32):
            kernel_calls.clear()
            partition.execute({**feed, "x": feed["x"][:batch]})
            assert_folded_views(kernel_calls, f32_weights(partition))


class TestCounts:
    def test_mlp_b512_same_gemms_no_more_packs(self):
        """Folding changes no GEMM: the call count is unchanged, and the
        packs are at most what they were before it."""
        partition = compile_for(build_mlp_graph("MLP_1", 512), "codegen")
        feed = make_mlp_inputs("MLP_1", 512)
        partition.execute(feed)
        stats = partition.execute_with_stats(feed)[1]
        assert stats.brgemm_calls == 1792
        assert stats.pack_stmts <= 257


@pytest.mark.parametrize("executor", BACKENDS)
def test_traced_blocks_name_the_unfolded_call(executor):
    """A microkernel span still reports ``MBxNBxKBxBS`` of the call (KB,
    not the folded BS*KB), so the modeled-vs-measured reconciliation
    reads the same rows as before the operands were folded."""
    old = get_tracer()
    tracer = set_tracer(Tracer(enabled=True))
    try:
        partition = compile_for(build_mlp_graph("MLP_1", 64), executor)
        partition.execute(make_mlp_inputs("MLP_1", 64))
    finally:
        set_tracer(old)
    spans = [r for r in tracer.records() if r.category == "microkernel"]
    assert Counter(r.attrs["blocks"] for r in spans) == {
        "16x32x16x1": 64,
        "16x16x32x8": 128,
        "16x16x16x16": 32,
    }
    assert all(r.attrs["modeled_cycles"] > 0 for r in spans)
