"""Unit tests for Tensor IR statement/slice primitives."""

import pytest

from repro.dtypes import DType
from repro.errors import TensorIRError
from repro.runtime.interpreter import ExecutionStats
from repro.tensor_ir.expr import Const, Var
from repro.tensor_ir.stmt import (
    Alloc,
    BrgemmCall,
    Compute,
    For,
    Seq,
    SliceRef,
    full_slice,
)


class TestSliceRef:
    def test_coerces_int_offsets(self):
        ref = SliceRef("t", (0, 2), (4, 4))
        assert ref.offsets == (Const(0), Const(2))

    def test_num_elements(self):
        assert SliceRef("t", (0, 0), (4, 8)).num_elements == 32

    def test_repr(self):
        ref = SliceRef("t", (Var("i"), 0), (1, 8))
        assert repr(ref) == "t[i:1, 0:8]"

    def test_full_slice(self):
        ref = full_slice("t", (2, 3))
        assert ref.offsets == (Const(0), Const(0))
        assert ref.sizes == (2, 3)

    def test_frozen(self):
        ref = SliceRef("t", (0,), (4,))
        with pytest.raises(Exception):
            ref.tensor = "other"


class TestStatements:
    def test_for_coerces_bounds(self):
        loop = For(var="i", begin=0, end=8, step=2, body=Seq())
        assert loop.begin == Const(0)
        assert loop.end == Const(8)
        assert loop.step == Const(2)

    def test_alloc_shape_normalized(self):
        alloc = Alloc(tensor="t", dtype=DType.f32, shape=[4, 8])
        assert alloc.shape == (4, 8)
        assert alloc.arena_offset is None
        assert not alloc.thread_local

    def test_compute_defaults(self):
        c = Compute(op="relu", dst=full_slice("t", (4,)), srcs=[])
        assert c.attrs == {}

    def test_brgemm_defaults(self):
        call = BrgemmCall(
            c=full_slice("c", (4, 4)),
            a=full_slice("a", (1, 4, 4)),
            b=full_slice("b", (1, 4, 4)),
            batch=1,
        )
        assert not call.initialize


class TestExecutionStats:
    def test_peak_tracking(self):
        stats = ExecutionStats()
        stats.note_alloc(100)
        stats.note_alloc(50)
        stats.note_free(100)
        stats.note_alloc(30)
        assert stats.peak_temp_bytes == 150

    def test_free_never_negative(self):
        stats = ExecutionStats()
        stats.note_free(1000)
        stats.note_alloc(10)
        assert stats.peak_temp_bytes == 10
