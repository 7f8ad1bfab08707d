"""Tests for the batch-reduce GEMM microkernel and the machine model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dtypes import DType
from repro.errors import ExecutionError
from repro.microkernel import (
    XEON_8358,
    CacheLevel,
    MachineModel,
    batch_reduce_gemm,
    brgemm_flops,
)
from repro.microkernel.brgemm import exact_chunk

#: (A dtype, B dtype) of the int8 GEMMs: VNNI's u8 x s8 and the s8 x s8
#: the MHA batch matmuls use.
INT8_PAIRS = {"u8s8": (np.uint8, np.int8), "s8s8": (np.int8, np.int8)}


def einsum_oracle(a, b, transposed):
    """The definition of the kernel: int8 in int64, float in float32."""
    if a.dtype.kind != "f":
        a, b = a.astype(np.int64), b.astype(np.int64)
    return np.einsum("bmk,bnk->mn" if transposed else "bmk,bkn->mn", a, b)


def blocked(flat, bs):
    """``[rows, K]`` -> a ``[BS, rows, K/BS]`` batch of K-blocks."""
    rows, k = flat.shape
    return np.ascontiguousarray(
        flat.reshape(rows, bs, k // bs).transpose(1, 0, 2)
    )


class TestBrgemm:
    def test_accumulates(self):
        a = np.random.rand(2, 4, 8).astype(np.float32)
        b = np.random.rand(2, 6, 8).astype(np.float32)
        c = np.ones((4, 6), dtype=np.float32)
        batch_reduce_gemm(c, a, b)
        expected = 1.0 + sum(a[i] @ b[i].T for i in range(2))
        np.testing.assert_allclose(c, expected, rtol=1e-5)

    def test_initialize_overwrites(self):
        a = np.random.rand(1, 4, 8).astype(np.float32)
        b = np.random.rand(1, 6, 8).astype(np.float32)
        c = np.full((4, 6), 100.0, dtype=np.float32)
        batch_reduce_gemm(c, a, b, initialize=True)
        np.testing.assert_allclose(c, a[0] @ b[0].T, rtol=1e-5)

    def test_plain_b_layout(self):
        a = np.random.rand(2, 4, 8).astype(np.float32)
        b = np.random.rand(2, 8, 6).astype(np.float32)
        c = np.zeros((4, 6), dtype=np.float32)
        batch_reduce_gemm(c, a, b, b_transposed=False)
        expected = sum(a[i] @ b[i] for i in range(2))
        np.testing.assert_allclose(c, expected, rtol=1e-5)

    def test_int8_semantics(self):
        a = np.random.randint(0, 256, (3, 4, 8)).astype(np.uint8)
        b = np.random.randint(-128, 128, (3, 6, 8)).astype(np.int8)
        c = np.zeros((4, 6), dtype=np.int32)
        batch_reduce_gemm(c, a, b)
        expected = sum(
            a[i].astype(np.int32) @ b[i].astype(np.int32).T for i in range(3)
        )
        np.testing.assert_array_equal(c, expected)

    def test_shape_errors(self):
        with pytest.raises(ExecutionError, match="3-D"):
            batch_reduce_gemm(
                np.zeros((4, 4), np.float32),
                np.zeros((4, 4), np.float32),
                np.zeros((1, 4, 4), np.float32),
            )
        with pytest.raises(ExecutionError, match="batch mismatch"):
            batch_reduce_gemm(
                np.zeros((4, 4), np.float32),
                np.zeros((2, 4, 4), np.float32),
                np.zeros((3, 4, 4), np.float32),
            )
        with pytest.raises(ExecutionError, match="K mismatch"):
            batch_reduce_gemm(
                np.zeros((4, 4), np.float32),
                np.zeros((1, 4, 8), np.float32),
                np.zeros((1, 4, 4), np.float32),
            )
        with pytest.raises(ExecutionError, match="accumulator shape"):
            batch_reduce_gemm(
                np.zeros((5, 4), np.float32),
                np.zeros((1, 4, 8), np.float32),
                np.zeros((1, 4, 8), np.float32),
            )

    def test_dtype_errors(self):
        with pytest.raises(ExecutionError, match="int8 B operand"):
            batch_reduce_gemm(
                np.zeros((4, 4), np.int32),
                np.zeros((1, 4, 8), np.int8),
                np.zeros((1, 4, 8), np.float32),
            )
        with pytest.raises(ExecutionError, match="int32 accumulator"):
            batch_reduce_gemm(
                np.zeros((4, 4), np.float32),
                np.zeros((1, 4, 8), np.int8),
                np.zeros((1, 4, 8), np.int8),
            )
        with pytest.raises(ExecutionError, match="float32 accumulator"):
            batch_reduce_gemm(
                np.zeros((4, 4), np.int32),
                np.zeros((1, 4, 8), np.float32),
                np.zeros((1, 4, 8), np.float32),
            )

    def test_flops(self):
        assert brgemm_flops(16, 32, 64, 4) == 2 * 16 * 32 * 64 * 4

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),  # batch
        st.integers(min_value=1, max_value=8),  # mb
        st.integers(min_value=1, max_value=8),  # nb
        st.integers(min_value=1, max_value=8),  # kb
        st.booleans(),
        st.booleans(),
        st.sampled_from(["f32", *INT8_PAIRS]),
    )
    def test_matches_einsum_oracle(
        self, bs, mb, nb, kb, transposed, init, dtypes
    ):
        """brgemm == the einsum definition for any block geometry.

        Float within rounding; int8 exactly (int32 accumulator).
        """
        rng = np.random.RandomState(bs * 1000 + mb * 100 + nb * 10 + kb)
        b_shape = (bs, nb, kb) if transposed else (bs, kb, nb)
        if dtypes == "f32":
            a = rng.rand(bs, mb, kb).astype(np.float32)
            b = rng.rand(*b_shape).astype(np.float32)
            c = rng.rand(mb, nb).astype(np.float32)
        else:
            a_dt, b_dt = INT8_PAIRS[dtypes]
            a = rng.randint(np.iinfo(a_dt).min, np.iinfo(a_dt).max + 1,
                            (bs, mb, kb)).astype(a_dt)
            b = rng.randint(np.iinfo(b_dt).min, np.iinfo(b_dt).max + 1,
                            b_shape).astype(b_dt)
            c = rng.randint(-2**20, 2**20, (mb, nb)).astype(np.int32)
        expected = einsum_oracle(a, b, transposed)
        if not init:
            expected = expected + c
        batch_reduce_gemm(c, a, b, b_transposed=transposed, initialize=init)
        if dtypes == "f32":
            np.testing.assert_allclose(c, expected, rtol=1e-4, atol=1e-5)
        else:
            np.testing.assert_array_equal(c, expected)


class TestExactInt8:
    """int8 runs a float32 GEMM in K-chunks; every chunk must be exact."""

    def test_chunk_bounds(self):
        assert exact_chunk(np.uint8, np.int8) == 514
        assert exact_chunk(np.int8, np.int8) == 1024
        assert exact_chunk(np.uint8, np.uint8) == 258

    # (pair, K, BS): worst-case magnitudes at the chunk bound and one
    # past it, with K spread over several batches so chunk edges fall
    # inside blocks (515 = 5 x 103) and between them (1028 = 4 x 257,
    # 2048 = 2 x 1024).
    @pytest.mark.parametrize(
        "pair,k,bs",
        [
            ("u8s8", 514, 1), ("u8s8", 514, 2), ("u8s8", 514, 257),
            ("u8s8", 515, 1), ("u8s8", 515, 5), ("u8s8", 515, 103),
            ("u8s8", 1028, 4),
            ("s8s8", 1024, 1), ("s8s8", 1024, 4), ("s8s8", 1024, 64),
            ("s8s8", 1025, 1), ("s8s8", 1025, 5), ("s8s8", 1025, 41),
            ("s8s8", 2048, 2),
        ],
    )
    @pytest.mark.parametrize("transposed", [True, False])
    def test_worst_case_operands_exact(self, pair, k, bs, transposed):
        a_dt, b_dt = INT8_PAIRS[pair]
        a_val = 255 if a_dt == np.uint8 else -128
        a = blocked(np.full((3, k), a_val, a_dt), bs)
        b = blocked(np.full((5, k), -128, b_dt), bs)
        if not transposed:
            b = np.ascontiguousarray(b.transpose(0, 2, 1))
        c = np.zeros((3, 5), np.int32)
        batch_reduce_gemm(c, a, b, b_transposed=transposed, initialize=True)
        np.testing.assert_array_equal(c, einsum_oracle(a, b, transposed))

    # (K as a function of the chunk, BS): one past the bound catches a
    # chunk one too long, three chunks a missing chunk loop.
    @pytest.mark.parametrize(
        "k_of,bs",
        [((1, 1), 1), ((1, 1), 5), ((3, 0), 1), ((3, 0), 3)],
    )
    @pytest.mark.parametrize("pair", sorted(INT8_PAIRS))
    def test_sums_past_2_pow_24_exact(self, pair, k_of, bs):
        """A sum of odd magnitude past 2**24: a float32 GEMM over more than
        one chunk rounds it, the chunked kernel does not."""
        a_dt, b_dt = INT8_PAIRS[pair]
        times, extra = k_of
        k = times * exact_chunk(a_dt, b_dt) + extra
        a = np.full((2, k), 255 if a_dt == np.uint8 else -128, a_dt)
        b = np.full((4, k), -128, b_dt)
        a[:, -1] = 255 if a_dt == np.uint8 else -127  # odd x odd
        b[:, -1] = -127
        a, b = blocked(a, bs), blocked(b, bs)
        expected = einsum_oracle(a, b, True)
        assert np.float32(expected[0, 0]) != expected[0, 0]
        c = np.zeros((2, 4), np.int32)
        batch_reduce_gemm(c, a, b, initialize=True)
        np.testing.assert_array_equal(c, expected)


class TestMachineModel:
    def test_xeon_parameters(self):
        assert XEON_8358.num_cores == 32
        assert XEON_8358.vector_lanes(DType.f32) == 16
        assert XEON_8358.vector_lanes(DType.s8) == 64
        assert XEON_8358.flops_per_cycle[DType.s8] == (
            4 * XEON_8358.flops_per_cycle[DType.f32]
        )

    def test_cache_lookup(self):
        assert XEON_8358.cache("L1").size_bytes == 48 * 1024
        assert XEON_8358.l1.name == "L1"
        assert XEON_8358.dram.name == "DRAM"
        with pytest.raises(KeyError):
            XEON_8358.cache("L9")

    def test_peak_flops(self):
        assert XEON_8358.peak_flops(DType.f32) == pytest.approx(
            64 * 32 * 2.6e9
        )

    def test_cycles_to_seconds(self):
        assert XEON_8358.cycles_to_seconds(2.6e9) == pytest.approx(1.0)

    def test_custom_machine(self):
        tiny = MachineModel(
            name="tiny",
            num_cores=2,
            frequency_hz=1e9,
            flops_per_cycle={DType.f32: 8.0, DType.s8: 32.0,
                             DType.u8: 32.0, DType.bf16: 16.0},
            vector_bytes=32,
            num_vector_registers=16,
            caches=(
                CacheLevel("L1", 32 * 1024, 64.0),
                CacheLevel("L2", 512 * 1024, 32.0),
                CacheLevel("DRAM", 1 << 50, 4.0, shared=True),
            ),
            barrier_cycles=1000.0,
            api_call_cycles=500.0,
        )
        assert tiny.peak_flops(DType.f32) == pytest.approx(16e9)
        assert tiny.caches[-1].shared
