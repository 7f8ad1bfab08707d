"""Schema-level tests for the op registry (inference + reference kernels)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dtypes import DType
from repro.errors import (
    DataTypeError,
    ShapeInferenceError,
    UnsupportedOpError,
)
from repro.graph_ir.op_registry import (
    OP_REGISTRY,
    broadcast_shapes,
    get_schema,
    matmul_output_spec,
)


class TestRegistry:
    def test_unknown_kind(self):
        with pytest.raises(UnsupportedOpError):
            get_schema("frobnicate")

    def test_expected_kinds_present(self):
        for kind in (
            "matmul", "relu", "add", "div", "reduce_sum", "reduce_max",
            "reorder", "transpose", "reshape", "broadcast", "cast",
            "softmax", "gelu", "silu", "quantize", "dequantize",
            "layernorm", "batchnorm_inference", "conv2d", "im2col",
        ):
            assert kind in OP_REGISTRY, kind

    def test_category_flags_consistent(self):
        for schema in OP_REGISTRY.values():
            assert not (schema.is_elementwise and schema.is_reduction)


class TestBroadcast:
    def test_valid(self):
        assert broadcast_shapes((4, 1), (1, 8)) == (4, 8)
        assert broadcast_shapes((8,), (2, 8)) == (2, 8)

    def test_invalid(self):
        with pytest.raises(ShapeInferenceError):
            broadcast_shapes((3,), (4,))


class TestMatmulSpec:
    def test_batch_broadcast(self):
        dtype, shape = matmul_output_spec(
            (DType.f32, (5, 1, 4, 8)), (DType.f32, (3, 8, 2))
        )
        assert shape == (5, 3, 4, 2)
        assert dtype == DType.f32

    def test_transposes(self):
        _, shape = matmul_output_spec(
            (DType.f32, (8, 4)),
            (DType.f32, (2, 8)),
            transpose_a=True,
            transpose_b=True,
        )
        assert shape == (4, 2)

    def test_one_d_rejected(self):
        with pytest.raises(ShapeInferenceError):
            matmul_output_spec((DType.f32, (8,)), (DType.f32, (8, 2)))

    def test_int8_times_int8_is_s32(self):
        dtype, _ = matmul_output_spec((DType.s8, (4, 8)), (DType.s8, (8, 2)))
        assert dtype == DType.s32

    def test_bf16_accumulates_f32(self):
        dtype, _ = matmul_output_spec(
            (DType.bf16, (4, 8)), (DType.bf16, (8, 2))
        )
        assert dtype == DType.f32


class TestInt8MatmulOracle:
    """The int8 matmul reference: an exact integer GEMM of its own."""

    @staticmethod
    def oracle(a, b, **attrs):
        return get_schema("matmul").reference([a, b], attrs)[0]

    @staticmethod
    def einsum(a, b):
        return np.einsum(
            "...mk,...kn->...mn", a.astype(np.int64), b.astype(np.int64)
        )

    @pytest.mark.parametrize(
        "a_dtype,a_val,k",
        [
            # Largest |A x B| products; 65536 x 255 x 128 is the largest
            # such sum int32 holds.
            (np.uint8, 255, 65536),
            (np.int8, -128, 65536),
            (np.uint8, 255, 4097),
        ],
    )
    def test_worst_case_operands_exact(self, a_dtype, a_val, k):
        a = np.full((3, k), a_val, a_dtype)
        b = np.full((k, 2), -128, np.int8)
        a[:, -1] = 255 if a_dtype == np.uint8 else -127  # odd x odd:
        b[-1, :] = -127  # an odd sum past 2**24
        got = self.oracle(a, b)
        want = self.einsum(a, b)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want)
        # float32 could not have held it: the oracle is not a float32 GEMM.
        assert np.float32(want[0, 0]) != want[0, 0]

    def test_batched_transposed_operands(self):
        rng = np.random.RandomState(0)
        a = rng.randint(-128, 128, (2, 3, 5, 700)).astype(np.int8)
        b = rng.randint(-128, 128, (2, 3, 4, 700)).astype(np.int8)
        got = self.oracle(a, b, transpose_b=True)
        np.testing.assert_array_equal(got, self.einsum(a, b.swapaxes(-1, -2)))

    def test_independent_of_the_microkernel(self, monkeypatch):
        """The oracle checks the kernel; it must not run it."""
        from repro.microkernel import brgemm

        def fail(*args):
            raise AssertionError("oracle called the microkernel")

        monkeypatch.setattr(brgemm, "brgemm_partial", fail)
        a = np.full((2, 600), 255, np.uint8)
        b = np.full((600, 3), -128, np.int8)
        np.testing.assert_array_equal(self.oracle(a, b), self.einsum(a, b))


class TestElementwiseKernels:
    @pytest.mark.parametrize(
        "kind,fn",
        [
            ("relu", lambda x: np.maximum(x, 0)),
            ("neg", lambda x: -x),
            ("abs", np.abs),
            ("square", np.square),
            ("round", np.rint),
        ],
    )
    def test_unary(self, kind, fn):
        schema = get_schema(kind)
        x = np.linspace(-2, 2, 16).astype(np.float32)
        out = schema.reference([x], {})[0]
        np.testing.assert_allclose(out, fn(x).astype(np.float32), rtol=1e-6)

    def test_clip(self):
        schema = get_schema("clip")
        x = np.array([-5, 0, 5], dtype=np.float32)
        out = schema.reference([x], {"min": -1.0, "max": 1.0})[0]
        np.testing.assert_array_equal(out, [-1, 0, 1])

    def test_erf_matches_scipy(self):
        from scipy.special import erf

        schema = get_schema("erf")
        x = np.linspace(-3, 3, 32).astype(np.float32)
        out = schema.reference([x], {})[0]
        np.testing.assert_allclose(out, erf(x), atol=1e-6)

    def test_binary_dtype_preserved(self):
        schema = get_schema("add")
        x = np.ones(4, dtype=np.int32)
        out = schema.reference([x, x], {})[0]
        assert out.dtype == np.int32

    def test_cast_saturates_to_int8(self):
        schema = get_schema("cast")
        x = np.array([300.0, -300.0, 1.5], dtype=np.float32)
        out = schema.reference([x], {"dtype": DType.s8})[0]
        np.testing.assert_array_equal(out, [127, -128, 2])

    def test_cast_requires_dtype_attr(self):
        schema = get_schema("cast")
        with pytest.raises(DataTypeError):
            schema.infer([(DType.f32, (4,))], {})


class TestReductionKernels:
    def test_axis_normalization(self):
        schema = get_schema("reduce_sum")
        specs = schema.infer(
            [(DType.f32, (2, 3, 4))], {"axis": -2, "keepdims": True}
        )
        assert specs[0][1] == (2, 1, 4)

    def test_multi_axis(self):
        schema = get_schema("reduce_max")
        specs = schema.infer(
            [(DType.f32, (2, 3, 4))], {"axis": (0, 2), "keepdims": False}
        )
        assert specs[0][1] == (3,)

    def test_duplicate_axes_rejected(self):
        schema = get_schema("reduce_sum")
        with pytest.raises(ShapeInferenceError):
            schema.infer([(DType.f32, (2, 3))], {"axis": (0, 0)})

    def test_reduce_mean_needs_float(self):
        schema = get_schema("reduce_mean")
        with pytest.raises(DataTypeError):
            schema.infer([(DType.s32, (4,))], {"axis": 0})


class TestDataMovement:
    def test_reshape_element_count_checked(self):
        schema = get_schema("reshape")
        with pytest.raises(ShapeInferenceError):
            schema.infer([(DType.f32, (4, 4))], {"shape": (5, 3)})

    def test_transpose_perm_checked(self):
        schema = get_schema("transpose")
        with pytest.raises(ShapeInferenceError):
            schema.infer([(DType.f32, (4, 4))], {"perm": (0, 0)})

    def test_broadcast_target_checked(self):
        schema = get_schema("broadcast")
        with pytest.raises(ShapeInferenceError):
            schema.infer([(DType.f32, (3,))], {"shape": (4, 5)})

    def test_reorder_pad_to_dominates(self):
        schema = get_schema("reorder")
        with pytest.raises(ShapeInferenceError):
            schema.infer([(DType.f32, (8, 8))], {"pad_to": (4, 8)})

    def test_reorder_pad_to_reference_pads(self):
        schema = get_schema("reorder")
        x = np.ones((2, 2), dtype=np.float32)
        out = schema.reference([x], {"pad_to": (4, 4)})[0]
        assert out.shape == (4, 4)
        assert out.sum() == 4.0


class TestQuantizeSchemas:
    def test_quantize_requires_float_input(self):
        schema = get_schema("quantize")
        with pytest.raises(DataTypeError):
            schema.infer([(DType.s8, (4,))], {"dtype": DType.u8})

    def test_quantize_target_checked(self):
        schema = get_schema("quantize")
        with pytest.raises(DataTypeError):
            schema.infer([(DType.f32, (4,))], {"dtype": DType.f32})

    def test_dequantize_requires_int8(self):
        schema = get_schema("dequantize")
        with pytest.raises(DataTypeError):
            schema.infer([(DType.f32, (4,))], {})

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=2.0),
        st.integers(min_value=-64, max_value=64),
    )
    def test_quantize_reference_in_range(self, scale, zp):
        schema = get_schema("quantize")
        x = np.linspace(-100, 100, 64).astype(np.float32)
        out = schema.reference(
            [x], {"scale": scale, "zero_point": zp, "dtype": DType.s8}
        )[0]
        assert out.dtype == np.int8  # clipping guaranteed by dtype
