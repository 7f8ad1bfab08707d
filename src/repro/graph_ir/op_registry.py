"""Op schemas: categories, shape/dtype inference and reference kernels.

Each op kind registers an :class:`OpSchema` combining

* its category (tunable / fusible / complex),
* a shape-and-dtype inference function, and
* a numpy reference implementation used by the reference evaluator
  (the oracle that every compiled partition is tested against) and by the
  Tensor IR interpreter for fused element-wise statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..dtypes import DType, accumulator_dtype, dequantize_array, quantize_array
from ..errors import DataTypeError, ShapeInferenceError, UnsupportedOpError
from .op import OpCategory
from .symbolic import is_symbolic

# An inference function maps (input specs, attrs) -> output specs, where a
# spec is a (dtype, shape) pair.
Spec = Tuple[DType, Tuple[int, ...]]
InferFn = Callable[[Sequence[Spec], Dict[str, Any]], List[Spec]]
RefFn = Callable[[Sequence[np.ndarray], Dict[str, Any]], List[np.ndarray]]


@dataclass(frozen=True)
class OpSchema:
    """Static description of one op kind."""

    kind: str
    category: OpCategory
    num_inputs: Tuple[int, int]  # (min, max) arity
    infer: InferFn
    reference: RefFn
    # Eltwise ops can be applied lane-wise to tensor slices inside fused
    # loop nests; reductions and data movement cannot.
    is_elementwise: bool = False
    is_reduction: bool = False


OP_REGISTRY: Dict[str, OpSchema] = {}


def register(schema: OpSchema) -> OpSchema:
    if schema.kind in OP_REGISTRY:
        raise ValueError(f"op kind {schema.kind!r} registered twice")
    OP_REGISTRY[schema.kind] = schema
    return schema


def get_schema(kind: str) -> OpSchema:
    try:
        return OP_REGISTRY[kind]
    except KeyError:
        raise UnsupportedOpError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# Shape helpers
# ---------------------------------------------------------------------------


def broadcast_shapes(*shapes: Tuple[int, ...]) -> Tuple[int, ...]:
    """Numpy-style broadcast of shapes, with a typed error on mismatch.

    Symbolic dims broadcast like their runtime value: a SymDim position
    accepts 1 or the same-named SymDim and yields the SymDim (``int(d)``
    via numpy would silently freeze the hint into the result).
    """
    if any(any(is_symbolic(d) for d in s) for s in shapes):
        return _broadcast_symbolic(shapes)
    try:
        return tuple(int(d) for d in np.broadcast_shapes(*shapes))
    except ValueError:
        raise ShapeInferenceError(f"shapes {shapes} are not broadcastable")


def _broadcast_symbolic(shapes) -> Tuple[int, ...]:
    rank = max(len(s) for s in shapes)
    aligned = [(1,) * (rank - len(s)) + tuple(s) for s in shapes]
    out = []
    for pos in range(rank):
        dims = [s[pos] for s in aligned]
        syms = [d for d in dims if is_symbolic(d)]
        if syms:
            names = {d.name for d in syms}
            if len(names) > 1 or any(
                not is_symbolic(d) and d != 1 for d in dims
            ):
                raise ShapeInferenceError(
                    f"shapes {shapes} are not broadcastable: position {pos} "
                    f"mixes symbolic dims {sorted(names)} with static sizes"
                )
            out.append(syms[0])
            continue
        result = 1
        for d in dims:
            d = int(d)
            if d == 1:
                continue
            if result not in (1, d):
                raise ShapeInferenceError(
                    f"shapes {shapes} are not broadcastable"
                )
            result = d
        out.append(result)
    return tuple(out)


def _same_dtype(specs: Sequence[Spec], kind: str) -> DType:
    dtypes = {dt for dt, _ in specs}
    if len(dtypes) != 1:
        raise DataTypeError(
            f"{kind} requires matching input dtypes, got "
            f"{[dt.value for dt, _ in specs]}"
        )
    return next(iter(dtypes))


def _normalize_axes(axis: Any, ndims: int) -> Tuple[int, ...]:
    if axis is None:
        return tuple(range(ndims))
    if isinstance(axis, int):
        axis = (axis,)
    axes = tuple(a % ndims for a in axis)
    if len(set(axes)) != len(axes):
        raise ShapeInferenceError(f"duplicate reduction axes {axis}")
    return axes


# ---------------------------------------------------------------------------
# matmul (the tunable op)
# ---------------------------------------------------------------------------


def matmul_output_spec(
    a: Spec, b: Spec, transpose_a: bool = False, transpose_b: bool = False
) -> Spec:
    """Infer the (dtype, shape) of ``matmul(a, b)`` with batch broadcast."""
    a_dtype, a_shape = a
    b_dtype, b_shape = b
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ShapeInferenceError(
            f"matmul operands must be >= 2-D, got {a_shape} x {b_shape}"
        )
    am, ak = a_shape[-2:]
    if transpose_a:
        am, ak = ak, am
    bk, bn = b_shape[-2:]
    if transpose_b:
        bk, bn = bn, bk
    if ak != bk:
        raise ShapeInferenceError(
            f"matmul contraction mismatch: {a_shape} (k={ak}) x "
            f"{b_shape} (k={bk})"
        )
    batch = broadcast_shapes(a_shape[:-2], b_shape[:-2])
    if a_dtype.is_low_precision and b_dtype.is_low_precision:
        out_dtype = DType.s32
    elif a_dtype.is_floating and b_dtype.is_floating:
        out_dtype = accumulator_dtype(a_dtype)
    else:
        raise DataTypeError(
            f"matmul dtype combination not supported: "
            f"{a_dtype.value} x {b_dtype.value}"
        )
    return out_dtype, batch + (am, bn)


def _infer_matmul(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
    return [
        matmul_output_spec(
            specs[0],
            specs[1],
            transpose_a=attrs.get("transpose_a", False),
            transpose_b=attrs.get("transpose_b", False),
        )
    ]


def _ref_matmul(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    a, b = arrays
    if attrs.get("transpose_a", False):
        a = np.swapaxes(a, -1, -2)
    if attrs.get("transpose_b", False):
        b = np.swapaxes(b, -1, -2)
    if a.dtype in (np.int8, np.uint8):
        # Exact integer GEMM on float64 BLAS: every product is at most
        # 2**15 in magnitude, so every partial sum is an exact integer
        # while K < 2**38, whatever the summation order.  Independent of
        # the microkernel this oracle checks.
        out = np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(
            np.int32
        )
    else:
        out = np.matmul(a.astype(np.float32), b.astype(np.float32))
    return [out]


register(
    OpSchema(
        kind="matmul",
        category=OpCategory.TUNABLE,
        num_inputs=(2, 2),
        infer=_infer_matmul,
        reference=_ref_matmul,
    )
)


# ---------------------------------------------------------------------------
# Fusible element-wise ops
# ---------------------------------------------------------------------------


def _register_unary(kind: str, fn: Callable[[np.ndarray, Dict], np.ndarray]):
    def infer(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
        dtype, shape = specs[0]
        return [(dtype, shape)]

    def reference(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
        result = fn(arrays[0], attrs)
        return [np.asarray(result, dtype=arrays[0].dtype)]

    register(
        OpSchema(
            kind=kind,
            category=OpCategory.FUSIBLE,
            num_inputs=(1, 1),
            infer=infer,
            reference=reference,
            is_elementwise=True,
        )
    )


_register_unary("relu", lambda x, a: np.maximum(x, 0))
_register_unary("exp", lambda x, a: np.exp(x.astype(np.float32)))
_register_unary("tanh", lambda x, a: np.tanh(x.astype(np.float32)))
_register_unary(
    "sigmoid", lambda x, a: 1.0 / (1.0 + np.exp(-x.astype(np.float32)))
)
_register_unary("sqrt", lambda x, a: np.sqrt(x.astype(np.float32)))
_register_unary("rsqrt", lambda x, a: 1.0 / np.sqrt(x.astype(np.float32)))
_register_unary("square", lambda x, a: np.square(x))
_register_unary("neg", lambda x, a: -x)
_register_unary("abs", lambda x, a: np.abs(x))
_register_unary("round", lambda x, a: np.rint(x))
_register_unary("log", lambda x, a: np.log(x.astype(np.float32)))
_register_unary(
    "erf",
    lambda x, a: _erf(x.astype(np.float32)),
)
_register_unary(
    "clip",
    lambda x, a: np.clip(x, a.get("min", -np.inf), a.get("max", np.inf)),
)


def _erf(x: np.ndarray) -> np.ndarray:
    """Vectorized error function (Abramowitz & Stegun 7.1.26 fallback)."""
    try:  # pragma: no cover - scipy present in this environment
        from scipy.special import erf as scipy_erf

        return scipy_erf(x).astype(np.float32)
    except ImportError:  # pragma: no cover
        sign = np.sign(x)
        x = np.abs(x)
        t = 1.0 / (1.0 + 0.3275911 * x)
        poly = t * (
            0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
        )
        return (sign * (1.0 - poly * np.exp(-x * x))).astype(np.float32)


def _register_binary(kind: str, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    def infer(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
        dtype = _same_dtype(specs, kind)
        shape = broadcast_shapes(specs[0][1], specs[1][1])
        return [(dtype, shape)]

    def reference(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
        x, y = arrays
        if x.dtype.kind == "f":
            result = fn(x.astype(np.float32), y.astype(np.float32))
        else:
            result = fn(x, y)
        return [np.asarray(result, dtype=x.dtype)]

    register(
        OpSchema(
            kind=kind,
            category=OpCategory.FUSIBLE,
            num_inputs=(2, 2),
            infer=infer,
            reference=reference,
            is_elementwise=True,
        )
    )


_register_binary("add", np.add)
_register_binary("sub", np.subtract)
_register_binary("mul", np.multiply)
_register_binary("div", np.divide)
_register_binary("maximum", np.maximum)
_register_binary("minimum", np.minimum)


# cast: element-wise but changes dtype.


def _infer_cast(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
    target = attrs.get("dtype")
    if not isinstance(target, DType):
        raise DataTypeError("cast requires a 'dtype' attribute of type DType")
    return [(target, specs[0][1])]


def _ref_cast(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    target: DType = attrs["dtype"]
    src = arrays[0]
    if target.is_low_precision and src.dtype.kind in "fi":
        # Saturating conversion, as CPU int8 instructions do.
        info = np.iinfo(target.to_numpy())
        data = np.rint(src) if src.dtype.kind == "f" else src
        return [np.clip(data, info.min, info.max).astype(target.to_numpy())]
    return [src.astype(target.to_numpy())]


register(
    OpSchema(
        kind="cast",
        category=OpCategory.FUSIBLE,
        num_inputs=(1, 1),
        infer=_infer_cast,
        reference=_ref_cast,
        is_elementwise=True,
    )
)


# ---------------------------------------------------------------------------
# Fusible reductions
# ---------------------------------------------------------------------------


def _register_reduce(kind: str, fn: Callable[..., np.ndarray]):
    def infer(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
        dtype, shape = specs[0]
        axes = _normalize_axes(attrs.get("axis"), len(shape))
        keepdims = attrs.get("keepdims", True)
        out = []
        for i, dim in enumerate(shape):
            if i in axes:
                if keepdims:
                    out.append(1)
            else:
                out.append(dim)
        if kind == "reduce_mean" and not dtype.is_floating:
            raise DataTypeError("reduce_mean requires a floating dtype")
        return [(dtype, tuple(out))]

    def reference(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
        x = arrays[0]
        axes = _normalize_axes(attrs.get("axis"), x.ndim)
        keepdims = attrs.get("keepdims", True)
        if x.dtype.kind == "f":
            result = fn(x.astype(np.float32), axis=axes, keepdims=keepdims)
        else:
            result = fn(x, axis=axes, keepdims=keepdims)
        return [np.asarray(result, dtype=x.dtype)]

    register(
        OpSchema(
            kind=kind,
            category=OpCategory.FUSIBLE,
            num_inputs=(1, 1),
            infer=infer,
            reference=reference,
            is_reduction=True,
        )
    )


_register_reduce("reduce_sum", np.sum)
_register_reduce("reduce_max", np.max)
_register_reduce("reduce_min", np.min)
_register_reduce("reduce_mean", np.mean)


# ---------------------------------------------------------------------------
# Fusible data movement
# ---------------------------------------------------------------------------


def _infer_reorder(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
    # Reorder changes the physical layout; the logical spec is unchanged
    # unless 'pad_to' grows dims (template-grid padding of weights).
    dtype, shape = specs[0]
    pad_to = attrs.get("pad_to")
    if pad_to is not None:
        pad_to = tuple(int(d) for d in pad_to)
        if len(pad_to) != len(shape) or any(
            p < s for p, s in zip(pad_to, shape)
        ):
            raise ShapeInferenceError(
                f"reorder pad_to {pad_to} must dominate shape {shape}"
            )
        shape = pad_to
    return [(dtype, shape)]


def _ref_reorder(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    # The reference evaluator works on logical (plain) arrays, where a
    # layout change is the identity (modulo zero padding).
    array = arrays[0]
    pad_to = attrs.get("pad_to")
    if pad_to is not None:
        pad = [(0, p - s) for p, s in zip(pad_to, array.shape)]
        array = np.pad(array, pad)
    return [array]


register(
    OpSchema(
        kind="reorder",
        category=OpCategory.FUSIBLE,
        num_inputs=(1, 1),
        infer=_infer_reorder,
        reference=_ref_reorder,
    )
)


def _infer_transpose(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
    dtype, shape = specs[0]
    perm = attrs.get("perm")
    if perm is None or sorted(perm) != list(range(len(shape))):
        raise ShapeInferenceError(
            f"transpose needs a 'perm' permutation of range({len(shape)}), "
            f"got {perm}"
        )
    return [(dtype, tuple(shape[p] for p in perm))]


def _ref_transpose(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    return [np.ascontiguousarray(arrays[0].transpose(attrs["perm"]))]


register(
    OpSchema(
        kind="transpose",
        category=OpCategory.FUSIBLE,
        num_inputs=(1, 1),
        infer=_infer_transpose,
        reference=_ref_transpose,
    )
)


def _infer_reshape(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
    dtype, shape = specs[0]
    if any(is_symbolic(d) for d in shape):
        raise ShapeInferenceError(
            f"reshape of a symbolic-shaped tensor {shape} is not supported; "
            f"keep the dynamic batch as the leading dim"
        )
    new_shape = tuple(int(d) for d in attrs.get("shape", ()))
    if int(np.prod(shape)) != int(np.prod(new_shape)):
        raise ShapeInferenceError(
            f"reshape cannot map {shape} to {new_shape}: element counts differ"
        )
    return [(dtype, new_shape)]


def _ref_reshape(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    return [arrays[0].reshape(tuple(attrs["shape"]))]


register(
    OpSchema(
        kind="reshape",
        category=OpCategory.FUSIBLE,
        num_inputs=(1, 1),
        infer=_infer_reshape,
        reference=_ref_reshape,
    )
)


def _infer_broadcast(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
    dtype, shape = specs[0]
    target = tuple(int(d) for d in attrs.get("shape", ()))
    if broadcast_shapes(shape, target) != target:
        raise ShapeInferenceError(f"cannot broadcast {shape} to {target}")
    return [(dtype, target)]


def _ref_broadcast(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    return [np.broadcast_to(arrays[0], tuple(attrs["shape"])).copy()]


register(
    OpSchema(
        kind="broadcast",
        category=OpCategory.FUSIBLE,
        num_inputs=(1, 1),
        infer=_infer_broadcast,
        reference=_ref_broadcast,
    )
)


# ---------------------------------------------------------------------------
# Complex ops (decomposed before optimization)
# ---------------------------------------------------------------------------


def _infer_same(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
    return [specs[0]]


def _ref_softmax(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    x = arrays[0].astype(np.float32)
    axis = attrs.get("axis", -1)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return [(e / np.sum(e, axis=axis, keepdims=True)).astype(np.float32)]


register(
    OpSchema(
        kind="softmax",
        category=OpCategory.COMPLEX,
        num_inputs=(1, 1),
        infer=_infer_same,
        reference=_ref_softmax,
    )
)


def _ref_gelu(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    x = arrays[0].astype(np.float32)
    if attrs.get("approximate", "erf") == "tanh":
        inner = np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)
        return [(0.5 * x * (1.0 + np.tanh(inner))).astype(np.float32)]
    return [(0.5 * x * (1.0 + _erf(x / np.sqrt(2.0)))).astype(np.float32)]


register(
    OpSchema(
        kind="gelu",
        category=OpCategory.COMPLEX,
        num_inputs=(1, 1),
        infer=_infer_same,
        reference=_ref_gelu,
    )
)


def _ref_silu(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    x = arrays[0].astype(np.float32)
    return [(x / (1.0 + np.exp(-x))).astype(np.float32)]


register(
    OpSchema(
        kind="silu",
        category=OpCategory.COMPLEX,
        num_inputs=(1, 1),
        infer=_infer_same,
        reference=_ref_silu,
    )
)


def _infer_bias_add(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
    (dtype, shape), (b_dtype, b_shape) = specs
    if dtype != b_dtype:
        raise DataTypeError("bias_add requires matching dtypes")
    if len(b_shape) != 1 or b_shape[0] != shape[-1]:
        raise ShapeInferenceError(
            f"bias shape {b_shape} must be ({shape[-1]},) for input {shape}"
        )
    return [(dtype, shape)]


def _ref_bias_add(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    return [np.asarray(arrays[0] + arrays[1], dtype=arrays[0].dtype)]


register(
    OpSchema(
        kind="bias_add",
        category=OpCategory.COMPLEX,
        num_inputs=(2, 2),
        infer=_infer_bias_add,
        reference=_ref_bias_add,
    )
)


def _infer_norm(num_stats: int):
    def infer(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
        dtype, shape = specs[0]
        channels = shape[-1]
        for i, (s_dtype, s_shape) in enumerate(specs[1:], start=1):
            if s_shape != (channels,):
                raise ShapeInferenceError(
                    f"norm parameter {i} has shape {s_shape}, expected "
                    f"({channels},)"
                )
        return [(dtype, shape)]

    return infer


def _ref_batchnorm(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    x, gamma, beta, mean, var = (a.astype(np.float32) for a in arrays)
    eps = attrs.get("epsilon", 1e-5)
    return [((x - mean) / np.sqrt(var + eps) * gamma + beta).astype(np.float32)]


register(
    OpSchema(
        kind="batchnorm_inference",
        category=OpCategory.COMPLEX,
        num_inputs=(5, 5),
        infer=_infer_norm(4),
        reference=_ref_batchnorm,
    )
)


def _ref_layernorm(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    x, gamma, beta = (a.astype(np.float32) for a in arrays)
    eps = attrs.get("epsilon", 1e-5)
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.mean(np.square(x - mean), axis=-1, keepdims=True)
    return [((x - mean) / np.sqrt(var + eps) * gamma + beta).astype(np.float32)]


register(
    OpSchema(
        kind="layernorm",
        category=OpCategory.COMPLEX,
        num_inputs=(3, 3),
        infer=_infer_norm(2),
        reference=_ref_layernorm,
    )
)


def _infer_quantize(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
    dtype, shape = specs[0]
    if not dtype.is_floating:
        raise DataTypeError(f"quantize input must be floating, got {dtype}")
    target = attrs.get("dtype", DType.s8)
    if not target.is_low_precision:
        raise DataTypeError(f"quantize target must be 8-bit, got {target}")
    return [(target, shape)]


def _ref_quantize(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    return [
        quantize_array(
            arrays[0],
            scale=attrs["scale"],
            zero_point=attrs.get("zero_point", 0),
            dtype=attrs.get("dtype", DType.s8),
        )
    ]


register(
    OpSchema(
        kind="quantize",
        category=OpCategory.COMPLEX,
        num_inputs=(1, 1),
        infer=_infer_quantize,
        reference=_ref_quantize,
    )
)


def _infer_dequantize(specs: Sequence[Spec], attrs: Dict[str, Any]) -> List[Spec]:
    dtype, shape = specs[0]
    if not dtype.is_low_precision:
        raise DataTypeError(f"dequantize input must be 8-bit, got {dtype}")
    return [(DType.f32, shape)]


def _ref_dequantize(arrays: Sequence[np.ndarray], attrs: Dict[str, Any]):
    return [
        dequantize_array(
            arrays[0], scale=attrs["scale"], zero_point=attrs.get("zero_point", 0)
        )
    ]


register(
    OpSchema(
        kind="dequantize",
        category=OpCategory.COMPLEX,
        num_inputs=(1, 1),
        infer=_infer_dequantize,
        reference=_ref_dequantize,
    )
)
