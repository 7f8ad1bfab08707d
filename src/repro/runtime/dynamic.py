"""Shared runtime support for shape-polymorphic (symbolic-batch) programs.

A dynamic partition is compiled once with a :class:`~repro.graph_ir.symbolic.SymDim`
leading batch dim; its Tensor IR declares that dim as a free ``Var``.  At
call time both executors perform the same three steps, centralized here so
the interpreter and the exec-codegen backend cannot drift:

* :func:`bind_shapes` — derive the concrete value of each symbolic dim from
  the runtime arrays (and validate every static dim exactly);
* :func:`concrete_shape` — evaluate a declared shape under those bindings;
* :func:`run_pack` / :func:`run_unpack` — layout conversion with runtime
  geometry (block counts from the actual buffers, zero-padded tails,
  cropped outputs).  These are the reference semantics the interpreter
  always had; the codegen backend falls back to them for statements whose
  extents are only known at run time.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..tensor_ir.expr import Expr, Var, evaluate


def bind_shapes(
    params: Iterable,
    buffers: Mapping[str, np.ndarray],
    scalars: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Bind symbolic dims from runtime array shapes; validate static dims.

    ``params`` are :class:`~repro.tensor_ir.function.TensorDecl`-likes whose
    ``shape`` entries are ints or Exprs (a ``Var`` for the symbolic batch).
    Returns the scalar bindings (existing ``scalars`` are honored and
    conflict-checked).  Params without a buffer are skipped — presence is
    the caller's check.
    """
    bound: Dict[str, int] = dict(scalars or {})
    deferred = []  # non-Var exprs checked once all Vars are bound
    for param in params:
        array = buffers.get(param.name)
        if array is None:
            continue
        if len(array.shape) != len(param.shape):
            raise ExecutionError(
                f"buffer {param.name!r} has shape {tuple(array.shape)}, "
                f"declaration expects {param.shape}"
            )
        for got, want in zip(array.shape, param.shape):
            if isinstance(want, Var):
                prev = bound.get(want.name)
                if prev is None:
                    bound[want.name] = int(got)
                elif prev != int(got):
                    raise ExecutionError(
                        f"symbolic dim {want.name!r} bound inconsistently: "
                        f"{prev} vs {got} (buffer {param.name!r})"
                    )
            elif isinstance(want, Expr):
                deferred.append((param.name, int(got), want))
            elif int(want) != int(got):
                raise ExecutionError(
                    f"buffer {param.name!r} has shape {tuple(array.shape)}, "
                    f"declaration expects {param.shape}"
                )
    for name, got, want in deferred:
        value = evaluate(want, bound)
        if value != got:
            raise ExecutionError(
                f"buffer {name!r} dim {got} does not satisfy {want!r} "
                f"(= {value} under {bound})"
            )
    return bound


def concrete_shape(
    shape: Sequence, scalars: Mapping[str, int]
) -> Tuple[int, ...]:
    """Evaluate a declared shape (ints and Exprs) to concrete ints."""
    return tuple(
        evaluate(s, scalars) if isinstance(s, Expr) else int(s) for s in shape
    )


def squeeze_to(array: np.ndarray, ndim: int, what: str) -> np.ndarray:
    """Drop length-1 dims (leftmost first) until ``ndim`` dims remain.

    Slices like ``B'[ksi:1, npsi:1, 0:NB, 0:BS*KB]`` resolve to views
    with length-1 dims; squeezing them recovers the dense ``[NB, BS*KB]``
    block the microkernel consumes.
    """
    while array.ndim > ndim:
        for axis, extent in enumerate(array.shape):
            if extent == 1:
                array = np.squeeze(array, axis=axis)
                break
        else:
            raise ExecutionError(
                f"{what} has shape {array.shape}; cannot squeeze to "
                f"{ndim} dims"
            )
    if array.ndim != ndim:
        raise ExecutionError(
            f"{what} has shape {array.shape}; expected {ndim} dims"
        )
    return array


def run_pack(
    dst: np.ndarray,
    src: np.ndarray,
    block_sizes: Tuple[int, int],
    swap_inner: bool = False,
    outer_transposed: bool = False,
    transpose_src: bool = False,
) -> None:
    """Plain -> blocked layout conversion with runtime geometry.

    Block counts come from the destination: grid padding can make the
    blocked buffer larger than ``ceil(src / block)``; the padded tail is
    zero-filled.
    """
    src = squeeze_to(src, 2, "pack source")
    if transpose_src:
        src = src.T
    b1, b2 = block_sizes
    rows, cols = src.shape
    dst4 = squeeze_to(dst, 4, "pack destination")
    rb, cb = dst4.shape[0], dst4.shape[1]
    if outer_transposed:
        rb, cb = cb, rb
    if rb * b1 < rows or cb * b2 < cols:
        raise ExecutionError(
            f"pack destination too small for source "
            f"({rows}x{cols} into {rb}x{b1} x {cb}x{b2})"
        )
    if rows != rb * b1 or cols != cb * b2:
        padded = np.zeros((rb * b1, cb * b2), dtype=src.dtype)
        padded[:rows, :cols] = src
        src = padded
    blocks = src.reshape(rb, b1, cb, b2)
    if swap_inner:
        blocks = blocks.transpose(0, 2, 3, 1)  # [rb, cb, b2, b1]
    else:
        blocks = blocks.transpose(0, 2, 1, 3)  # [rb, cb, b1, b2]
    if outer_transposed:
        blocks = blocks.transpose(1, 0, 2, 3)  # [cb, rb, ...]
    if dst.size != blocks.size:
        raise ExecutionError(
            f"pack destination has {dst.size} elements, "
            f"blocks have {blocks.size}"
        )
    dst[...] = blocks.reshape(dst.shape).astype(dst.dtype, copy=False)


def run_unpack(
    dst: np.ndarray,
    src: np.ndarray,
    block_sizes: Tuple[int, int],
    swap_inner: bool = False,
) -> None:
    """Blocked -> plain layout conversion with runtime geometry.

    Block counts come from the (blocked) source so padded buffers unpack
    correctly; the result is cropped to the destination.
    """
    dst = squeeze_to(dst, 2, "unpack destination")
    b1, b2 = block_sizes
    rows, cols = dst.shape
    total_blocks = src.size // (b1 * b2)
    rb = max(1, -(-rows // b1))
    cb = total_blocks // rb
    if rb * cb != total_blocks or cb * b2 < cols:
        raise ExecutionError(
            f"unpack geometry mismatch: {src.size} elements as "
            f"{rb}x{cb} blocks of {b1}x{b2} for output {rows}x{cols}"
        )
    if swap_inner:
        blocks = src.reshape(rb, cb, b2, b1).transpose(0, 3, 1, 2)
    else:
        blocks = src.reshape(rb, cb, b1, b2).transpose(0, 2, 1, 3)
    plain = blocks.reshape(rb * b1, cb * b2)
    dst[...] = plain[:rows, :cols].astype(dst.dtype)
