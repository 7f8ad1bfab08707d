"""The batch-reduce GEMM microkernel.

Interface follows LIBXSMM / TPP and the paper's Figure 2:

    C[0:MB, 0:NB] += sum over bs of A[bs] x B[bs]

where A is a batch of ``[MB, KB]`` blocks and B a batch of ``[NB, KB]``
blocks (the blocked-B layout).  Int8 inputs accumulate in int32 (VNNI
semantics); floating inputs accumulate in float32.

The compiler only chooses block sizes and batch; everything inside this call
is the "expert-tuned" black box the hybrid approach relies on.  Here that
box is one BLAS GEMM, :func:`brgemm_partial`.  A JIT brgemm addresses its BS
blocks through pointer lists; BLAS needs them contiguous in K.  So the
compiled program stores every operand with the reduce batch folded into K:
the physical K block is ``BS*KB``, an A block is ``[MB, BS*KB]`` and a B
block ``[NB, BS*KB]``, written once by the packs, the constant-weight
reorder and chained producers.  The kernel then hands BLAS both blocks as
they are.  Int8 operands run the same float32 GEMM in K-chunks short
enough that every partial sum stays an exactly representable integer (at
most 2**24), and the chunks accumulate in int32, so the result is bit-equal
to an int32 GEMM.  The interpreter and the generated code both call
:func:`brgemm_partial` on the same views, so the two backends agree bit for
bit.  :func:`batch_reduce_gemm` is the LIBXSMM-style entry point on
``[BS, ., KB]`` batches; it folds its operands itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ExecutionError

#: Largest operand magnitude per integer dtype.
_INT_MAX_ABS = {np.dtype(np.uint8): 255, np.dtype(np.int8): 128}
#: float32 represents every integer of magnitude up to 2**24 exactly.
_F32_EXACT_INT = 1 << 24


def exact_chunk(a_dtype, b_dtype) -> int:
    """Longest reduction whose float32 partial sums are all exact integers.

    ``2**24 // (max|a| * max|b|)``: 514 for u8 x s8, 1024 for s8 x s8 and
    258 for u8 x u8.  The bound holds for every partial sum, so it holds in
    any summation order, FMA included.
    """
    return _F32_EXACT_INT // (
        _INT_MAX_ABS[np.dtype(a_dtype)] * _INT_MAX_ABS[np.dtype(b_dtype)]
    )


def operand_error(
    a_shape, b_shape, c_shape, batch: int, a_dtype, b_dtype, c_dtype
) -> Optional[str]:
    """Why kernel operands ``a [MB, BS*KB]``, ``b [NB, BS*KB]`` and
    ``c [MB, NB]`` do not form one call of ``batch`` blocks, or None.

    Shapes are tuples and dtypes ``np.dtype`` objects.

    Both runtime backends and :func:`batch_reduce_gemm` raise exactly this
    message, so they reject bad IR identically.
    """
    (mb, k), (nb, k_b) = a_shape, b_shape
    if k != k_b:
        return (
            f"brgemm K mismatch: a blocks [{mb},{k}], b blocks "
            f"[NB,K]={[nb, k_b]}"
        )
    if k % batch:
        return f"brgemm batch {batch} does not divide K={k}"
    if c_shape != (mb, nb):
        return f"brgemm accumulator shape {c_shape} != ({mb}, {nb})"
    if a_dtype in _INT_MAX_ABS:
        if b_dtype not in _INT_MAX_ABS:
            return f"int8 brgemm needs an int8 B operand, got {b_dtype}"
        if c_dtype != np.int32:
            return f"int8 brgemm needs an int32 accumulator, got {c_dtype}"
    elif c_dtype != np.float32:
        return f"float brgemm needs a float32 accumulator, got {c_dtype}"
    return None


def brgemm_partial(a2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """``sum over bs of A[bs] x B[bs]`` as a fresh ``[MB, NB]`` array.

    The operands arrive in the kernel's layout, the reduce batch already
    folded into K: ``a2`` is ``[MB, BS*KB]`` and ``b2`` is ``[NB, BS*KB]``,
    both C-contiguous (the packs and the constant-weight reorder write
    them that way).  Float operands go to BLAS as they are, with no copy;
    int8 operands are cast to float32 and reduced in exact K-chunks.
    Float inputs give float32; int8 inputs give the exact int32 result.
    Operands are not validated here (see :func:`operand_error`).
    """
    if a2.dtype not in _INT_MAX_ABS:
        return a2 @ b2.T
    return _exact_int_gemm(
        a2.astype(np.float32),
        b2.astype(np.float32),
        exact_chunk(a2.dtype, b2.dtype),
    )


def _exact_int_gemm(af: np.ndarray, bf: np.ndarray, step: int) -> np.ndarray:
    """``af @ bf.T`` of integer-valued float32 operands, exact in int32:
    float32 GEMMs over K-chunks of ``step``, accumulated in int32."""
    bt = bf.T
    out = (af[:, :step] @ bt[:step]).astype(np.int32)
    for start in range(step, af.shape[1], step):
        out += (af[:, start:start + step] @ bt[start:start + step]).astype(
            np.int32
        )
    return out


def _fold_batch(blocks: np.ndarray, dtype=None) -> np.ndarray:
    """A ``[BS, R, KB]`` batch of K-blocks as the kernel's ``[R, BS*KB]``.

    The one copy the LIBXSMM-style entry point pays; compiled code never
    calls it, because its packs already write this layout.
    """
    return np.ascontiguousarray(
        blocks.transpose(1, 0, 2), dtype=dtype
    ).reshape(blocks.shape[1], -1)


def batch_reduce_gemm(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    b_transposed: bool = True,
    initialize: bool = False,
) -> None:
    """Accumulate a batch-reduce GEMM into ``c`` in place.

    Args:
        c: Accumulator block ``[MB, NB]`` (float32 or int32).
        a: Batch of A blocks ``[BS, MB, KB]``.
        b: Batch of B blocks — ``[BS, NB, KB]`` if ``b_transposed`` else
            ``[BS, KB, NB]``.
        b_transposed: Whether B blocks are in the swapped-inner blocked
            layout (the layout the paper's templates produce).
        initialize: Zero the accumulator first (``beta = 0`` GEMM).

    Raises:
        ExecutionError: on shape or dtype mismatches.
    """
    if a.ndim != 3 or b.ndim != 3:
        raise ExecutionError(
            f"brgemm operands must be 3-D batches, got a{a.shape} b{b.shape}"
        )
    if a.shape[0] != b.shape[0]:
        raise ExecutionError(
            f"brgemm batch mismatch: a has {a.shape[0]}, b has {b.shape[0]}"
        )
    # Fold straight to float32: the copy the kernel would make anyway.
    a2 = _fold_batch(a, np.float32)
    b2 = _fold_batch(b if b_transposed else b.transpose(0, 2, 1), np.float32)
    error = operand_error(
        a2.shape, b2.shape, c.shape, a.shape[0], a.dtype, b.dtype, c.dtype
    )
    if error:
        raise ExecutionError(error)
    if a.dtype in _INT_MAX_ABS:
        partial = _exact_int_gemm(a2, b2, exact_chunk(a.dtype, b.dtype))
    else:
        partial = brgemm_partial(a2, b2)
    if initialize:
        c[...] = partial
    else:
        c += partial


def brgemm_flops(mb: int, nb: int, kb: int, batch: int) -> int:
    """Multiply-accumulate operation count of one microkernel invocation."""
    return 2 * mb * nb * kb * batch
