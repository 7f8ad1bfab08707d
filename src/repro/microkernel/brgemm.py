"""The batch-reduce GEMM microkernel.

Interface follows LIBXSMM / TPP and the paper's Figure 2:

    C[0:MB, 0:NB] += sum over bs of A[bs] x B[bs]

where A is a batch of ``[MB, KB]`` blocks and B a batch of ``[NB, KB]``
blocks in the blocked-B layout (``b_transposed=True``) or ``[KB, NB]``
blocks in plain layout.  Int8 inputs accumulate in int32 (VNNI semantics);
floating inputs accumulate in float32.

The compiler only chooses block sizes and batch; everything inside this call
is the "expert-tuned" black box the hybrid approach relies on.  Here that
box is one BLAS GEMM: :func:`brgemm_partial` folds the reduce batch into K
(``A -> [MB, BS*KB]``) so a single float32 ``@`` does the whole reduction.
Int8 operands run the same float32 GEMM in K-chunks short enough that every
partial sum stays an exactly representable integer (at most 2**24), and the
chunks accumulate in int32, so the result is bit-equal to an int32 GEMM.
The interpreter (:func:`batch_reduce_gemm`) and the generated code both
call :func:`brgemm_partial`, so the two backends agree bit for bit.
"""

from __future__ import annotations

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


def brgemm_partial(
    a: np.ndarray, b: np.ndarray, b_transposed: bool
) -> np.ndarray:
    """``sum over bs of A[bs] x B[bs]`` as a fresh ``[MB, NB]`` array.

    The reduce batch is folded into K: A becomes ``[MB, BS*KB]`` and B
    ``[NB, BS*KB]`` (``b_transposed``) or ``[BS*KB, NB]``, both made
    C-contiguous float32 so every caller hands BLAS the same layout.
    Float inputs give float32; int8 inputs give the exact int32 result.
    Operands are not validated here (see :func:`batch_reduce_gemm`).
    """
    bs, mb, kb = a.shape
    k = bs * kb
    a2 = np.ascontiguousarray(
        a.transpose(1, 0, 2), dtype=np.float32
    ).reshape(mb, k)
    if b_transposed:
        b2 = np.ascontiguousarray(
            b.transpose(1, 0, 2), dtype=np.float32
        ).reshape(b.shape[1], k).T
    else:
        b2 = np.ascontiguousarray(b, dtype=np.float32).reshape(k, b.shape[2])
    if a.dtype not in _INT_MAX_ABS:
        return a2 @ b2
    step = exact_chunk(a.dtype, b.dtype)
    out = (a2[:, :step] @ b2[:step]).astype(np.int32)
    for start in range(step, k, step):
        out += (a2[:, start:start + step] @ b2[start:start + step]).astype(
            np.int32
        )
    return out


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
    mb, kb = a.shape[1], a.shape[2]
    if b_transposed:
        nb, kb_b = b.shape[1], b.shape[2]
    else:
        kb_b, nb = b.shape[1], b.shape[2]
    if kb != kb_b:
        raise ExecutionError(
            f"brgemm K mismatch: a blocks [{mb},{kb}], b blocks "
            f"{'[NB,KB]' if b_transposed else '[KB,NB]'}={list(b.shape[1:])}"
        )
    if c.shape != (mb, nb):
        raise ExecutionError(
            f"brgemm accumulator shape {c.shape} != ({mb}, {nb})"
        )

    if a.dtype in _INT_MAX_ABS:
        if b.dtype not in _INT_MAX_ABS:
            raise ExecutionError(
                f"int8 brgemm needs an int8 B operand, got {b.dtype}"
            )
        if c.dtype != np.int32:
            raise ExecutionError(
                f"int8 brgemm needs an int32 accumulator, got {c.dtype}"
            )
    elif c.dtype != np.float32:
        raise ExecutionError(
            f"float brgemm needs a float32 accumulator, got {c.dtype}"
        )

    partial = brgemm_partial(a, b, b_transposed)
    if initialize:
        c[...] = partial
    else:
        c += partial


def brgemm_flops(mb: int, nb: int, kb: int, batch: int) -> int:
    """Multiply-accumulate operation count of one microkernel invocation."""
    return 2 * mb * nb * kb * batch
