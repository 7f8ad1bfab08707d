"""Statements of the Tensor IR.

Compute statements operate on *tensor slices* — contiguous hyper-rectangles
of physical buffers described by (offsets, sizes), mirroring the paper's
``A[mpsi:1, ksi:BS, 0:MB, 0:KB]`` notation.  Loops iterate over block
indices, so loop trip counts stay small and the heavy lifting happens in
slice-level statements, exactly like the generated code the paper shows in
Figure 6 (where the innermost element loops are what our interpreter
vectorizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import TensorIRError
from .expr import Expr, ExprLike, as_dim, as_expr


@dataclass(frozen=True)
class SliceRef:
    """A slice of a physical tensor buffer.

    Attributes:
        tensor: Name of the buffer (a function parameter or local alloc).
        offsets: Start index per dimension (scalar expressions).
        sizes: Static extent per dimension.  A size of 1 in a leading dim is
            squeezed by compute consumers (``A[mpsi:1, ...]`` semantics).
    """

    tensor: str
    offsets: Tuple[Expr, ...]
    sizes: Tuple[Union[int, Expr], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "offsets", tuple(as_expr(o) for o in self.offsets)
        )
        # Sizes stay plain ints on the static path (executors specialize
        # on them); a symbolic dim becomes a Var extent bound at runtime.
        object.__setattr__(self, "sizes", tuple(as_dim(s) for s in self.sizes))

    @property
    def is_static(self) -> bool:
        """True when every extent is a compile-time constant."""
        return not any(isinstance(s, Expr) for s in self.sizes)

    @property
    def num_elements(self) -> int:
        result = 1
        for s in self.sizes:
            if isinstance(s, Expr):
                raise TensorIRError(
                    f"num_elements of dynamic slice {self!r}: extent {s!r} "
                    f"is only known at runtime"
                )
            result *= s
        return result

    def __repr__(self) -> str:
        dims = ", ".join(
            f"{o!r}:{s}" for o, s in zip(self.offsets, self.sizes)
        )
        return f"{self.tensor}[{dims}]"


def full_slice(tensor: str, shape: Sequence[int]) -> SliceRef:
    """A slice covering an entire buffer."""
    return SliceRef(tensor, tuple(0 for _ in shape), tuple(shape))


class Stmt:
    """Base class for statements."""


@dataclass
class Seq(Stmt):
    """A sequence of statements executed in order."""

    body: List[Stmt] = field(default_factory=list)


@dataclass
class For(Stmt):
    """A counted loop ``for var in range(begin, end, step)``.

    ``parallel`` marks the loop as a parallel work-decomposition loop; the
    interpreter still runs it serially but the performance model charges one
    barrier synchronization per parallel loop nest execution.  ``merge_tag``
    is the coarse-grain-fusion hint: adjacent parallel loops carrying the
    same tag are merged by the loop-merge pass, as instructed by Graph IR.
    """

    var: str
    begin: Expr
    end: Expr
    step: Expr
    body: Stmt
    parallel: bool = False
    merge_tag: Optional[str] = None

    def __post_init__(self) -> None:
        self.begin = as_expr(self.begin)
        self.end = as_expr(self.end)
        self.step = as_expr(self.step)


@dataclass
class Assign(Stmt):
    """Scalar variable assignment, e.g. ``mpsi = mpi * MSN + msi``."""

    var: str
    value: Expr

    def __post_init__(self) -> None:
        self.value = as_expr(self.value)


@dataclass
class Alloc(Stmt):
    """Allocate a local temporary buffer.

    Buffer reuse optimization may later map several temporaries onto one
    arena region; ``arena_offset`` records the planned placement.
    """

    tensor: str
    dtype: Any  # DType; typed loosely to avoid a circular import
    shape: Tuple[Union[int, Expr], ...]
    thread_local: bool = False
    arena_offset: Optional[int] = None

    def __post_init__(self) -> None:
        self.shape = tuple(as_dim(s) for s in self.shape)

    @property
    def is_static(self) -> bool:
        """True when the buffer size is a compile-time constant."""
        return not any(isinstance(s, Expr) for s in self.shape)


@dataclass
class Free(Stmt):
    """Release a local temporary buffer (end of its live range)."""

    tensor: str


@dataclass
class Fill(Stmt):
    """Set every element of a slice to a constant value (e.g. zero C')."""

    dst: SliceRef
    value: float = 0.0


@dataclass
class Compute(Stmt):
    """Slice-level computation: ``dst = op(srcs...)``.

    ``op`` names an element-wise or reduction kernel from the op registry
    (relu, add, exp, reduce_max, ...).  Element-wise sources broadcast
    against each other numpy-style; reductions take ``axis``/``keepdims``
    and optionally ``accumulate`` (for split reductions) in ``attrs``.
    """

    op: str
    dst: SliceRef
    srcs: List[Union[SliceRef, float]]
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Copy(Stmt):
    """Copy ``src`` into ``dst`` (same element count; shapes may differ)."""

    dst: SliceRef
    src: SliceRef


@dataclass
class Pack(Stmt):
    """Reorder a plain 2-D region into blocked layout blocks.

    ``src`` addresses the plain tensor in element coordinates; ``dst``
    addresses the blocked tensor in block coordinates with trailing block
    dims.  With ``swap_inner`` the inner block is transposed (B-operand
    ``[NB, KB]`` layout); with ``outer_transposed`` the two outer block-count
    dims are swapped in the destination.  ``transpose_src`` packs the
    transposed source region, implementing fused ``transpose_a/b`` matmul
    attributes.  This implements the fused ``reorder`` pre-op of the paper's
    Figure 4.
    """

    dst: SliceRef
    src: SliceRef
    block_sizes: Tuple[int, int]
    swap_inner: bool = False
    outer_transposed: bool = False
    transpose_src: bool = False


@dataclass
class Unpack(Stmt):
    """Inverse of :class:`Pack`: blocked blocks back to a plain region."""

    dst: SliceRef
    src: SliceRef
    block_sizes: Tuple[int, int]
    swap_inner: bool = False


@dataclass
class BrgemmCall(Stmt):
    """Intrinsic call to the batch-reduce GEMM microkernel.

    Computes ``c += sum_b a[b] @ b[b].T`` over ``batch`` block pairs.  The
    pairs are stored folded in K: ``a`` squeezes to one ``[MB, BS*KB]``
    block and ``b`` to one ``[NB, BS*KB]`` block (length-1 dims dropped),
    so the kernel reads both as they are.  ``c`` has ``[MB, NB]`` and must
    be an accumulator in the fastest cache.
    """

    c: SliceRef
    a: SliceRef
    b: SliceRef
    batch: int
    initialize: bool = False  # True: c = ..., False: c += ...


@dataclass
class Call(Stmt):
    """Call another Tensor IR function with tensor arguments by name."""

    func: str
    args: List[str]


@dataclass
class Barrier(Stmt):
    """Explicit synchronization point between parallel phases."""

    note: str = ""
