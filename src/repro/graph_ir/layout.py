"""Tensor memory layouts: plain (row-major) and blocked.

The paper's templates require operand tensors in a *blocked* layout so each
microkernel invocation reads contiguous blocks.  With ``KF = BS * KB`` (the
reduce batch folded into K, see :mod:`repro.microkernel.brgemm`):

* ``A[M, K]``  ->  ``A'[M/MB, K/KF, MB, KF]``
* ``B[K, N]``  ->  ``B'[K/KF, N/NB, NB, KF]``   (note the swapped inner dims)
* ``C[M, N]``  ->  ``C'[M/MB, N/NB, MB, NB]`` (``NB`` times the consuming
  matmul's BS when the output is that matmul's A)

A layout is described oneDNN-style by a permutation of the logical axes for
the outer dimensions plus an ordered list of ``(axis, block_size)`` inner
blocks.  A plain layout simply has no inner blocks.  Logical dimensions that
are not multiples of their total block size are zero-padded, mirroring the
paper's statement that "oneDNN Graph Compiler pads the input tensors".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from ..errors import LayoutError
from .symbolic import is_symbolic


@dataclass(frozen=True)
class BlockedLayout:
    """A (possibly blocked) memory layout for an ``ndims``-dimensional tensor.

    Attributes:
        ndims: Number of logical dimensions.
        outer_order: Permutation of ``range(ndims)`` giving the order of the
            outer (block-count) dimensions in physical memory.
        inner_blocks: Ordered ``(axis, block)`` pairs appended after the outer
            dimensions.  Multiple blocks on the same axis nest (the earlier
            entry is the coarser block), as in oneDNN tags like ``AB16b64a4b``.
    """

    ndims: int
    outer_order: Tuple[int, ...] = field(default=())
    inner_blocks: Tuple[Tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        order = self.outer_order or tuple(range(self.ndims))
        object.__setattr__(self, "outer_order", tuple(order))
        object.__setattr__(
            self, "inner_blocks", tuple((int(a), int(b)) for a, b in self.inner_blocks)
        )
        if sorted(self.outer_order) != list(range(self.ndims)):
            raise LayoutError(
                f"outer_order {self.outer_order} is not a permutation of "
                f"range({self.ndims})"
            )
        for axis, block in self.inner_blocks:
            if not 0 <= axis < self.ndims:
                raise LayoutError(f"inner block axis {axis} out of range")
            if block <= 0:
                raise LayoutError(f"inner block size {block} must be positive")

    @property
    def is_plain(self) -> bool:
        """True when the layout is the identity row-major layout."""
        return not self.inner_blocks and self.outer_order == tuple(range(self.ndims))

    @property
    def is_permuted_plain(self) -> bool:
        """True when the layout has no blocking (it may permute axes)."""
        return not self.inner_blocks

    def total_block(self, axis: int) -> int:
        """Product of all block sizes applied to one logical axis."""
        size = 1
        for a, b in self.inner_blocks:
            if a == axis:
                size *= b
        return size

    def padded_shape(self, shape: Sequence[int]) -> Tuple[int, ...]:
        """Logical shape rounded up so each axis divides its total block.

        Symbolic dims pass through unchanged: a dynamic axis may not be
        blocked (padding a runtime-bound dim at compile time is exactly
        the waste symbolic shapes eliminate), so its block is always 1.
        """
        self._check_rank(shape)
        return tuple(
            self._pad_dim(axis, dim) for axis, dim in enumerate(shape)
        )

    def _pad_dim(self, axis: int, dim):
        block = self.total_block(axis)
        if is_symbolic(dim):
            if block != 1:
                raise LayoutError(
                    f"symbolic dim {dim!r} on axis {axis} cannot be blocked "
                    f"(block size {block})"
                )
            return dim
        return int(math.ceil(dim / block)) * block

    def physical_shape(self, shape: Sequence[int]) -> Tuple[int, ...]:
        """Shape of the physical buffer holding a logical ``shape`` tensor."""
        self._check_rank(shape)
        padded = self.padded_shape(shape)
        # ``//`` on a SymDim would degrade it to its hint; an unblocked
        # axis (the only legal home for a symbolic dim) passes through.
        outer = [
            padded[axis]
            if self.total_block(axis) == 1
            else padded[axis] // self.total_block(axis)
            for axis in self.outer_order
        ]
        return tuple(outer) + tuple(b for _, b in self.inner_blocks)

    def num_elements(self, shape: Sequence[int]) -> int:
        """Number of stored elements, including padding."""
        result = 1
        for dim in self.physical_shape(shape):
            result *= dim
        return result

    def to_physical(self, array: np.ndarray) -> np.ndarray:
        """Reorder a logical (plain row-major) array into this layout.

        Pads with zeros when a dimension is not a multiple of its block.
        """
        self._check_rank(array.shape)
        padded_shape = self.padded_shape(array.shape)
        if padded_shape != array.shape:
            pad = [(0, p - s) for s, p in zip(array.shape, padded_shape)]
            array = np.pad(array, pad)
        # Split every axis into its chain of blocks: the expanded array has,
        # per logical axis, one count dim followed by its nested block dims.
        split_shape = []
        axis_positions = {}  # axis -> [position of count dim, block dims...]
        pos = 0
        for axis, dim in enumerate(array.shape):
            blocks = [b for a, b in self.inner_blocks if a == axis]
            count = dim
            for b in blocks:
                count //= b
            positions = [pos]
            split_shape.append(count)
            pos += 1
            for b in blocks:
                split_shape.append(b)
                positions.append(pos)
                pos += 1
            axis_positions[axis] = positions
        expanded = array.reshape(split_shape)
        # Assemble the transpose: outer count dims in outer_order, then the
        # inner block dims in declaration order (consuming each axis's block
        # dims from coarse to fine).
        perm = [axis_positions[axis][0] for axis in self.outer_order]
        next_block = {axis: 1 for axis in range(self.ndims)}
        for axis, _ in self.inner_blocks:
            perm.append(axis_positions[axis][next_block[axis]])
            next_block[axis] += 1
        return np.ascontiguousarray(expanded.transpose(perm))

    def from_physical(
        self, array: np.ndarray, shape: Sequence[int]
    ) -> np.ndarray:
        """Inverse of :meth:`to_physical`; crops any padding."""
        self._check_rank(shape)
        expected = self.physical_shape(shape)
        if tuple(array.shape) != expected:
            raise LayoutError(
                f"physical array shape {array.shape} does not match layout "
                f"physical shape {expected}"
            )
        # Invert the permutation built in to_physical.
        split_rank = self.ndims + len(self.inner_blocks)
        axis_positions = {}
        pos = 0
        for axis in range(self.ndims):
            nblocks = sum(1 for a, _ in self.inner_blocks if a == axis)
            axis_positions[axis] = list(range(pos, pos + 1 + nblocks))
            pos += 1 + nblocks
        perm = [axis_positions[axis][0] for axis in self.outer_order]
        next_block = {axis: 1 for axis in range(self.ndims)}
        for axis, _ in self.inner_blocks:
            perm.append(axis_positions[axis][next_block[axis]])
            next_block[axis] += 1
        inverse = [0] * split_rank
        for i, p in enumerate(perm):
            inverse[p] = i
        padded = self.padded_shape(shape)
        expanded = array.transpose(inverse).reshape(padded)
        crop = tuple(slice(0, s) for s in shape)
        return np.ascontiguousarray(expanded[crop])

    def tag(self) -> str:
        """oneDNN-style layout tag, e.g. ``AB32a64b`` for a blocked matrix."""
        letters = "abcdefghij"
        outer = "".join(letters[a].upper() for a in self.outer_order)
        inner = "".join(f"{b}{letters[a]}" for a, b in self.inner_blocks)
        return outer + inner

    def _check_rank(self, shape: Sequence[int]) -> None:
        if len(shape) != self.ndims:
            raise LayoutError(
                f"layout has {self.ndims} dims but shape {tuple(shape)} has "
                f"{len(shape)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockedLayout({self.tag()})"


def plain(ndims: int) -> BlockedLayout:
    """The identity row-major layout for an ``ndims``-dimensional tensor."""
    return BlockedLayout(ndims=ndims)


def blocked_2d(
    rows_block: int,
    cols_block: int,
    ndims: int = 2,
    swap_inner: bool = False,
) -> BlockedLayout:
    """Blocked layout for the trailing two dims of an ``ndims`` tensor.

    With ``swap_inner=False`` this produces the A/C operand layout
    ``[.., R/RB, C/CB, RB, CB]``; with ``swap_inner=True`` the B operand
    layout ``[.., R/RB, C/CB, CB, RB]`` (inner dims swapped so the microkernel
    reads ``[NB, KB]`` blocks contiguously).
    """
    if ndims < 2:
        raise LayoutError("blocked_2d requires at least 2 dims")
    row_axis, col_axis = ndims - 2, ndims - 1
    if swap_inner:
        inner = ((col_axis, cols_block), (row_axis, rows_block))
    else:
        inner = ((row_axis, rows_block), (col_axis, cols_block))
    return BlockedLayout(ndims=ndims, inner_blocks=inner)
