"""Structured builder for Tensor IR function bodies.

Loops are context managers so lowering code reads like the generated nest::

    b = TirBuilder("fused_matmul")
    a = b.param("A", DType.f32, (4, 8, 64, 64))
    with b.parallel_for("mpi", MPN) as mpi:
        with b.for_("msi", MSN) as msi:
            mpsi = b.let("mpsi", mpi * MSN + msi)
            ...
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..dtypes import DType
from ..errors import TensorIRError
from .expr import Const, Expr, ExprLike, Var, as_expr
from .function import TensorDecl, TirFunction
from .stmt import (
    Alloc,
    Assign,
    Barrier,
    BrgemmCall,
    Call,
    Compute,
    Copy,
    Fill,
    For,
    Free,
    Pack,
    Seq,
    SliceRef,
    Unpack,
)


class TirBuilder:
    """Builds one :class:`TirFunction` with structured control flow."""

    def __init__(self, name: str) -> None:
        self.func = TirFunction(name=name)
        self._stack: List[Seq] = [self.func.body]
        self._names: set = set()

    # -- declarations ---------------------------------------------------------

    def param(
        self, name: str, dtype: DType, shape: Sequence[int]
    ) -> TensorDecl:
        decl = TensorDecl(name=name, dtype=dtype, shape=tuple(shape))
        self.func.params.append(decl)
        self._names.add(name)
        return decl

    def alloc(
        self,
        name: str,
        dtype: DType,
        shape: Sequence[int],
        thread_local: bool = False,
    ) -> str:
        """Emit an Alloc; returns the buffer name for slice construction."""
        name = self.fresh(name)
        self.emit(
            Alloc(
                tensor=name,
                dtype=dtype,
                shape=tuple(shape),
                thread_local=thread_local,
            )
        )
        return name

    def free(self, name: str) -> None:
        self.emit(Free(tensor=name))

    def fresh(self, base: str) -> str:
        """A name not yet used in this function."""
        if base not in self._names:
            self._names.add(base)
            return base
        i = 1
        while f"{base}_{i}" in self._names:
            i += 1
        name = f"{base}_{i}"
        self._names.add(name)
        return name

    # -- statements -------------------------------------------------------------

    def emit(self, stmt) -> None:
        self._stack[-1].body.append(stmt)

    def let(self, name: str, value: ExprLike) -> Var:
        name = self.fresh(name)
        self.emit(Assign(var=name, value=as_expr(value)))
        return Var(name)

    def fill(self, dst: SliceRef, value: float = 0.0) -> None:
        self.emit(Fill(dst=dst, value=value))

    def compute(
        self,
        op: str,
        dst: SliceRef,
        srcs: Sequence[Union[SliceRef, float]],
        attrs: Optional[dict] = None,
    ) -> None:
        self.emit(Compute(op=op, dst=dst, srcs=list(srcs), attrs=dict(attrs or {})))

    def copy(self, dst: SliceRef, src: SliceRef) -> None:
        self.emit(Copy(dst=dst, src=src))

    def pack(
        self,
        dst: SliceRef,
        src: SliceRef,
        block_sizes: Tuple[int, int],
        swap_inner: bool = False,
        outer_transposed: bool = False,
        transpose_src: bool = False,
    ) -> None:
        self.emit(
            Pack(
                dst=dst,
                src=src,
                block_sizes=block_sizes,
                swap_inner=swap_inner,
                outer_transposed=outer_transposed,
                transpose_src=transpose_src,
            )
        )

    def unpack(
        self,
        dst: SliceRef,
        src: SliceRef,
        block_sizes: Tuple[int, int],
        swap_inner: bool = False,
    ) -> None:
        self.emit(
            Unpack(dst=dst, src=src, block_sizes=block_sizes, swap_inner=swap_inner)
        )

    def brgemm(
        self,
        c: SliceRef,
        a: SliceRef,
        b: SliceRef,
        batch: int,
        initialize: bool = False,
    ) -> None:
        self.emit(
            BrgemmCall(
                c=c,
                a=a,
                b=b,
                batch=batch,
                initialize=initialize,
            )
        )

    def call(self, func: str, args: Sequence[str]) -> None:
        self.emit(Call(func=func, args=list(args)))

    def barrier(self, note: str = "") -> None:
        self.emit(Barrier(note=note))

    # -- loops ---------------------------------------------------------------------

    @contextlib.contextmanager
    def for_(
        self,
        var: str,
        end: ExprLike,
        begin: ExprLike = 0,
        step: ExprLike = 1,
        parallel: bool = False,
        merge_tag: Optional[str] = None,
    ) -> Iterator[Var]:
        """Open a loop scope; yields the loop variable."""
        var = self.fresh(var)
        body = Seq()
        self._stack.append(body)
        try:
            yield Var(var)
        finally:
            self._stack.pop()
        self.emit(
            For(
                var=var,
                begin=as_expr(begin),
                end=as_expr(end),
                step=as_expr(step),
                body=body,
                parallel=parallel,
                merge_tag=merge_tag,
            )
        )

    def parallel_for(
        self,
        var: str,
        end: ExprLike,
        merge_tag: Optional[str] = None,
    ):
        return self.for_(var, end, parallel=True, merge_tag=merge_tag)

    # -- finish -------------------------------------------------------------------

    def finish(self) -> TirFunction:
        if len(self._stack) != 1:
            raise TensorIRError("unbalanced loop scopes in builder")
        return self.func
