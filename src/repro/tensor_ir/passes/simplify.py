"""Expression simplification: constant-fold every index expression."""

from __future__ import annotations

from ..expr import fold
from ..module import TirModule
from ..substitute import rewrite_stmt
from ..stmt import Seq


class SimplifyPass:
    """Folds constants and algebraic identities in all functions."""

    name = "simplify"

    def run(self, module: TirModule) -> TirModule:
        for func in module.functions.values():
            func.body = _fold_stmt(func.body)
        return module


def _fold_stmt(stmt):
    from ..stmt import (
        Assign,
        BrgemmCall,
        Compute,
        Copy,
        Fill,
        For,
        Pack,
        SliceRef,
        Unpack,
    )

    if isinstance(stmt, Seq):
        return Seq(body=[_fold_stmt(s) for s in stmt.body])
    if isinstance(stmt, For):
        return For(
            var=stmt.var,
            begin=fold(stmt.begin),
            end=fold(stmt.end),
            step=fold(stmt.step),
            body=_fold_stmt(stmt.body),
            parallel=stmt.parallel,
            merge_tag=stmt.merge_tag,
        )
    if isinstance(stmt, Assign):
        return Assign(var=stmt.var, value=fold(stmt.value))

    def fold_slice(ref: SliceRef) -> SliceRef:
        return SliceRef(
            tensor=ref.tensor,
            offsets=tuple(fold(o) for o in ref.offsets),
            sizes=ref.sizes,
        )

    if isinstance(stmt, Fill):
        return Fill(dst=fold_slice(stmt.dst), value=stmt.value)
    if isinstance(stmt, Compute):
        return Compute(
            op=stmt.op,
            dst=fold_slice(stmt.dst),
            srcs=[
                fold_slice(s) if isinstance(s, SliceRef) else s
                for s in stmt.srcs
            ],
            attrs=stmt.attrs,
        )
    if isinstance(stmt, Copy):
        return Copy(dst=fold_slice(stmt.dst), src=fold_slice(stmt.src))
    if isinstance(stmt, Pack):
        return Pack(
            dst=fold_slice(stmt.dst),
            src=fold_slice(stmt.src),
            block_sizes=stmt.block_sizes,
            swap_inner=stmt.swap_inner,
            outer_transposed=stmt.outer_transposed,
            transpose_src=stmt.transpose_src,
        )
    if isinstance(stmt, Unpack):
        return Unpack(
            dst=fold_slice(stmt.dst),
            src=fold_slice(stmt.src),
            block_sizes=stmt.block_sizes,
            swap_inner=stmt.swap_inner,
        )
    if isinstance(stmt, BrgemmCall):
        return BrgemmCall(
            c=fold_slice(stmt.c),
            a=fold_slice(stmt.a),
            b=fold_slice(stmt.b),
            batch=stmt.batch,
            initialize=stmt.initialize,
        )
    return stmt
