"""Renaming / substitution utilities over Tensor IR.

Used by function inlining (coarse-grain loop merge) to map parameter names
to caller buffers and to uniquify local names, and by the shrink pass to
rebase slice offsets.
"""

from __future__ import annotations

from typing import Callable, Dict

from .expr import Binary, Const, Expr, Var
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
    Stmt,
    Unpack,
)


def substitute_expr(expr: Expr, var_map: Dict[str, Expr]) -> Expr:
    """Replace variables by expressions throughout an expression tree."""
    if isinstance(expr, Var):
        return var_map.get(expr.name, expr)
    if isinstance(expr, Binary):
        return Binary(
            expr.op,
            substitute_expr(expr.lhs, var_map),
            substitute_expr(expr.rhs, var_map),
        )
    return expr


def rename_vars(var: str, var_map: Dict[str, Expr]) -> str:
    """Rename an assignment/loop variable if the map sends it to a Var."""
    target = var_map.get(var)
    if isinstance(target, Var):
        return target.name
    if target is not None:
        raise ValueError(
            f"variable {var} is assigned but mapped to non-variable {target!r}"
        )
    return var


def _sub_slice(
    ref: SliceRef, var_map: Dict[str, Expr], tensor_map: Dict[str, str]
) -> SliceRef:
    return SliceRef(
        tensor=tensor_map.get(ref.tensor, ref.tensor),
        offsets=tuple(substitute_expr(o, var_map) for o in ref.offsets),
        sizes=ref.sizes,
    )


def rewrite_stmt(
    stmt: Stmt,
    var_map: Dict[str, Expr],
    tensor_map: Dict[str, str],
) -> Stmt:
    """Rebuild a statement tree with variables and buffer names remapped."""
    if isinstance(stmt, Seq):
        return Seq(
            body=[rewrite_stmt(s, var_map, tensor_map) for s in stmt.body]
        )
    if isinstance(stmt, For):
        return For(
            var=rename_vars(stmt.var, var_map),
            begin=substitute_expr(stmt.begin, var_map),
            end=substitute_expr(stmt.end, var_map),
            step=substitute_expr(stmt.step, var_map),
            body=rewrite_stmt(stmt.body, var_map, tensor_map),
            parallel=stmt.parallel,
            merge_tag=stmt.merge_tag,
        )
    if isinstance(stmt, Assign):
        return Assign(
            var=rename_vars(stmt.var, var_map),
            value=substitute_expr(stmt.value, var_map),
        )
    if isinstance(stmt, Alloc):
        return Alloc(
            tensor=tensor_map.get(stmt.tensor, stmt.tensor),
            dtype=stmt.dtype,
            shape=stmt.shape,
            thread_local=stmt.thread_local,
            arena_offset=stmt.arena_offset,
        )
    if isinstance(stmt, Free):
        return Free(tensor=tensor_map.get(stmt.tensor, stmt.tensor))
    if isinstance(stmt, Fill):
        return Fill(dst=_sub_slice(stmt.dst, var_map, tensor_map), value=stmt.value)
    if isinstance(stmt, Compute):
        return Compute(
            op=stmt.op,
            dst=_sub_slice(stmt.dst, var_map, tensor_map),
            srcs=[
                _sub_slice(s, var_map, tensor_map)
                if isinstance(s, SliceRef)
                else s
                for s in stmt.srcs
            ],
            attrs=dict(stmt.attrs),
        )
    if isinstance(stmt, Copy):
        return Copy(
            dst=_sub_slice(stmt.dst, var_map, tensor_map),
            src=_sub_slice(stmt.src, var_map, tensor_map),
        )
    if isinstance(stmt, Pack):
        return Pack(
            dst=_sub_slice(stmt.dst, var_map, tensor_map),
            src=_sub_slice(stmt.src, var_map, tensor_map),
            block_sizes=stmt.block_sizes,
            swap_inner=stmt.swap_inner,
            outer_transposed=stmt.outer_transposed,
            transpose_src=stmt.transpose_src,
        )
    if isinstance(stmt, Unpack):
        return Unpack(
            dst=_sub_slice(stmt.dst, var_map, tensor_map),
            src=_sub_slice(stmt.src, var_map, tensor_map),
            block_sizes=stmt.block_sizes,
            swap_inner=stmt.swap_inner,
        )
    if isinstance(stmt, BrgemmCall):
        return BrgemmCall(
            c=_sub_slice(stmt.c, var_map, tensor_map),
            a=_sub_slice(stmt.a, var_map, tensor_map),
            b=_sub_slice(stmt.b, var_map, tensor_map),
            batch=stmt.batch,
            initialize=stmt.initialize,
        )
    if isinstance(stmt, Call):
        return Call(
            func=stmt.func,
            args=[tensor_map.get(a, a) for a in stmt.args],
        )
    if isinstance(stmt, Barrier):
        return Barrier(note=stmt.note)
    raise TypeError(f"cannot rewrite statement {type(stmt).__name__}")


def collect_local_names(stmt: Stmt) -> set:
    """All loop vars, assigned vars and alloc'd buffer names under stmt."""
    names = set()
    if isinstance(stmt, Seq):
        for child in stmt.body:
            names |= collect_local_names(child)
    elif isinstance(stmt, For):
        names.add(stmt.var)
        names |= collect_local_names(stmt.body)
    elif isinstance(stmt, Assign):
        names.add(stmt.var)
    elif isinstance(stmt, Alloc):
        names.add(stmt.tensor)
    return names
