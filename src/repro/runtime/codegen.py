"""Whole-partition Python codegen executor: one flat code object per function.

The interpreter (:mod:`repro.runtime.interpreter`) re-walks the statement
tree on every call: per-statement ``isinstance`` dispatch, per-slice
``evaluate()`` of offset expressions, a dict lookup per tensor/scalar
access.  That is the right shape for a *reference* backend, but the
paper's premise is that compilation cost is paid once and steady-state
execution is as fast as the hardware allows.  This module is the
optimising backend: each :class:`~repro.tensor_ir.function.TirFunction`
is **compiled to Python source** and ``exec``-ed into a single flat
function —

* loops become literal ``for var in range(...)`` with constant-folded
  bounds (dynamic bounds become inline expressions over local variables);
* slice references become inline subscripts — fully-static multi-dim
  slices index through prebound constant tuples in the globals, dynamic
  offsets are bounds-checked inline against the statically-known buffer
  extents, and constant offsets are validated at build time;
* scalar expressions fold into source text over local variables — no
  environment dicts anywhere: tensors and scalars are locals of the
  generated function;
* ufuncs, op references, brgemm helpers and pack geometry are resolved at
  build time into the generated function's globals;
* ``Call`` statements bind to the sibling generated function;
* ``Alloc`` sites lower to pre-planned pooled-buffer fetches (per-site
  :class:`_AllocSite` free-lists) or arena views;
* parallel loops emit a chunk function per loop site, submitted to the
  partition's persistent pool with per-worker thread-local buffer slots.

Generated source is deterministic for a given function and is registered
with :mod:`linecache` under a synthetic file name, so tracebacks through
generated code show the real emitted lines.  Set ``REPRO_DUMP_CODEGEN`` to
a directory (or use ``tools/dump.py --emit-codegen``) to write the sources
to disk.

Execution semantics are bit-identical to the interpreter — the
differential tests in ``tests/runtime/`` assert outputs, error messages
and :class:`ExecutionStats` all match.
"""

from __future__ import annotations

import hashlib
import linecache
import os
import re
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError, TensorIRError
from ..graph_ir.op_registry import OP_REGISTRY
from ..microkernel.brgemm import brgemm_partial
from ..observability import get_tracer
from ..tensor_ir.expr import Binary, BinaryOp, Const, Expr, Var, fold
from ..tensor_ir.function import TirFunction
from ..tensor_ir.module import TirModule
from ..tensor_ir.stmt import (
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
from .dynamic import bind_shapes, run_pack, run_unpack
from .interpreter import ExecutionStats, brgemm_cost_attrs

#: (ExecutionStats attribute, generated local tally) pairs: pure-sum
#: counters are accumulated in locals and flushed once per function call
#: instead of paying an attribute store per statement.  ``note_alloc`` /
#: ``note_free`` stay immediate — peak tracking is order-sensitive.
_COUNTERS = {
    "brgemm_calls": "_nbr",
    "compute_stmts": "_nco",
    "pack_stmts": "_npk",
    "barriers": "_nba",
    "parallel_loops": "_npl",
    "function_calls": "_nfc",
}


#: Buffers at most this large are recycled through per-Alloc free-lists;
#: larger ones go back to the allocator (``np.zeros`` is calloc-backed and
#: effectively free for big blocks, while small-buffer churn is not).
_POOL_MAX_BYTES = 1 << 20
#: Free-list depth cap per Alloc site / parallel-loop slot pool.
_POOL_DEPTH = 32

_BIN_FMT = {
    BinaryOp.ADD: "({} + {})",
    BinaryOp.SUB: "({} - {})",
    BinaryOp.MUL: "({} * {})",
    BinaryOp.FLOORDIV: "({} // {})",
    BinaryOp.MOD: "({} % {})",
    BinaryOp.MIN: "min({}, {})",
    BinaryOp.MAX: "max({}, {})",
}


class _SpecializationError(Exception):
    """A statement whose static validation failed; raised at *call* time.

    Build never fails for IR the interpreter would reject at execution:
    the offending statement compiles to code that raises the same error
    when (and only when) it is actually executed.
    """

    def __init__(self, exc_type, message):
        super().__init__(message)
        self.exc_type = exc_type


def _static_squeeze(
    sizes: Tuple[int, ...], ndim: int, what: str
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Axes to drop (and resulting shape) squeezing ``sizes`` to ``ndim``.

    Mirrors ``Interpreter._squeeze_to`` on the statically-known slice
    shape: leftmost length-1 dims first.
    """
    shape = list(sizes)
    index = list(range(len(sizes)))
    axes: List[int] = []
    while len(shape) > ndim:
        for pos, extent in enumerate(shape):
            if extent == 1:
                axes.append(index[pos])
                del shape[pos]
                del index[pos]
                break
        else:
            raise _SpecializationError(
                ExecutionError,
                f"{what} has shape {tuple(sizes)}; cannot squeeze to "
                f"{ndim} dims",
            )
    if len(shape) != ndim:
        raise _SpecializationError(
            ExecutionError,
            f"{what} has shape {tuple(sizes)}; expected {ndim} dims",
        )
    return tuple(axes), tuple(shape)


def _slice_oob(ref_repr: str, off: int, size: int, extent: int) -> None:
    raise ExecutionError(
        f"slice {ref_repr} out of bounds: [{off}, {off + size}) "
        f"not within [0, {extent})"
    )


class _AllocSite:
    """Build-time record of one Alloc statement, with its buffer pool."""

    __slots__ = (
        "name",
        "shape",
        "np_dtype",
        "nbytes",
        "arena_offset",
        "free_list",
        "poolable",
    )

    def __init__(self, stmt: Alloc) -> None:
        self.name = stmt.tensor
        self.shape = stmt.shape
        self.np_dtype = stmt.dtype.to_numpy()
        count = 1
        for s in stmt.shape:
            count *= s
        self.nbytes = count * self.np_dtype.itemsize
        self.arena_offset = stmt.arena_offset
        self.free_list: List[np.ndarray] = []
        self.poolable = (
            stmt.arena_offset is None and self.nbytes <= _POOL_MAX_BYTES
        )

    def take(self) -> np.ndarray:
        """A zeroed buffer: recycled from the free-list or freshly made."""
        try:
            buf = self.free_list.pop()  # list ops are GIL-atomic
        except IndexError:
            return np.zeros(self.shape, dtype=self.np_dtype)
        buf.fill(0)
        return buf


def _sanitize(name: str) -> str:
    """A deterministic identifier fragment for an IR name."""
    out = re.sub(r"[^0-9A-Za-z_]", "_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


class _RunCtx:
    """Per-call execution state passed to generated functions.

    There are no tensor/scalar dicts — buffers and scalars are locals of
    the generated code.
    """

    __slots__ = (
        "stats",
        "pool",
        "workers",
        "in_parallel",
        "tracer",
        "arena",
        "machine",
    )

    def __init__(self) -> None:
        self.stats = ExecutionStats()
        self.pool = None
        self.workers = 1
        self.in_parallel = False
        self.tracer = None
        self.arena: Optional[np.ndarray] = None
        self.machine = None


def _fork_ctx(parent: _RunCtx) -> _RunCtx:
    """A parallel chunk's context: fresh stats, ``in_parallel`` set."""
    child = _RunCtx()
    child.pool = parent.pool
    child.workers = parent.workers
    child.in_parallel = True
    child.tracer = parent.tracer
    child.arena = parent.arena
    child.machine = parent.machine
    return child


class _NullSpan:
    """Stand-in context manager when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def _lead_squeeze(result: np.ndarray, ndim: int) -> np.ndarray:
    """Drop leading all-length-1 dims down to ``ndim`` (else unchanged)."""
    lead = result.ndim - ndim
    if all(d == 1 for d in result.shape[:lead]):
        return result.reshape(result.shape[lead:])
    return result


class _FunctionEmitter:
    """Emits the Python source (and globals env) for one TirFunction."""

    def __init__(self, executor: "CodegenExecutor", func: TirFunction) -> None:
        self.executor = executor
        self.module = executor.module
        self.func = func
        self.shapes: Dict[str, Tuple[int, ...]] = {
            p.name: tuple(p.shape) for p in func.params
        }
        self.dtypes: Dict[str, np.dtype] = {
            p.name: p.dtype.to_numpy() for p in func.params
        }
        for name, alloc in func.local_decls().items():
            self.shapes[name] = tuple(alloc.shape)
            self.dtypes[name] = alloc.dtype.to_numpy()
        #: Alloc emission records: name -> (site, region, loop depth).
        self.alloc_sites: Dict[str, Tuple[_AllocSite, int, int]] = {}
        #: Thread-local allocs live at the current emission point.
        self.tl_live: Dict[str, _AllocSite] = {}
        #: Buffers currently bound as locals (params + live allocs).
        self.buffer_scope: Dict[str, str] = {}
        #: Scalars currently bound as locals (loop vars + assigns).
        self.scalar_scope: Dict[str, str] = {}
        self._buffer_idents: Dict[str, str] = {}
        self._scalar_idents: Dict[str, str] = {}
        self._used: set = set()
        #: Callee name -> env ident; the executor links these post-exec.
        self.callees: Dict[str, str] = {}
        self.env: Dict[str, object] = {
            "np": np,
            "_ExecutionError": ExecutionError,
            "_TensorIRError": TensorIRError,
            "_oob": _slice_oob,
            "_NULL": _NULL_SPAN,
            "_fork": _fork_ctx,
            "_lead_squeeze": _lead_squeeze,
            "_asarray": np.asarray,
            "_zeros": np.zeros,
            "_empty": np.empty,
            "_squeeze": np.squeeze,
            "_add": np.add,
            "_maximum": np.maximum,
            "_broadcast_to": np.broadcast_to,
            "_brgemm_partial": brgemm_partial,
            "_rpack": run_pack,
            "_runpack": run_unpack,
            "_pc": time.perf_counter,
            "_bca": brgemm_cost_attrs,
        }
        self._n = 0
        #: Code region ids: 0 is the main function body; each parallel
        #: chunk function gets its own.  Alloc/Free pairing (pool recycle
        #: + note_free) is only emitted when both ends share a region and
        #: loop depth — mirroring ``_Frame.fork``/child-ctx semantics.
        self.region = 0
        self._next_region = 1
        self.depth = 0
        self.entry_ident = "_codegen_" + _sanitize(func.name)
        self._buf: List[str] = []
        self._indent = 0
        self._tail: List[List[str]] = []
        #: Stats attrs tallied in the current function frame's locals.
        self._counters: set = set()

    # -- emission plumbing -----------------------------------------------------

    def emit(self, line: str) -> None:
        self._buf.append("    " * self._indent + line)

    def temp(self, prefix: str) -> str:
        self._n += 1
        return f"_{prefix}{self._n}"

    def bind(self, prefix: str, value: object) -> str:
        """Register a build-time constant in the function's globals."""
        name = self.temp(prefix)
        self.env[name] = value
        return name

    def count(self, attr: str) -> None:
        """Tally a pure-sum stats counter in a function-frame local."""
        self._counters.add(attr)
        self.emit(f"{_COUNTERS[attr]} += 1")

    def counter_init_line(self) -> Optional[str]:
        if not self._counters:
            return None
        names = [_COUNTERS[a] for a in _COUNTERS if a in self._counters]
        return " = ".join(names) + " = 0"

    def emit_counter_flush(self) -> None:
        for attr in _COUNTERS:
            if attr in self._counters:
                self.emit(f"_stats.{attr} += {_COUNTERS[attr]}")

    def _ident(self, prefix: str, name: str, table: Dict[str, str]) -> str:
        ident = table.get(name)
        if ident is None:
            base = prefix + _sanitize(name)
            ident = base
            k = 2
            while ident in self._used:
                ident = f"{base}_{k}"
                k += 1
            self._used.add(ident)
            table[name] = ident
        return ident

    def buffer_ident(self, name: str) -> str:
        return self._ident("t_", name, self._buffer_idents)

    def scalar_ident(self, name: str) -> str:
        return self._ident("s_", name, self._scalar_idents)

    def callee_ident(self, name: str) -> str:
        return self._ident("_fn_", name, self.callees)

    def _snapshot(self):
        return (
            dict(self.alloc_sites),
            dict(self.tl_live),
            dict(self.buffer_scope),
            dict(self.scalar_scope),
        )

    def _restore(self, state) -> None:
        sites, tl, bufs, scals = state
        self.alloc_sites = dict(sites)
        self.tl_live = dict(tl)
        self.buffer_scope = dict(bufs)
        self.scalar_scope = dict(scals)

    # -- scalar expressions ----------------------------------------------------

    def expr_src(self, expr: Expr) -> str:
        """Python source of a (folded) scalar expression over locals."""
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, Var):
            return self.scalar_ident(expr.name)
        if isinstance(expr, Binary):
            return _BIN_FMT[expr.op].format(
                self.expr_src(expr.lhs), self.expr_src(expr.rhs)
            )
        raise TensorIRError(f"cannot compile expression {expr!r}")

    # -- slices ----------------------------------------------------------------

    def _slice_extents(self, ref: SliceRef) -> Tuple[int, ...]:
        extents = self.shapes.get(ref.tensor)
        if extents is None:
            raise _SpecializationError(
                ExecutionError, f"unknown tensor {ref.tensor!r} in slice"
            )
        if len(ref.offsets) != len(extents):
            raise _SpecializationError(
                ExecutionError,
                f"slice {ref!r} has {len(ref.offsets)} dims, tensor "
                f"{ref.tensor} has {len(extents)}",
            )
        return extents

    def validate_slice(self, ref: SliceRef) -> None:
        """Static checks only — no runtime lines (reduction extra srcs)."""
        extents = self._slice_extents(ref)
        for off_expr, size, extent in zip(ref.offsets, ref.sizes, extents):
            if isinstance(size, Expr) or isinstance(extent, Expr):
                continue  # runtime-extent axis: checked by emitted code
            folded = fold(off_expr)
            if isinstance(folded, Const):
                const = folded.value
                if const < 0 or const + size > extent:
                    raise _SpecializationError(
                        ExecutionError,
                        f"slice {ref!r} out of bounds: "
                        f"[{const}, {const + size}) not within "
                        f"[0, {extent})",
                    )

    def emit_slice(
        self, ref: SliceRef, squeeze_axes: Tuple[int, ...] = ()
    ) -> str:
        """Emit bounds checks for a SliceRef; return its view expression.

        ``squeeze_axes`` (statically length-1 dims, as computed by
        ``_static_squeeze``) are folded into integer subscripts, so the
        view needs no separate ``.squeeze()`` call.
        """
        extents = self._slice_extents(ref)
        base = self.buffer_ident(ref.tensor)
        parts: List[str] = []
        consts: List[object] = []
        dims = zip(ref.offsets, ref.sizes, extents)
        for axis, (off_expr, size, extent) in enumerate(dims):
            folded = fold(off_expr)
            if isinstance(size, Expr) or isinstance(extent, Expr):
                # Runtime-extent axis: offset, size and bound all resolve
                # to locals; bounds-check inline against the live shape.
                off_src = (
                    repr(folded.value)
                    if isinstance(folded, Const)
                    else self.expr_src(folded)
                )
                size_src = (
                    self.expr_src(fold(size))
                    if isinstance(size, Expr)
                    else repr(int(size))
                )
                extent_src = (
                    f"{base}.shape[{axis}]"
                    if isinstance(extent, Expr)
                    else repr(int(extent))
                )
                o = self.temp("o")
                z = self.temp("z")
                self.emit(f"{o} = {off_src}")
                self.emit(f"{z} = {size_src}")
                self.emit(f"if {o} < 0 or {o} + {z} > {extent_src}:")
                self.emit(
                    f"    _oob({repr(ref)!r}, {o}, {z}, {extent_src})"
                )
                parts.append(
                    o if axis in squeeze_axes else f"{o}:{o} + {z}"
                )
                continue
            if isinstance(folded, Const):
                const = folded.value
                if const < 0 or const + size > extent:
                    raise _SpecializationError(
                        ExecutionError,
                        f"slice {ref!r} out of bounds: "
                        f"[{const}, {const + size}) not within "
                        f"[0, {extent})",
                    )
                if axis in squeeze_axes:
                    parts.append(repr(const))
                    consts.append(const)
                else:
                    parts.append(f"{const}:{const + size}")
                    consts.append(slice(const, const + size))
            else:
                src = self.expr_src(folded)
                o = self.temp("o")
                self.emit(f"{o} = {src}")
                self.emit(f"if {o} < 0 or {o} + {size} > {extent}:")
                self.emit(
                    f"    _oob({repr(ref)!r}, {o}, {size}, {extent})"
                )
                parts.append(
                    o if axis in squeeze_axes else f"{o}:{o} + {size}"
                )
        if not parts:
            return f"{base}[()]"
        if len(consts) == len(parts) > 1:
            # Fully-static multi-dim subscripts index through a prebound
            # constant tuple: no per-use slice-object construction.
            return f"{base}[{self.bind('ix', tuple(consts))}]"
        return f"{base}[{', '.join(parts)}]"

    # -- statements ------------------------------------------------------------

    def emit_block(self, stmt: Stmt) -> None:
        if isinstance(stmt, Seq):
            for child in stmt.body:
                self.emit_block(child)
        else:
            self.emit_stmt(stmt)

    def emit_body(self, stmt: Stmt) -> None:
        """Emit a block, guaranteeing at least one line (``pass``)."""
        mark = len(self._buf)
        self.emit_block(stmt)
        if len(self._buf) == mark:
            self.emit("pass")

    def emit_stmt(self, stmt: Stmt) -> None:
        mark = len(self._buf)
        indent = self._indent
        try:
            if isinstance(stmt, For):
                self._emit_for(stmt)
            elif isinstance(stmt, Assign):
                self._emit_assign(stmt)
            elif isinstance(stmt, Alloc):
                self._emit_alloc(stmt)
            elif isinstance(stmt, Free):
                self._emit_free(stmt)
            elif isinstance(stmt, Fill):
                self._emit_fill(stmt)
            elif isinstance(stmt, Compute):
                self._emit_compute(stmt)
            elif isinstance(stmt, Copy):
                self._emit_copy(stmt)
            elif isinstance(stmt, Pack):
                self._emit_pack(stmt)
            elif isinstance(stmt, Unpack):
                self._emit_unpack(stmt)
            elif isinstance(stmt, BrgemmCall):
                self._emit_brgemm(stmt)
            elif isinstance(stmt, Call):
                self._emit_call(stmt)
            elif isinstance(stmt, Barrier):
                self.count("barriers")
            else:
                self.emit(
                    f"raise _TensorIRError("
                    f"{f'unknown statement {type(stmt).__name__}'!r})"
                )
        except _SpecializationError as exc:
            # Build never fails for IR the interpreter would reject at
            # execution: the statement becomes a raise with the exact
            # message, hit when (and only when) it would have executed.
            del self._buf[mark:]
            self._indent = indent
            cls = (
                "_TensorIRError"
                if exc.exc_type is TensorIRError
                else "_ExecutionError"
            )
            self.emit(f"raise {cls}({str(exc)!r})")

    def _emit_assign(self, stmt: Assign) -> None:
        src = self.expr_src(fold(stmt.value))
        ident = self.scalar_ident(stmt.var)
        self.scalar_scope[stmt.var] = ident
        self.emit(f"{ident} = {src}")

    def _emit_alloc(self, stmt: Alloc) -> None:
        if not stmt.is_static:
            self._emit_dynamic_alloc(stmt)
            return
        site = _AllocSite(stmt)
        self.alloc_sites[stmt.tensor] = (site, self.region, self.depth)
        if stmt.thread_local:
            self.tl_live[stmt.tensor] = site
        ident = self.buffer_ident(stmt.tensor)
        self.buffer_scope[stmt.tensor] = ident
        is_arena = site.arena_offset is not None
        if is_arena:
            offset = site.arena_offset
            end = offset + site.nbytes
            dt = self.bind("dt", site.np_dtype)
            msg = (
                f"arena overflow allocating {site.name}: needs "
                f"{end} bytes, arena has "
            )
            self.emit("if _ctx.arena is None:")
            self.emit(f"    {ident} = _zeros({site.shape!r}, {dt})")
            self.emit("else:")
            self.emit("    _ab = _ctx.arena.nbytes")
            self.emit(f"    if {end} > _ab:")
            self.emit(
                f"        raise _ExecutionError({msg!r} + str(_ab))"
            )
            self.emit(
                f"    {ident} = _ctx.arena[{offset}:{end}]"
                f".view({dt}).reshape({site.shape!r})"
            )
        elif site.poolable:
            s = self.bind("site", site)
            self.emit(f"{ident} = {s}.take()")
        else:
            dt = self.bind("dt", site.np_dtype)
            self.emit(f"{ident} = _zeros({site.shape!r}, {dt})")
        self.emit(f"_stats.note_alloc({site.nbytes})")
        self.emit("if _tr is not None:")
        self.emit(
            f"    _tr.instant({'alloc:' + site.name!r}, "
            f"category='runtime', nbytes={site.nbytes}, arena={is_arena})"
        )

    def _emit_dynamic_alloc(self, stmt: Alloc) -> None:
        """Alloc with runtime extents (symbolic batch): sized per call.

        Never pooled or arena-placed — the buffer-reuse pass skips
        non-static allocs, and a free-list keyed on a varying shape would
        thrash.  Thread-local runtime-sized scratch is unsupported (the
        shrink pass reduces dynamic scratch to static slots first).
        """
        if stmt.thread_local:
            raise _SpecializationError(
                TensorIRError,
                f"thread-local buffer {stmt.tensor!r} has a runtime-sized "
                f"shape {stmt.shape!r}",
            )
        # ``None`` site: _emit_free recognizes a runtime-sized buffer and
        # notes the live nbytes instead of a precomputed constant.
        self.alloc_sites[stmt.tensor] = (None, self.region, self.depth)
        ident = self.buffer_ident(stmt.tensor)
        self.buffer_scope[stmt.tensor] = ident
        dt = self.bind("dt", stmt.dtype.to_numpy())
        dim_srcs = [
            self.expr_src(fold(s)) if isinstance(s, Expr) else repr(int(s))
            for s in stmt.shape
        ]
        shape_src = "(" + ", ".join(dim_srcs) + (
            ",)" if len(dim_srcs) == 1 else ")"
        )
        self.emit(f"{ident} = _zeros({shape_src}, {dt})")
        self.emit(f"_stats.note_alloc({ident}.nbytes)")
        self.emit("if _tr is not None:")
        self.emit(
            f"    _tr.instant({'alloc:' + stmt.tensor!r}, "
            f"category='runtime', nbytes={ident}.nbytes, arena=False)"
        )

    def _emit_free(self, stmt: Free) -> None:
        record = self.alloc_sites.get(stmt.tensor)
        self.tl_live.pop(stmt.tensor, None)
        ident = self.buffer_scope.pop(stmt.tensor, None)
        if record is None or ident is None:
            return  # freeing a never-allocated name is a no-op
        site, region, depth = record
        if region != self.region or depth != self.depth:
            # Inherited from an enclosing code region: only the frame
            # that allocated a buffer may free/recycle it (parallel
            # chunks inherit the tensor but not the allocation).
            return
        if site is None:  # runtime-sized: nbytes only known live
            self.emit(f"_stats.note_free({ident}.nbytes)")
            return
        self.emit(f"_stats.note_free({site.nbytes})")
        if site.poolable:
            fl = self.bind("fl", site.free_list)
            self.emit(f"if len({fl}) < {_POOL_DEPTH}:")
            self.emit(f"    {fl}.append({ident})")

    def _emit_fill(self, stmt: Fill) -> None:
        view = self.emit_slice(stmt.dst)
        self.emit(f"{view} = {stmt.value!r}")

    def _emit_copy(self, stmt: Copy) -> None:
        if not (stmt.dst.is_static and stmt.src.is_static):
            # Runtime extents: validate and reshape against the resolved
            # views, exactly as the other backends do.
            dst = self.emit_slice(stmt.dst)
            src = self.emit_slice(stmt.src)
            self.emit(f"_d = {dst}")
            self.emit(f"_s = {src}")
            self.emit("if _d.size != _s.size:")
            self.emit(
                "    raise _ExecutionError('copy size mismatch: ' + "
                "str(_d.shape) + ' <- ' + str(_s.shape))"
            )
            self.emit("_d[...] = _s.reshape(_d.shape)")
            return
        if stmt.dst.num_elements != stmt.src.num_elements:
            raise _SpecializationError(
                ExecutionError,
                f"copy size mismatch: {tuple(stmt.dst.sizes)} <- "
                f"{tuple(stmt.src.sizes)}",
            )
        dst = self.emit_slice(stmt.dst)
        src = self.emit_slice(stmt.src)
        self.emit(f"{dst} = {src}.reshape({tuple(stmt.dst.sizes)!r})")

    def _emit_compute(self, stmt: Compute) -> None:
        schema = OP_REGISTRY.get(stmt.op)
        if schema is None:
            raise _SpecializationError(
                TensorIRError,
                f"compute references unknown op {stmt.op!r}",
            )
        dst_ndim = len(stmt.dst.sizes)
        dst_static = stmt.dst.is_static
        attrs = {k: v for k, v in stmt.attrs.items() if k != "accumulate"}
        # Static validation in a fixed order (dst slice, accumulate
        # mode, then each source), so the same broken IR always produces
        # the same first error message.
        self.validate_slice(stmt.dst)
        acc_op = stmt.attrs.get("accumulate")
        if acc_op and acc_op not in (True, "add", "max"):
            raise _SpecializationError(
                TensorIRError, f"unknown accumulate mode {acc_op!r}"
            )
        for src in stmt.srcs:
            if isinstance(src, SliceRef):
                self.validate_slice(src)
                if (
                    schema.is_elementwise
                    and len(src.sizes) > dst_ndim
                    and any(
                        d != 1
                        for d in src.sizes[: len(src.sizes) - dst_ndim]
                    )
                ):
                    raise _SpecializationError(
                        ExecutionError,
                        f"compute {stmt.op}: cannot align source shape "
                        f"{tuple(src.sizes)} to destination "
                        f"{tuple(stmt.dst.sizes)}",
                    )
        ref = self.bind("ref", schema.reference)
        at = self.bind("at", attrs)
        self.count("compute_stmts")
        dst = self.emit_slice(stmt.dst)

        def fetch(src) -> str:
            if not isinstance(src, SliceRef):
                return self.bind("k", np.asarray(np.float32(src)))
            expr = self.emit_slice(src)
            if schema.is_elementwise and len(src.sizes) > dst_ndim:
                lead = len(src.sizes) - dst_ndim
                expr = f"{expr}.reshape({tuple(src.sizes[lead:])!r})"
            return expr

        if schema.is_reduction:
            srcs = [fetch(stmt.srcs[0])]
        else:
            srcs = [fetch(s) for s in stmt.srcs]
        call = f"{ref}([{', '.join(srcs)}], {at})[0]"

        if not schema.is_reduction and not schema.is_elementwise:
            head = f"compute {stmt.op}: result has "
            mid = " elements for a destination of "
            self.emit(f"_d = {dst}")
            self.emit(f"_r = _asarray({call})")
            if dst_static:
                dst_size = stmt.dst.num_elements
                self.emit(f"if _r.size != {dst_size}:")
                self.emit(
                    f"    raise _ExecutionError({head!r} + str(_r.size) "
                    f"+ {mid + str(dst_size)!r})"
                )
            else:
                self.emit("if _r.size != _d.size:")
                self.emit(
                    f"    raise _ExecutionError({head!r} + str(_r.size) "
                    f"+ {mid!r} + str(_d.size))"
                )
            self.emit("_d[...] = _r.reshape(_d.shape).astype(_d.dtype)")
            return

        self.emit(f"_d = {dst}")
        self.emit(f"_r = _asarray({call})")
        self.emit(f"if _r.ndim > {dst_ndim}:")
        self.emit(f"    _r = _lead_squeeze(_r, {dst_ndim})")
        if acc_op in (True, "add"):
            self.emit("_add(_d, _r.astype(_d.dtype, copy=False), out=_d)")
        elif acc_op == "max":
            self.emit(
                "_maximum(_d, _r.astype(_d.dtype, copy=False), out=_d)"
            )
        else:
            # Assignment broadcasts and casts in one pass — same values
            # as broadcast_to(...).astype(...) without materializing the
            # intermediate copy.
            self.emit("_d[...] = _r")

    def _emit_traced_body(self, body: List[str], span: str) -> None:
        """Emit a body twice: bare when tracing is off, inside a span."""
        self.emit("if _tr is None:")
        for line in body:
            self.emit("    " + line)
        self.emit("else:")
        self.emit(f"    with {span}:")
        for line in body:
            self.emit("        " + line)

    def _emit_runtime_pack(self, stmt: Pack) -> None:
        """Pack/unpack with runtime geometry: the shared reference helper
        resolves block counts from the live buffers."""
        b1, b2 = stmt.block_sizes
        self.count("pack_stmts")
        src = self.emit_slice(stmt.src)
        dst = self.emit_slice(stmt.dst)
        body = [
            f"_rpack({dst}, {src}, {stmt.block_sizes!r}, "
            f"swap_inner={stmt.swap_inner!r}, "
            f"outer_transposed={stmt.outer_transposed!r}, "
            f"transpose_src={stmt.transpose_src!r})"
        ]
        span = (
            f"_tr.span('pack', category='runtime', "
            f"tensor={stmt.dst.tensor!r}, blocks={f'{b1}x{b2}'!r})"
        )
        self._emit_traced_body(body, span)

    def _emit_runtime_unpack(self, stmt: Unpack) -> None:
        b1, b2 = stmt.block_sizes
        self.count("pack_stmts")
        src = self.emit_slice(stmt.src)
        dst = self.emit_slice(stmt.dst)
        body = [
            f"_runpack({dst}, {src}, {stmt.block_sizes!r}, "
            f"swap_inner={stmt.swap_inner!r})"
        ]
        span = (
            f"_tr.span('unpack', category='runtime', "
            f"tensor={stmt.dst.tensor!r}, blocks={f'{b1}x{b2}'!r})"
        )
        self._emit_traced_body(body, span)

    def _emit_pack(self, stmt: Pack) -> None:
        if not (stmt.src.is_static and stmt.dst.is_static):
            self._emit_runtime_pack(stmt)
            return
        src_axes, src_shape = _static_squeeze(
            stmt.src.sizes, 2, "pack source"
        )
        rows, cols = src_shape
        if stmt.transpose_src:
            rows, cols = cols, rows
        b1, b2 = stmt.block_sizes
        dst_axes, dst4 = _static_squeeze(
            stmt.dst.sizes, 4, "pack destination"
        )
        rb, cb = dst4[0], dst4[1]
        if stmt.outer_transposed:
            rb, cb = cb, rb
        if rb * b1 < rows or cb * b2 < cols:
            raise _SpecializationError(
                ExecutionError,
                f"pack destination {stmt.dst!r} too small for source "
                f"({rows}x{cols} into {rb}x{b1} x {cb}x{b2})",
            )
        need_pad = rows != rb * b1 or cols != cb * b2
        perm = (0, 2, 3, 1) if stmt.swap_inner else (0, 2, 1, 3)
        if stmt.outer_transposed:
            order = (1, 0, 2, 3)
            perm = tuple(perm[i] for i in order)
        dst_size = stmt.dst.num_elements
        if dst_size != rb * cb * b1 * b2:
            raise _SpecializationError(
                ExecutionError,
                f"pack destination {stmt.dst!r} has {dst_size} elements, "
                f"blocks have {rb * cb * b1 * b2}",
            )
        self.count("pack_stmts")
        src = self.emit_slice(stmt.src)
        dst = self.emit_slice(stmt.dst)
        body = [f"_a = {src}"]
        if src_axes:
            body.append(f"_a = _squeeze(_a, axis={src_axes!r})")
        if stmt.transpose_src:
            body.append("_a = _a.T")
        if need_pad:
            body.append(f"_p = _zeros(({rb * b1}, {cb * b2}), _a.dtype)")
            body.append(f"_p[:{rows}, :{cols}] = _a")
            body.append("_a = _p")
        body.append(
            f"_b = _a.reshape({rb}, {b1}, {cb}, {b2})"
            f".transpose({perm!r})"
        )
        body.append(f"_d = {dst}")
        body.append("_d[...] = _b.reshape(_d.shape).astype(_d.dtype)")
        span = (
            f"_tr.span('pack', category='runtime', "
            f"tensor={stmt.dst.tensor!r}, blocks={f'{b1}x{b2}'!r})"
        )
        self._emit_traced_body(body, span)

    def _emit_unpack(self, stmt: Unpack) -> None:
        if not (stmt.src.is_static and stmt.dst.is_static):
            self._emit_runtime_unpack(stmt)
            return
        dst_axes, dst_shape = _static_squeeze(
            stmt.dst.sizes, 2, "unpack destination"
        )
        rows, cols = dst_shape
        b1, b2 = stmt.block_sizes
        src_size = stmt.src.num_elements
        total_blocks = src_size // (b1 * b2)
        rb = max(1, -(-rows // b1))
        cb = total_blocks // rb if rb else 0
        if rb * cb != total_blocks or cb * b2 < cols:
            raise _SpecializationError(
                ExecutionError,
                f"unpack geometry mismatch: {src_size} elements as "
                f"{rb}x{cb} blocks of {b1}x{b2} for output "
                f"{rows}x{cols}",
            )
        if stmt.swap_inner:
            reshape, perm = (rb, cb, b2, b1), (0, 3, 1, 2)
        else:
            reshape, perm = (rb, cb, b1, b2), (0, 2, 1, 3)
        self.count("pack_stmts")
        src = self.emit_slice(stmt.src)
        dst = self.emit_slice(stmt.dst)
        body = [f"_a = {src}", f"_d = {dst}"]
        if dst_axes:
            body.append(f"_d = _squeeze(_d, axis={dst_axes!r})")
        body.append(
            f"_b = _a.reshape({reshape!r}).transpose({perm!r})"
        )
        body.append(f"_p = _b.reshape({rb * b1}, {cb * b2})")
        body.append(
            f"_d[...] = _p[:{rows}, :{cols}].astype(_d.dtype)"
        )
        span = (
            f"_tr.span('unpack', category='runtime', "
            f"tensor={stmt.dst.tensor!r}, blocks={f'{b1}x{b2}'!r})"
        )
        self._emit_traced_body(body, span)

    def _emit_brgemm(self, stmt: BrgemmCall) -> None:
        a_axes, a_shape = _static_squeeze(stmt.a.sizes, 3, "brgemm A")
        b_axes, b_shape = _static_squeeze(stmt.b.sizes, 3, "brgemm B")
        c_axes, c_shape = _static_squeeze(stmt.c.sizes, 2, "brgemm C")
        if a_shape[0] != stmt.batch:
            raise _SpecializationError(
                ExecutionError,
                f"brgemm batch {stmt.batch} but A batch dim is "
                f"{a_shape[0]}",
            )
        if a_shape[0] != b_shape[0]:
            raise _SpecializationError(
                ExecutionError,
                f"brgemm batch mismatch: a has {a_shape[0]}, b has "
                f"{b_shape[0]}",
            )
        mb, kb = a_shape[1], a_shape[2]
        nb, kb_b = (
            (b_shape[1], b_shape[2])
            if stmt.b_transposed
            else (b_shape[2], b_shape[1])
        )
        if kb != kb_b:
            raise _SpecializationError(
                ExecutionError,
                f"brgemm K mismatch: a blocks [{mb},{kb}], b blocks "
                f"{'[NB,KB]' if stmt.b_transposed else '[KB,NB]'}="
                f"{[b_shape[1], b_shape[2]]}",
            )
        if c_shape != (mb, nb):
            raise _SpecializationError(
                ExecutionError,
                f"brgemm accumulator shape {c_shape} != ({mb}, {nb})",
            )
        a_dtype = self.dtypes[stmt.a.tensor]
        c_dtype = self.dtypes[stmt.c.tensor]
        if a_dtype in (np.int8, np.uint8):
            b_dtype = self.dtypes[stmt.b.tensor]
            if b_dtype not in (np.int8, np.uint8):
                raise _SpecializationError(
                    ExecutionError,
                    f"int8 brgemm needs an int8 B operand, got {b_dtype}",
                )
            if c_dtype != np.int32:
                raise _SpecializationError(
                    ExecutionError,
                    f"int8 brgemm needs an int32 accumulator, got "
                    f"{c_dtype}",
                )
        elif c_dtype != np.float32:
            raise _SpecializationError(
                ExecutionError,
                f"float brgemm needs a float32 accumulator, got {c_dtype}",
            )
        self.count("brgemm_calls")
        a = self.emit_slice(stmt.a, squeeze_axes=tuple(a_axes))
        b = self.emit_slice(stmt.b, squeeze_axes=tuple(b_axes))
        c = self.emit_slice(stmt.c, squeeze_axes=tuple(c_axes))
        self.emit(f"_ba = {a}")
        self.emit(f"_bb = {b}")
        self.emit(f"_bc = {c}")
        kernel = [
            f"_p = _brgemm_partial(_ba, _bb, {stmt.b_transposed!r})",
            "_bc[...] = _p" if stmt.initialize else "_bc += _p",
        ]
        self.emit("if _tr is None:")
        for line in kernel:
            self.emit("    " + line)
        self.emit("else:")
        self.emit(
            "    with _tr.span('brgemm', category='microkernel') as _sp:"
        )
        self.emit("        _t0 = _pc()")
        for line in kernel:
            self.emit("        " + line)
        self.emit(
            f"        _sp.set(**_bca(_ctx.machine, _ba, _bc, "
            f"{stmt.batch}, _pc() - _t0))"
        )

    def _emit_call(self, stmt: Call) -> None:
        try:
            callee = self.module.get(stmt.func)
        except TensorIRError as exc:
            raise _SpecializationError(TensorIRError, str(exc))
        if len(stmt.args) != len(callee.params):
            raise _SpecializationError(
                ExecutionError,
                f"call to {stmt.func} passes {len(stmt.args)} args, "
                f"function takes {len(callee.params)}",
            )
        for arg, param in zip(stmt.args, callee.params):
            arg_shape = self.shapes.get(arg)
            if arg_shape is None:
                continue
            want = tuple(param.shape)
            mismatch = len(arg_shape) != len(want)
            if not mismatch:
                for got, expect in zip(arg_shape, want):
                    # Symbolic dims re-bind inside the callee (it derives
                    # them from its own params); static dims must match.
                    if isinstance(got, Expr) or isinstance(expect, Expr):
                        continue
                    if int(got) != int(expect):
                        mismatch = True
                        break
            if mismatch:
                raise _SpecializationError(
                    ExecutionError,
                    f"buffer {param.name!r} has shape {arg_shape}, "
                    f"function {stmt.func} expects {want}",
                )
        self.count("function_calls")
        args = []
        for arg in stmt.args:
            if arg not in self.shapes:
                raise _SpecializationError(
                    ExecutionError,
                    f"call to {stmt.func}: unknown buffer {arg!r}",
                )
            args.append(self.buffer_ident(arg))
        fn = self.callee_ident(stmt.func)
        call = f"{fn}(_ctx, {', '.join(args)})" if args else f"{fn}(_ctx)"
        self.emit("if _tr is None:")
        self.emit(f"    {call}")
        self.emit("else:")
        self.emit(
            f"    with _tr.span({'call:' + stmt.func!r}, "
            f"category='runtime'):"
        )
        self.emit(f"        {call}")

    # -- loops -----------------------------------------------------------------

    def _loop_range(self, stmt: For) -> str:
        """Emit bound temps/checks; return the range expression source."""
        begin = fold(stmt.begin)
        end = fold(stmt.end)
        step = fold(stmt.step)
        if isinstance(step, Const) and step.value <= 0:
            raise _SpecializationError(
                TensorIRError,
                f"loop {stmt.var} has non-positive step",
            )
        parts = []
        for bound in (begin, end):
            if isinstance(bound, Const):
                parts.append(repr(bound.value))
            else:
                t = self.temp("b")
                self.emit(f"{t} = {self.expr_src(bound)}")
                parts.append(t)
        if isinstance(step, Const):
            parts.append(repr(step.value))
        else:
            t = self.temp("st")
            self.emit(f"{t} = {self.expr_src(step)}")
            self.emit(f"if {t} <= 0:")
            self.emit(
                f"    raise _TensorIRError("
                f"{f'loop {stmt.var} has non-positive step'!r})"
            )
            parts.append(t)
        return f"range({', '.join(parts)})"

    def _emit_for(self, stmt: For) -> None:
        if not stmt.parallel:
            rng = self._loop_range(stmt)
            var = self.scalar_ident(stmt.var)
            self.scalar_scope[stmt.var] = var
            self.emit(f"for {var} in {rng}:")
            self._indent += 1
            self.depth += 1
            self.emit_body(stmt.body)
            self._indent -= 1
            self.depth -= 1
            return

        # Scope captured before the loop var joins it: everything the
        # chunk function needs is passed positionally.
        scalar_args = list(self.scalar_scope.values())
        buffer_args = list(self.buffer_scope.values())
        tl_sites = [
            (self.buffer_scope[name], site)
            for name, site in self.tl_live.items()
            if name in self.buffer_scope
        ]
        extra = scalar_args + buffer_args
        extra_sig = (", " + ", ".join(extra)) if extra else ""
        pid = self.temp("p")

        self.count("parallel_loops")
        rng = self._loop_range(stmt)
        v = f"_vals{pid}"
        th = f"_th{pid}"
        self.emit(f"{v} = {rng}")
        self.emit(
            f"{th} = _ctx.pool is not None and len({v}) > 1 "
            f"and not _ctx.in_parallel"
        )
        span = (
            f"_tr.span({'parallel_for:' + stmt.var!r}, "
            f"category='runtime', trips=len({v}), threaded={th})"
        )
        self.emit(f"with ({span} if _tr is not None else _NULL):")
        self._indent += 1
        self.emit(f"if {th}:")
        self.emit(f"    _par{pid}(_ctx, {v}{extra_sig})")
        self.emit("else:")
        self._indent += 1
        state0 = self._snapshot()
        var = self.scalar_ident(stmt.var)
        self.scalar_scope[stmt.var] = var
        self.emit(f"for {var} in {v}:")
        self._indent += 1
        self.depth += 1
        self.emit_body(stmt.body)
        self._indent -= 2
        self.depth -= 1
        self._indent -= 1

        # Sibling functions: the per-worker slot maker, the fan-out
        # driver, and the chunk body (its own code region: fresh child
        # stats, in_parallel set, inherited allocs are not re-freed).
        sp = self.bind("sp", [])
        saved_buf, saved_indent = self._buf, self._indent
        self._buf, self._indent = [], 0

        self.emit(f"def _mkslot{pid}():")
        if tl_sites:
            items = ", ".join(
                f"{ident!r}: _empty({site.shape!r}, "
                f"{self.bind('dt', site.np_dtype)})"
                for ident, site in tl_sites
            )
            self.emit(f"    return {{{items}}}")
        else:
            self.emit("    return {}")
        self._tail.append(self._buf)

        self._buf = []
        self.emit(f"def _par{pid}(_ctx, _vals{extra_sig}):")
        self._indent += 1
        self.emit("_n = len(_vals)")
        self.emit("_workers = min(_ctx.workers, _n)")
        self.emit(
            "_bounds = [(_n * _w // _workers, _n * (_w + 1) // _workers)"
            " for _w in range(_workers)]"
        )
        self.emit("_slots = []")
        self.emit("for _w in range(_workers):")
        self.emit("    try:")
        self.emit(f"        _slots.append({sp}.pop())")
        self.emit("    except IndexError:")
        self.emit(f"        _slots.append(_mkslot{pid}())")
        self.emit("try:")
        extra_call = (", " + ", ".join(extra)) if extra else ""
        self.emit(
            f"    _futs = [_ctx.pool.submit(_chunk{pid}, _ctx, _vals, "
            f"_bounds[_w][0], _bounds[_w][1], _slots[_w]{extra_call}) "
            f"for _w in range(_workers)]"
        )
        self.emit("    _res = [_f.result() for _f in _futs]")
        self.emit("finally:")
        self.emit(
            f"    while _slots and len({sp}) < {_POOL_DEPTH}:"
        )
        self.emit(f"        {sp}.append(_slots.pop())")
        self.emit("_st = _ctx.stats")
        self.emit("for _cs in _res:")
        self.emit("    _st.merge(_cs)")
        self._indent -= 1
        self._tail.append(self._buf)

        self._buf = []
        self._restore(state0)
        saved_region, saved_depth = self.region, self.depth
        saved_counters = self._counters
        self._counters = set()
        self.region = self._next_region
        self._next_region += 1
        self.depth = 1
        self.emit(
            f"def _chunk{pid}(_pctx, _vals, _lo, _hi, _slot{extra_sig}):"
        )
        self._indent += 1
        self.emit("_ctx = _fork(_pctx)")
        self.emit("_stats = _ctx.stats")
        self.emit("_tr = _ctx.tracer")
        cmark = len(self._buf)
        for ident, _site in tl_sites:
            self.emit(f"{ident} = _slot[{ident!r}]")
        var = self.scalar_ident(stmt.var)
        self.scalar_scope[stmt.var] = var
        self.emit(f"for {var} in _vals[_lo:_hi]:")
        self._indent += 1
        self.depth += 1
        for ident, _site in tl_sites:
            # Fresh zeroed scratch per iteration, as _Frame.fork
            # provides — but into reused slot storage.
            self.emit(f"{ident}.fill(0)")
        self.emit_body(stmt.body)
        self._indent -= 1
        self.depth -= 1
        init = self.counter_init_line()
        if init:
            self._buf.insert(cmark, "    " + init)
        self.emit_counter_flush()
        self.emit("return _stats")
        self._indent -= 1
        self._tail.append(self._buf)

        self._counters = saved_counters
        self.region, self.depth = saved_region, saved_depth
        self._buf, self._indent = saved_buf, saved_indent
        # Post-loop scope is the *pre*-loop scope: whether loop-body
        # assignments/allocs persist depends on the serial-vs-threaded
        # runtime choice (chunks copy the environment), so nothing bound
        # only inside the body may be referenced by emitted code after
        # the loop — exactly the guarantee well-formed IR relies on.
        self._restore(state0)

    # -- entry -----------------------------------------------------------------

    def emit_function(self) -> str:
        params = []
        for p in self.func.params:
            ident = self.buffer_ident(p.name)
            self.buffer_scope[p.name] = ident
            params.append(ident)
        sig = ", ".join(["_ctx"] + params)
        head = [
            f"# generated by repro.runtime.codegen for "
            f"TirFunction {self.func.name!r}",
            f"def {self.entry_ident}({sig}):",
        ]
        self._buf = []
        self._indent = 1
        self.emit("_stats = _ctx.stats")
        self.emit("_tr = _ctx.tracer")
        # Symbolic dims bind from the live param shapes: one local per
        # Var, so every loop bound / slice / alloc below folds to plain
        # arithmetic over these.
        for p in self.func.params:
            for axis, dim in enumerate(p.shape):
                if isinstance(dim, Var) and dim.name not in self.scalar_scope:
                    ident = self.scalar_ident(dim.name)
                    self.scalar_scope[dim.name] = ident
                    self.emit(
                        f"{ident} = {self.buffer_ident(p.name)}"
                        f".shape[{axis}]"
                    )
        mark = len(self._buf)
        self.emit_body(self.func.body)
        init = self.counter_init_line()
        if init:
            self._buf.insert(mark, "    " + init)
        self.emit_counter_flush()
        blocks = [head + self._buf] + self._tail
        return "\n".join("\n".join(block) + "\n" for block in blocks)


class CodegenExecutor:
    """A whole-program codegen executor for one Tensor IR module.

    Built once per :class:`~repro.runtime.partition.CompiledPartition`
    under ``CompilerOptions.executor="codegen"`` (the default); ``run``
    is thread-safe (each call gets a private context; buffer, slot and
    arena free-lists are GIL-atomic).
    """

    def __init__(
        self,
        module: TirModule,
        machine=None,
        arena_size: Optional[int] = None,
    ) -> None:
        self.module = module
        self.machine = machine
        self.arena_size = int(arena_size or 0)
        self._arena_pool: List[np.ndarray] = []
        #: Generated source text per function name (deterministic).
        self.sources: Dict[str, str] = {}
        #: Synthetic linecache filename per function name.
        self.filenames: Dict[str, str] = {}
        self._fns: Dict[str, object] = {}
        pending = []
        for name, func in module.functions.items():
            emitter = _FunctionEmitter(self, func)
            source = emitter.emit_function()
            self.sources[name] = source
            digest = hashlib.sha1(source.encode("utf-8")).hexdigest()[:8]
            filename = f"<repro-codegen:{_sanitize(name)}:{digest}>"
            self.filenames[name] = filename
            # Register with linecache so tracebacks through generated
            # code show the emitted lines.
            linecache.cache[filename] = (
                len(source),
                None,
                source.splitlines(keepends=True),
                filename,
            )
            code = compile(source, filename, "exec")
            exec(code, emitter.env)  # noqa: S102 - build-time codegen
            self._fns[name] = emitter.env[emitter.entry_ident]
            pending.append((emitter.env, emitter.callees))
        # Two-phase build: every function object exists before Call sites
        # are linked, so definition order never matters.
        for env, callees in pending:
            for callee, ident in callees.items():
                env[ident] = self._fns[callee]
        dump_dir = os.environ.get("REPRO_DUMP_CODEGEN")
        if dump_dir:
            try:
                self.dump_sources(dump_dir)
            except OSError:
                pass  # diagnostics must never fail an execution path

    def source_for(self, name: str) -> str:
        try:
            return self.sources[name]
        except KeyError:
            raise TensorIRError(f"module has no function {name!r}")

    def dump_sources(self, directory: str) -> List[str]:
        """Write each generated function's source to ``directory``.

        Returns the written paths.  File names combine the function name
        with the source digest, so distinct partitions never collide.
        """
        os.makedirs(directory, exist_ok=True)
        paths = []
        for name, source in self.sources.items():
            digest = self.filenames[name].rsplit(":", 1)[1].rstrip(">")
            path = os.path.join(
                directory, f"{_sanitize(name)}_{digest}.py"
            )
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source)
            paths.append(path)
        return paths

    # -- execution -------------------------------------------------------------

    def run(
        self,
        buffers: Dict[str, np.ndarray],
        func_name: Optional[str] = None,
        *,
        pool=None,
        num_threads: int = 1,
    ) -> ExecutionStats:
        """Execute a function (default: the entry) in place on ``buffers``.

        Returns this call's :class:`ExecutionStats`.  ``pool`` is an
        optional persistent ``ThreadPoolExecutor`` used for parallel
        loops when ``num_threads > 1``.
        """
        name = func_name or self.module.entry
        try:
            fn = self._fns[name]
        except KeyError:
            raise TensorIRError(f"module has no function {name!r}")
        func = self.module.functions[name]
        ctx = _RunCtx()
        args = []
        for param in func.params:
            if param.name not in buffers:
                raise ExecutionError(
                    f"missing buffer {param.name!r} for function {name}"
                )
            args.append(buffers[param.name])
        # Validates static dims exactly and symbolic dims consistently;
        # the generated code re-derives the bindings from the shapes.
        bind_shapes(func.params, buffers)
        tracer = get_tracer()
        ctx.tracer = tracer if tracer.enabled else None
        ctx.machine = self.machine
        if num_threads > 1 and pool is not None:
            ctx.pool = pool
            ctx.workers = num_threads
        arena = None
        if self.arena_size:
            arena = self._take_arena()
            ctx.arena = arena
        try:
            # One errstate for the whole program, as in both other
            # backends: padded lanes are cropped before becoming visible.
            with np.errstate(
                over="ignore", invalid="ignore", divide="ignore"
            ):
                fn(ctx, *args)
        finally:
            if arena is not None and len(self._arena_pool) < _POOL_DEPTH:
                self._arena_pool.append(arena)
        return ctx.stats

    def _take_arena(self) -> np.ndarray:
        try:
            arena = self._arena_pool.pop()
        except IndexError:
            return np.zeros(self.arena_size, dtype=np.uint8)
        arena.fill(0)  # interpreter calls get a fresh zeroed arena too
        return arena
