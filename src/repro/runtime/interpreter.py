"""Tensor IR interpreter.

Executes a :class:`~repro.tensor_ir.module.TirModule` against numpy buffers.
Parallel loops run serially (their decomposition is still faithful — each
iteration only touches its own slices, which tests assert); the performance
model separately charges their synchronization cost.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..dtypes import from_numpy
from ..errors import ExecutionError, TensorIRError
from ..graph_ir.op_registry import OP_REGISTRY
from ..microkernel.brgemm import batch_reduce_gemm
from ..observability import get_tracer
from ..tensor_ir.expr import Expr, evaluate
from ..tensor_ir.function import TirFunction
from ..tensor_ir.module import TirModule
from .dynamic import bind_shapes, concrete_shape, run_pack, run_unpack, squeeze_to
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


@dataclass
class ExecutionStats:
    """Counters collected while interpreting a module."""

    brgemm_calls: int = 0
    compute_stmts: int = 0
    pack_stmts: int = 0
    barriers: int = 0
    parallel_loops: int = 0
    function_calls: int = 0
    peak_temp_bytes: int = 0
    _live_temp_bytes: int = 0

    def note_alloc(self, nbytes: int) -> None:
        self._live_temp_bytes += nbytes
        self.peak_temp_bytes = max(self.peak_temp_bytes, self._live_temp_bytes)

    def note_free(self, nbytes: int) -> None:
        self._live_temp_bytes = max(0, self._live_temp_bytes - nbytes)

    def merge(self, child: "ExecutionStats") -> None:
        """Fold a per-thread accumulator into this one (at a join point).

        Counters add exactly.  ``peak_temp_bytes`` takes the safe upper
        bound — the child's peak on top of whatever was live here when
        the parallel region forked.
        """
        self.brgemm_calls += child.brgemm_calls
        self.compute_stmts += child.compute_stmts
        self.pack_stmts += child.pack_stmts
        self.barriers += child.barriers
        self.parallel_loops += child.parallel_loops
        self.function_calls += child.function_calls
        self.peak_temp_bytes = max(
            self.peak_temp_bytes,
            self._live_temp_bytes + child.peak_temp_bytes,
        )
        self._live_temp_bytes += child._live_temp_bytes

    def to_dict(self) -> Dict[str, int]:
        """Public counters as a flat dict (exporters consume this)."""
        return {
            "brgemm_calls": self.brgemm_calls,
            "compute_stmts": self.compute_stmts,
            "pack_stmts": self.pack_stmts,
            "barriers": self.barriers,
            "parallel_loops": self.parallel_loops,
            "function_calls": self.function_calls,
            "peak_temp_bytes": self.peak_temp_bytes,
        }


def brgemm_cost_attrs(machine, a, c, batch: int, wall: float) -> Dict:
    """Reconcile one brgemm call: cost-descriptor cycles vs wall time.

    ``modeled_cycles`` charges the MAC count at the efficiency the
    template cost model predicts for these block sizes;
    ``measured_cycles`` converts the measured wall time at the machine's
    clock.  The ratio (aggregated by
    :func:`repro.observability.report.format_brgemm_reconciliation`)
    shows where the descriptor is optimistic.  Shared by both runtime
    backends so their microkernel spans are indistinguishable.
    """
    mb, nb = c.shape
    kb = a.shape[2]
    attrs: Dict = {
        "blocks": f"{mb}x{nb}x{kb}x{batch}",
        "measured_us": wall * 1e6,
    }
    if machine is None:
        return attrs
    try:
        dtype = from_numpy(a.dtype)
        from ..templates.cost_model import microkernel_efficiency

        efficiency = microkernel_efficiency(mb, nb, kb, batch, dtype, machine)
        macs = batch * mb * nb * kb
        peak = machine.flops_per_cycle[dtype]
        attrs["modeled_cycles"] = macs / (peak * efficiency)
        attrs["measured_cycles"] = wall * machine.frequency_hz
    except (KeyError, ValueError):
        pass  # unmodeled dtype: keep the measured numbers only
    return attrs


class _NullLock:
    """No-op context manager standing in for the stats lock.

    The single-threaded service path pays no lock acquisition per
    statement; parallel interpreters keep the real lock.
    """

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_LOCK = _NullLock()


class _Frame:
    """Execution state of one function invocation."""

    def __init__(self) -> None:
        self.tensors: Dict[str, np.ndarray] = {}
        self.scalars: Dict[str, int] = {}
        self.alloc_bytes: Dict[str, int] = {}
        #: Buffers flagged thread_local by their Alloc (per-iteration
        #: scratch): parallel iterations get private copies.
        self.thread_local_names: set = set()

    def fork(self) -> "_Frame":
        """Per-thread copy for one parallel-loop iteration.

        Buffers are shared (iterations touch disjoint slices by template
        construction); scalar bindings and allocation bookkeeping are
        private so concurrent iterations don't clobber loop indices or
        thread-local accumulators.
        """
        child = _Frame()
        child.tensors = dict(self.tensors)
        child.scalars = dict(self.scalars)
        child.alloc_bytes = {}
        child.thread_local_names = set(self.thread_local_names)
        for name in self.thread_local_names:
            if name in child.tensors:
                child.tensors[name] = np.zeros_like(child.tensors[name])
        return child


class Interpreter:
    """Executes Tensor IR functions.

    With ``num_threads > 1``, outermost parallel loops run their iterations
    on a thread pool — numpy kernels release the GIL, so the interpreter's
    parallel loops genuinely use multiple cores, mirroring the parallel
    regions the generated code expresses.  Execution remains deterministic:
    iterations write disjoint slices by construction.
    """

    def __init__(
        self,
        module: TirModule,
        arena_size: Optional[int] = None,
        num_threads: int = 1,
        machine=None,
        pool=None,
    ):
        self.module = module
        self.stats = ExecutionStats()
        self.num_threads = max(1, int(num_threads))
        # A serial interpreter never contends on stats: skip the lock.
        self._stats_lock = (
            threading.Lock() if self.num_threads > 1 else _NULL_LOCK
        )
        #: Persistent worker pool for parallel loops.  Callers (e.g.
        #: CompiledPartition) may inject one shared across interpreter
        #: instances; otherwise a private pool is created lazily on the
        #: first parallel loop and reused for the interpreter's lifetime.
        self._pool = pool
        self._own_pool = None
        self._parallel_depth = threading.local()
        #: Target machine model; lets microkernel spans carry modeled cycles
        #: from the cost descriptor next to their measured wall time.
        self.machine = machine
        #: Bound once: the tracer's ``enabled`` flag is the only per-stmt
        #: overhead when tracing is off.
        self._tracer = get_tracer()
        #: Shared arena backing temporaries placed by buffer-reuse planning.
        self._arena = (
            np.zeros(arena_size, dtype=np.uint8) if arena_size else None
        )

    # -- public API -----------------------------------------------------------

    def run(
        self,
        buffers: Dict[str, np.ndarray],
        func_name: Optional[str] = None,
    ) -> None:
        """Execute a function (default: the entry) in place on ``buffers``."""
        name = func_name or self.module.entry
        func = self.module.get(name)
        frame = _Frame()
        for param in func.params:
            if param.name not in buffers:
                raise ExecutionError(
                    f"missing buffer {param.name!r} for function {name}"
                )
            frame.tensors[param.name] = buffers[param.name]
        # Derive symbolic-dim values (dynamic batch) from the runtime
        # arrays; static dims are validated exactly in the same pass.
        frame.scalars.update(bind_shapes(func.params, buffers))
        self._exec(func.body, frame)

    # -- statement dispatch ------------------------------------------------------

    def _exec(self, stmt: Stmt, frame: _Frame) -> None:
        if isinstance(stmt, Seq):
            for child in stmt.body:
                self._exec(child, frame)
        elif isinstance(stmt, For):
            self._exec_for(stmt, frame)
        elif isinstance(stmt, Assign):
            frame.scalars[stmt.var] = evaluate(stmt.value, frame.scalars)
        elif isinstance(stmt, Alloc):
            self._exec_alloc(stmt, frame)
        elif isinstance(stmt, Free):
            if stmt.tensor in frame.alloc_bytes:
                with self._stats_lock:
                    self.stats.note_free(frame.alloc_bytes.pop(stmt.tensor))
            frame.tensors.pop(stmt.tensor, None)
            # A name freed and later re-allocated must not inherit
            # thread-local status from the dead buffer.
            frame.thread_local_names.discard(stmt.tensor)
        elif isinstance(stmt, Fill):
            self._view(stmt.dst, frame)[...] = stmt.value
        elif isinstance(stmt, Compute):
            self._exec_compute(stmt, frame)
        elif isinstance(stmt, Copy):
            dst = self._view(stmt.dst, frame)
            src = self._view(stmt.src, frame)
            if dst.size != src.size:
                raise ExecutionError(
                    f"copy size mismatch: {dst.shape} <- {src.shape}"
                )
            dst[...] = src.reshape(dst.shape)
        elif isinstance(stmt, Pack):
            self._exec_pack(stmt, frame)
        elif isinstance(stmt, Unpack):
            self._exec_unpack(stmt, frame)
        elif isinstance(stmt, BrgemmCall):
            self._exec_brgemm(stmt, frame)
        elif isinstance(stmt, Call):
            self._exec_call(stmt, frame)
        elif isinstance(stmt, Barrier):
            with self._stats_lock:
                self.stats.barriers += 1
        else:
            raise TensorIRError(f"unknown statement {type(stmt).__name__}")

    def _exec_for(self, stmt: For, frame: _Frame) -> None:
        begin = evaluate(stmt.begin, frame.scalars)
        end = evaluate(stmt.end, frame.scalars)
        step = evaluate(stmt.step, frame.scalars)
        if step <= 0:
            raise TensorIRError(f"loop {stmt.var} has non-positive step")
        if stmt.parallel:
            with self._stats_lock:
                self.stats.parallel_loops += 1
            values = range(begin, end, step)
            nested = getattr(self._parallel_depth, "value", 0) > 0
            threaded = self.num_threads > 1 and len(values) > 1 and not nested
            tracer = self._tracer
            if tracer.enabled:
                with tracer.span(
                    f"parallel_for:{stmt.var}",
                    category="runtime",
                    trips=len(values),
                    threaded=threaded,
                ):
                    if threaded:
                        self._exec_parallel(stmt, frame, values)
                    else:
                        self._exec_serial(stmt, frame, values)
                return
            if threaded:
                self._exec_parallel(stmt, frame, values)
                return
        self._exec_serial(stmt, frame, range(begin, end, step))

    def _exec_serial(self, stmt: For, frame: _Frame, values) -> None:
        for value in values:
            frame.scalars[stmt.var] = value
            self._exec(stmt.body, frame)

    def _exec_parallel(self, stmt: For, frame: _Frame, values) -> None:
        """Run a parallel loop's iterations on a thread pool (joined at the
        end — the loop is a barrier, as the performance model assumes)."""

        def body(value: int) -> None:
            self._parallel_depth.value = 1
            try:
                child = frame.fork()
                child.scalars[stmt.var] = value
                self._exec(stmt.body, child)
            finally:
                self._parallel_depth.value = 0

        for result in self._ensure_pool().map(body, values):
            pass  # propagate exceptions

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The loop-execution pool: injected, else lazily created once.

        Constructing (and joining) a fresh ``ThreadPoolExecutor`` per
        parallel loop costs more than small loop bodies themselves; the
        pool lives for the interpreter (or owning partition) lifetime
        instead.
        """
        pool = self._pool
        if pool is not None:
            return pool
        if self._own_pool is None:
            self._own_pool = ThreadPoolExecutor(
                max_workers=self.num_threads,
                thread_name_prefix="repro-interp",
            )
        return self._own_pool

    def close(self) -> None:
        """Shut down the privately-owned pool (injected pools are not ours)."""
        if self._own_pool is not None:
            self._own_pool.shutdown(wait=True)
            self._own_pool = None

    def _exec_alloc(self, stmt: Alloc, frame: _Frame) -> None:
        dtype = stmt.dtype.to_numpy()
        # Symbolic extents (dynamic batch) resolve against the bindings
        # derived from the parameter shapes at function entry.
        shape = (
            stmt.shape
            if stmt.is_static
            else concrete_shape(stmt.shape, frame.scalars)
        )
        count = 1
        for s in shape:
            count *= s
        nbytes = count * dtype.itemsize
        if stmt.arena_offset is not None and self._arena is not None:
            end = stmt.arena_offset + nbytes
            if end > self._arena.nbytes:
                raise ExecutionError(
                    f"arena overflow allocating {stmt.tensor}: needs "
                    f"{end} bytes, arena has {self._arena.nbytes}"
                )
            view = self._arena[stmt.arena_offset : end].view(dtype)
            frame.tensors[stmt.tensor] = view.reshape(shape)
        else:
            frame.tensors[stmt.tensor] = np.zeros(shape, dtype=dtype)
        frame.alloc_bytes[stmt.tensor] = nbytes
        if stmt.thread_local:
            frame.thread_local_names.add(stmt.tensor)
        with self._stats_lock:
            self.stats.note_alloc(nbytes)
        if self._tracer.enabled:
            self._tracer.instant(
                f"alloc:{stmt.tensor}",
                category="runtime",
                nbytes=nbytes,
                arena=stmt.arena_offset is not None,
            )

    def _exec_compute(self, stmt: Compute, frame: _Frame) -> None:
        with self._stats_lock:
            self.stats.compute_stmts += 1
        schema = OP_REGISTRY.get(stmt.op)
        if schema is None:
            raise TensorIRError(f"compute references unknown op {stmt.op!r}")
        dst = self._view(stmt.dst, frame)
        srcs = [
            self._view(s, frame) if isinstance(s, SliceRef) else np.float32(s)
            for s in stmt.srcs
        ]
        attrs = {k: v for k, v in stmt.attrs.items() if k != "accumulate"}
        # Padded rows/columns may hold garbage that post-ops map to inf/nan;
        # those lanes are cropped before results become visible, so numeric
        # warnings from them are suppressed (hardware is silent about them
        # too).
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return self._run_compute(stmt, schema, dst, srcs, attrs)

    def _run_compute(self, stmt, schema, dst, srcs, attrs) -> None:
        if schema.is_reduction:
            # Reduction over slice axes; the source keeps its slice shape.
            result = schema.reference([srcs[0]], attrs)[0]
        elif not schema.is_elementwise:
            # Data movement / complex kernels (reshape, transpose, im2col,
            # softmax, ...): run on the raw slices, then pour the result
            # into the destination shape.
            result = np.asarray(
                schema.reference([np.asarray(s) for s in srcs], attrs)[0]
            )
            if result.size != dst.size:
                raise ExecutionError(
                    f"compute {stmt.op}: result has {result.size} elements "
                    f"for a destination of {dst.size}"
                )
            dst[...] = result.reshape(dst.shape).astype(dst.dtype)
            return
        else:
            # Element-wise: squeeze sources against the dst shape via numpy
            # broadcasting.
            arrays = [np.asarray(s) for s in srcs]
            shaped = []
            for arr in arrays:
                if arr.ndim > dst.ndim:
                    # Drop leading length-1 dims (slice [i:1, ...] semantics).
                    lead = arr.ndim - dst.ndim
                    if any(d != 1 for d in arr.shape[:lead]):
                        raise ExecutionError(
                            f"compute {stmt.op}: cannot align source shape "
                            f"{arr.shape} to destination {dst.shape}"
                        )
                    arr = arr.reshape(arr.shape[lead:])
                shaped.append(arr)
            result = schema.reference(shaped, attrs)[0]
        result = np.asarray(result)
        if result.ndim > dst.ndim and all(
            d == 1 for d in result.shape[: result.ndim - dst.ndim]
        ):
            result = result.reshape(result.shape[result.ndim - dst.ndim :])
        if stmt.attrs.get("accumulate"):
            acc_op = stmt.attrs.get("accumulate")
            if acc_op in (True, "add"):
                dst[...] = dst + result.astype(dst.dtype)
            elif acc_op == "max":
                np.maximum(dst, result.astype(dst.dtype), out=dst)
            else:
                raise TensorIRError(f"unknown accumulate mode {acc_op!r}")
        else:
            dst[...] = np.broadcast_to(result, dst.shape).astype(dst.dtype)

    def _exec_pack(self, stmt: Pack, frame: _Frame) -> None:
        with self._stats_lock:
            self.stats.pack_stmts += 1
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span(
                "pack",
                category="runtime",
                tensor=stmt.dst.tensor,
                blocks=f"{stmt.block_sizes[0]}x{stmt.block_sizes[1]}",
            ):
                self._run_pack(stmt, frame)
        else:
            self._run_pack(stmt, frame)

    def _run_pack(self, stmt: Pack, frame: _Frame) -> None:
        run_pack(
            self._view(stmt.dst, frame),
            self._view(stmt.src, frame),
            stmt.block_sizes,
            swap_inner=stmt.swap_inner,
            outer_transposed=stmt.outer_transposed,
            transpose_src=stmt.transpose_src,
        )

    def _exec_unpack(self, stmt: Unpack, frame: _Frame) -> None:
        with self._stats_lock:
            self.stats.pack_stmts += 1
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span(
                "unpack",
                category="runtime",
                tensor=stmt.dst.tensor,
                blocks=f"{stmt.block_sizes[0]}x{stmt.block_sizes[1]}",
            ):
                self._run_unpack(stmt, frame)
        else:
            self._run_unpack(stmt, frame)

    def _run_unpack(self, stmt: Unpack, frame: _Frame) -> None:
        run_unpack(
            self._view(stmt.dst, frame),
            self._view(stmt.src, frame),
            stmt.block_sizes,
            swap_inner=stmt.swap_inner,
        )

    def _exec_brgemm(self, stmt: BrgemmCall, frame: _Frame) -> None:
        with self._stats_lock:
            self.stats.brgemm_calls += 1
        a = self._squeeze_to(self._view(stmt.a, frame), 3, "brgemm A")
        b = self._squeeze_to(self._view(stmt.b, frame), 3, "brgemm B")
        c = self._squeeze_to(self._view(stmt.c, frame), 2, "brgemm C")
        if a.shape[0] != stmt.batch:
            raise ExecutionError(
                f"brgemm batch {stmt.batch} but A batch dim is {a.shape[0]}"
            )
        tracer = self._tracer
        if not tracer.enabled:
            batch_reduce_gemm(
                c, a, b,
                b_transposed=stmt.b_transposed,
                initialize=stmt.initialize,
            )
            return
        with tracer.span("brgemm", category="microkernel") as span:
            start = time.perf_counter()
            batch_reduce_gemm(
                c, a, b,
                b_transposed=stmt.b_transposed,
                initialize=stmt.initialize,
            )
            wall = time.perf_counter() - start
            span.set(**self._brgemm_cost_attrs(a, c, stmt.batch, wall))

    def _brgemm_cost_attrs(self, a, c, batch: int, wall: float) -> Dict:
        return brgemm_cost_attrs(self.machine, a, c, batch, wall)

    def _exec_call(self, stmt: Call, frame: _Frame) -> None:
        with self._stats_lock:
            self.stats.function_calls += 1
        func = self.module.get(stmt.func)
        if len(stmt.args) != len(func.params):
            raise ExecutionError(
                f"call to {stmt.func} passes {len(stmt.args)} args, function "
                f"takes {len(func.params)}"
            )
        buffers = {}
        for arg, param in zip(stmt.args, func.params):
            if arg not in frame.tensors:
                raise ExecutionError(
                    f"call to {stmt.func}: unknown buffer {arg!r}"
                )
            buffers[param.name] = frame.tensors[arg]
        tracer = self._tracer
        if tracer.enabled:
            # One span per fused-op function call: the per-op runtime
            # breakdown the top-ops report aggregates.
            with tracer.span(f"call:{stmt.func}", category="runtime"):
                self.run(buffers, func_name=stmt.func)
        else:
            self.run(buffers, func_name=stmt.func)

    # -- slice resolution -----------------------------------------------------------

    def _view(self, ref: SliceRef, frame: _Frame) -> np.ndarray:
        if ref.tensor not in frame.tensors:
            raise ExecutionError(f"unknown tensor {ref.tensor!r} in slice")
        array = frame.tensors[ref.tensor]
        if len(ref.offsets) != array.ndim:
            raise ExecutionError(
                f"slice {ref!r} has {len(ref.offsets)} dims, tensor "
                f"{ref.tensor} has {array.ndim}"
            )
        index = []
        for off_expr, size, extent in zip(ref.offsets, ref.sizes, array.shape):
            off = evaluate(off_expr, frame.scalars)
            if isinstance(size, Expr):
                size = evaluate(size, frame.scalars)
            if off < 0 or off + size > extent:
                raise ExecutionError(
                    f"slice {ref!r} out of bounds: [{off}, {off + size}) "
                    f"not within [0, {extent})"
                )
            index.append(slice(off, off + size))
        return array[tuple(index)]

    #: The shared squeeze helper (see :mod:`repro.runtime.dynamic`).
    _squeeze_to = staticmethod(squeeze_to)
