"""Template-based lowering of a fused matmul to Tensor IR.

Instantiates the microkernel-based template of the paper's Figure 2 with
heuristic-chosen parameters, inserting fused pre-ops and post-ops at their
anchors (Figures 3 and 4):

* outer parallel loops split the kernel into ``MPN x NPN`` single-core
  kernels (times the flattened batch for batched matmuls);
* the single-core kernel iterates ``msi / ksi / nsi`` and calls the
  batch-reduce GEMM microkernel on BS ``[MB, KB] x [NB, KB]`` block pairs,
  stored folded in K as one ``[MB, BS*KB]`` and one ``[NB, BS*KB]`` block
  (``MatmulParams.kfold``), so every blocked operand and chained output
  is written once in the layout the kernel reads;
* pre-op anchor #4 packs plain-layout A slices into blocked slabs just
  before use (the fused reorder of Figure 4);
* post-op anchor #1 applies the element-wise post-op group per row of C
  blocks once the k reduction completes; a fused reduction group (e.g. a
  decomposed softmax) is then processed at row level.

Temporaries for post-op chain values are allocated *full size* here and
shrunk by the Tensor IR tensor-size optimization, mirroring the paper's
pipeline (Figure 6 and the "Tensor IR optimization" section).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..dtypes import DType, accumulator_dtype
from ..errors import LoweringError
from ..graph_ir.fused_op import FusedMatmul, OperandMode
from ..graph_ir.logical_tensor import LogicalTensor
from ..graph_ir.op_registry import get_schema
from ..graph_ir.symbolic import is_symbolic
from ..microkernel.machine import MachineModel
from ..tensor_ir.builder import TirBuilder
from ..tensor_ir.expr import Const, Expr, Var, as_expr
from ..tensor_ir.function import TirFunction
from ..tensor_ir.stmt import SliceRef
from .params import TemplateKind


@dataclass
class _Problem:
    """Resolved logical geometry of the fused matmul."""

    batch_dims: Tuple[int, ...]
    m: int
    n: int
    k: int

    @property
    def batch_total(self) -> int:
        total = 1
        for d in self.batch_dims:
            total *= d
        return total


def _resolve_problem(fused: FusedMatmul) -> _Problem:
    out_shape = fused.matmul.outputs[0].shape
    if len(out_shape) < 2:
        raise LoweringError(f"matmul output must be >=2-D, got {out_shape}")
    m, n = out_shape[-2:]
    a_shape = fused.a.shape
    k = a_shape[-2] if fused.transpose_a else a_shape[-1]
    return _Problem(batch_dims=out_shape[:-2], m=m, n=n, k=k)


def lower_fused_matmul(
    fused: FusedMatmul,
    machine: MachineModel,
    func_name: Optional[str] = None,
) -> TirFunction:
    """Generate the Tensor IR function for one fused matmul."""
    return _MatmulTemplate(fused, machine, func_name or fused.name).build()


class _MatmulTemplate:
    """Stateful generator for one template instantiation."""

    def __init__(
        self, fused: FusedMatmul, machine: MachineModel, name: str
    ) -> None:
        self.fused = fused
        self.machine = machine
        self.params = fused.params
        self.problem = _resolve_problem(fused)
        self.b = TirBuilder(name)
        self.acc_dtype = accumulator_dtype(fused.a.dtype)
        #: tensor id -> buffer name for function arguments.
        self.arg_names: Dict[int, str] = {}
        #: post-op chain value id -> blocked temp buffer name.
        self.block_temps: Dict[int, str] = {}
        #: reduction-group value id -> row temp buffer name.
        self.row_temps: Dict[int, str] = {}
        self.ext_pads: Dict[int, str] = {}
        self.split = fused.reduction_split_index()
        #: (group2, entry value) when the reduction runs at anchor #3.
        self._anchor3_work = None
        #: Blocked temp holding the raw accumulator rows for anchor #3.
        self.entry_block_temp: Optional[str] = None
        #: Dynamic-m mode: the m dim is a symbolic batch bound at runtime.
        #: Params are canonicalized to one m-block per parallel task
        #: (m=mb, mpn=msn=1), so the mpi loop runs over the runtime block
        #: count and every inner slice keeps static sizes.
        self.dyn_m = is_symbolic(self.problem.m)
        self.dyn_batch = any(is_symbolic(d) for d in self.problem.batch_dims)
        #: N block of a blocked output (0: plain output).
        self.c_block_n = self._out_block_n()
        self._validate()

    @property
    def m_blocks(self):
        """Number of m blocks: static count, or a runtime ceil-div expr."""
        p, prob = self.params, self.problem
        if self.dyn_m:
            return (as_expr(prob.m) + (p.mb - 1)) // p.mb
        return p.m // p.mb

    @property
    def padded_m(self):
        """Extent of the padded m dim (``m_blocks * mb`` when dynamic)."""
        if self.dyn_m:
            return self.m_blocks * self.params.mb
        return self.params.m

    # -- validation -------------------------------------------------------------

    def _validate(self) -> None:
        p, prob = self.params, self.problem
        name = self.b.func.name
        if any(is_symbolic(d) for d in prob.batch_dims[1:]):
            raise LoweringError(
                f"{name}: only the leading batch dim may be symbolic, got "
                f"{prob.batch_dims}"
            )
        if self.dyn_m:
            # Layout propagation canonicalizes dynamic-m params; anything
            # else here means a selector bypassed that path (hint-equality
            # would otherwise let invalid modes slip through silently).
            if p.mpn != 1 or p.m != p.mb:
                raise LoweringError(
                    f"{name}: dynamic m requires m=mb and mpn=1, got "
                    f"m={p.m} mb={p.mb} mpn={p.mpn}"
                )
            if p.kind is not TemplateKind.CACHE_RESIDENT:
                raise LoweringError(
                    f"{name}: dynamic m requires the cache-resident "
                    f"template, got {p.kind.value}"
                )
            if self.fused.a_mode is not OperandMode.PACK_FULL:
                raise LoweringError(
                    f"{name}: dynamic m requires a full runtime-geometry "
                    f"A pack, got {self.fused.a_mode.value}"
                )
        if p.batch != prob.batch_total:
            raise LoweringError(
                f"{name}: params.batch={p.batch} but problem batch="
                f"{prob.batch_total}"
            )
        if p.loop_order != ("msi", "ksi", "nsi"):
            raise LoweringError(
                f"{name}: template supports the (msi, ksi, nsi) ordering; "
                f"got {p.loop_order}"
            )
        if self.split < len(self.fused.post_ops):
            if not self.fused.has_n_reduction:
                raise LoweringError(
                    f"{name}: only reductions along n fuse into a matmul"
                )
            if p.kind is TemplateKind.K_SLICED:
                raise LoweringError(
                    f"{name}: the k-sliced template cannot fuse reductions"
                )
        if self.fused.a_mode is OperandMode.PACK_SLICE:
            if prob.m != p.m or prob.k != p.k or prob.m % p.mb or prob.k % p.kb:
                raise LoweringError(
                    f"{name}: slice-packing A requires aligned M/K "
                    f"(m={prob.m}, k={prob.k}, MB={p.mb}, KB={p.kb})"
                )
            if self.fused.transpose_a:
                raise LoweringError(
                    f"{name}: slice-packing cannot transpose A"
                )
            if p.kind is not TemplateKind.CACHE_RESIDENT:
                raise LoweringError(
                    f"{name}: slice-packing requires the cache-resident "
                    f"template, got {p.kind.value}"
                )

    # -- argument declaration ------------------------------------------------------

    def _declare_args(self) -> None:
        p, prob = self.params, self.problem
        fused = self.fused
        if fused.a_mode is OperandMode.BLOCKED:
            a_shape = prob.batch_dims + (
                p.m // p.mb,
                p.k // p.kfold,
                p.mb,
                p.kfold,
            )
        else:
            a_shape = fused.a.shape
        self._add_param(fused.a, a_shape)
        if fused.b_mode is OperandMode.BLOCKED:
            b_shape = fused.b.shape[:-2] + (
                p.k // p.kfold,
                p.n // p.nb,
                p.nb,
                p.kfold,
            )
        else:
            b_shape = fused.b.shape
        self._add_param(fused.b, b_shape)
        for tensor in fused.external_inputs()[2:]:
            self._add_param(tensor, tensor.shape)
        out = fused.output
        if self.c_block_n:
            c_shape = prob.batch_dims + (
                p.m // p.mb,
                p.n // self.c_block_n,
                p.mb,
                self.c_block_n,
            )
        else:
            c_shape = out.shape
        self._add_param(out, c_shape)

    def _add_param(self, tensor: LogicalTensor, shape: Sequence[int]) -> str:
        if tensor.id in self.arg_names:
            return self.arg_names[tensor.id]
        name = self.b.fresh(tensor.name)
        self.b.param(name, tensor.dtype, shape)
        self.arg_names[tensor.id] = name
        return name

    def _out_block_n(self) -> int:
        """N block of a blocked output, or 0 when the output is plain.

        A chained consumer reads this output as its A operand folded in
        K, so the block is ``g * NB`` (g = the consumer's BS): each
        ``[MB, NB]`` block lands at column ``(npsi % g) * NB`` of block
        ``npsi // g``.
        """
        p = self.params
        ndims = self.fused.output.layout.ndims
        inner = self.fused.output.layout.inner_blocks
        if (
            len(inner) == 2
            and inner[0] == (ndims - 2, p.mb)
            and inner[1][0] == ndims - 1
            and inner[1][1] % p.nb == 0
        ):
            return inner[1][1]
        return 0

    # -- build --------------------------------------------------------------------

    def build(self) -> TirFunction:
        self._declare_args()
        self.a_buf = self._prepare_a()
        self.b_buf = self._prepare_b()
        self.c_target, self.c_needs_crop = self._prepare_c()
        self._prepare_external_pads()
        self._preallocate_value_temps()
        if self.params.kind is TemplateKind.K_SLICED:
            self._emit_k_sliced()
        else:
            self._emit_main_loops()
        if self.c_needs_crop:
            self._emit_output_crop()
        func = self.b.finish()
        func.attrs["fused_op"] = self.fused.name
        func.attrs["params"] = self.params
        func.attrs["anchors"] = dict(self.fused.anchors)
        func.attrs["arg_order"] = [
            t.id for t in self.fused.external_inputs()
        ] + [self.fused.output.id]
        return func

    # -- operand preparation ---------------------------------------------------------

    def _prepare_a(self) -> str:
        """Returns the blocked A buffer name (packing fully if needed)."""
        fused, p, prob = self.fused, self.params, self.problem
        if fused.a_mode is OperandMode.BLOCKED:
            return self.arg_names[fused.a.id]
        blocked = self.b.alloc(
            "A_blk",
            fused.a.dtype,
            prob.batch_dims + (self.m_blocks, p.k // p.kfold, p.mb, p.kfold),
        )
        if fused.a_mode is OperandMode.PACK_SLICE:
            # Packed inside the ksi loop (pre-op anchor #4); the full-size
            # temporary above is shrunk by the tensor-size optimization.
            return blocked
        self._emit_full_pack(
            dst=blocked,
            dst_block_dims=(self.m_blocks, p.k // p.kfold, p.mb, p.kfold),
            src_tensor=fused.a,
            block_sizes=(p.mb, p.kfold),
            swap_inner=False,
            transpose_src=fused.transpose_a,
        )
        return blocked

    def _prepare_b(self) -> str:
        fused, p = self.fused, self.params
        if fused.b_mode is OperandMode.BLOCKED:
            return self.arg_names[fused.b.id]
        if fused.b_mode is OperandMode.PACK_SLICE:
            raise LoweringError(
                "slice packing is only supported for the A operand"
            )
        b_batch = fused.b.shape[:-2]
        blocked = self.b.alloc(
            "B_blk",
            fused.b.dtype,
            b_batch + (p.k // p.kfold, p.n // p.nb, p.nb, p.kfold),
        )
        self._emit_full_pack(
            dst=blocked,
            dst_block_dims=(p.k // p.kfold, p.n // p.nb, p.nb, p.kfold),
            src_tensor=fused.b,
            block_sizes=(p.kfold, p.nb),
            swap_inner=True,
            transpose_src=fused.transpose_b,
        )
        return blocked

    def _prepare_c(self) -> Tuple[str, bool]:
        """Output write target; True when a final crop copy is needed."""
        p, prob = self.params, self.problem
        out = self.fused.output
        if self.c_block_n:
            if self.dyn_m:
                raise LoweringError(
                    f"{self.b.func.name}: dynamic m cannot write a blocked "
                    f"output"
                )
            return self.arg_names[out.id], False
        if self.dyn_m:
            # Hint-equality (p.m == prob.m when the runtime batch matches
            # the planning hint) must not skip the pad/crop: any other
            # batch would then write out of bounds.  Always round up to
            # whole blocks and crop the exact runtime rows at the end.
            name = self.b.alloc(
                "C_pad", out.dtype, prob.batch_dims + (self.padded_m, p.n)
            )
            return name, True
        if p.m == prob.m and p.n == prob.n:
            return self.arg_names[out.id], False
        name = self.b.alloc("C_pad", out.dtype, prob.batch_dims + (p.m, p.n))
        return name, True

    def _prepare_external_pads(self) -> None:
        """Padded copies of externals whose m/n dims the template padded."""
        p, prob = self.params, self.problem
        out_ndims = len(prob.batch_dims) + 2
        if self.dyn_m:
            # An external operand spanning the dynamic m dim would need a
            # runtime-padded copy per call; no target workload does this,
            # so fail loudly instead of slicing out of bounds silently.
            for tensor in self.fused.external_inputs()[2:]:
                shape = tensor.shape
                offset = out_ndims - len(shape)
                for i, dim in enumerate(shape):
                    if offset + i == out_ndims - 2 and is_symbolic(dim):
                        raise LoweringError(
                            f"{self.b.func.name}: external operand "
                            f"{tensor.name} spans the dynamic m dim"
                        )
        if not self.dyn_m and p.m == prob.m and p.n == prob.n:
            return
        if self.dyn_m and p.n == prob.n:
            return
        for tensor in self.fused.external_inputs()[2:]:
            shape = tensor.shape
            offset = out_ndims - len(shape)
            padded_shape = list(shape)
            touches = False
            for i, dim in enumerate(shape):
                role = offset + i
                if (
                    role == out_ndims - 2
                    and not self.dyn_m
                    and dim == prob.m != p.m
                ):
                    padded_shape[i] = p.m
                    touches = True
                elif role == out_ndims - 1 and dim == prob.n != p.n:
                    padded_shape[i] = p.n
                    touches = True
            if not touches:
                continue
            name = self.b.alloc(
                f"{tensor.name}_pad", tensor.dtype, tuple(padded_shape)
            )
            zeros = tuple(0 for _ in shape)
            self.b.copy(
                SliceRef(name, zeros, shape),
                SliceRef(self.arg_names[tensor.id], zeros, shape),
            )
            self.ext_pads[tensor.id] = name

    def _preallocate_value_temps(self) -> None:
        """Full-size temporaries for every post-op chain value.

        Allocated at function scope so values written per block in the nsi
        loop survive until the row-level reduction group reads them; the
        tensor-size optimization later shrinks each to the slice its
        accesses actually cover.
        """
        p, prob = self.params, self.problem
        group1 = self.fused.post_ops[: self.split]
        group2 = self.fused.post_ops[self.split :]
        for op in group1:
            out = op.outputs[0]
            self.block_temps[out.id] = self.b.alloc(
                f"pv_{out.name}",
                out.dtype,
                prob.batch_dims + (self.m_blocks, p.n // p.nb, p.mb, p.nb),
            )
        if group2:
            entry = group1[-1].outputs[0] if group1 else self.fused.matmul.outputs[0]
            if not group1 and p.npn > 1:
                # Anchor-3 reduction with NPN > 1: the raw accumulator rows
                # must be materialized across all n splits before the
                # reduction can run (the paper's "temporary tensors
                # introduced by the post-op fusion").
                self.entry_block_temp = self.b.alloc(
                    f"pv_{entry.name}",
                    entry.dtype,
                    prob.batch_dims + (self.m_blocks, p.n // p.nb, p.mb, p.nb),
                )
            self.row_temps[entry.id] = self.b.alloc(
                f"rv_{entry.name}",
                entry.dtype,
                prob.batch_dims + (self.m_blocks, p.mb, prob.n),
            )
            for op in group2:
                out = op.outputs[0]
                self.row_temps[out.id] = self.b.alloc(
                    f"rv_{out.name}",
                    out.dtype,
                    prob.batch_dims + (self.m_blocks, p.mb, out.shape[-1]),
                )

    def _emit_full_pack(
        self,
        dst: str,
        dst_block_dims: Tuple[int, ...],
        src_tensor: LogicalTensor,
        block_sizes: Tuple[int, int],
        swap_inner: bool,
        transpose_src: bool,
    ) -> None:
        """Parallel whole-tensor reorder into blocked layout (pads tails)."""
        batch_dims = src_tensor.shape[:-2]
        rows, cols = src_tensor.shape[-2:]
        with self._batch_loop(batch_dims, prefix="pk") as batch_idx:
            pfx = tuple(batch_idx)
            ones = (1,) * len(pfx)
            self.b.pack(
                dst=SliceRef(dst, pfx + (0, 0, 0, 0), ones + dst_block_dims),
                src=SliceRef(
                    self.arg_names[src_tensor.id],
                    pfx + (0, 0),
                    ones + (rows, cols),
                ),
                block_sizes=block_sizes,
                swap_inner=swap_inner,
                transpose_src=transpose_src,
            )

    # -- loop scaffolding -------------------------------------------------------------

    @contextlib.contextmanager
    def _batch_loop(
        self,
        batch_dims: Tuple[int, ...],
        prefix: str = "b",
        merge_tag: Optional[str] = None,
    ):
        """Parallel loop over flattened batch dims; yields per-dim indices."""
        if not batch_dims:
            yield []
            return
        if any(is_symbolic(d) for d in batch_dims):
            # Only the leading dim may be symbolic (validated); the trip
            # count becomes a runtime expression B * (static rest).
            rest = 1
            for d in batch_dims[1:]:
                rest *= int(d)
            total = as_expr(batch_dims[0]) * rest if rest != 1 else as_expr(
                batch_dims[0]
            )
        else:
            total = 1
            for d in batch_dims:
                total *= d
        with self.b.parallel_for(f"{prefix}i", total, merge_tag=merge_tag) as bi:
            if len(batch_dims) == 1:
                yield [bi]
                return
            strides: List[int] = []
            s = 1
            for d in reversed(batch_dims):
                strides.append(s)
                s *= int(d)
            strides.reverse()
            indices: List[Expr] = []
            for axis, d in enumerate(batch_dims):
                # Axis 0 needs no modulus: bi < total already bounds it
                # (and the extent may be symbolic).
                idx = (
                    bi // strides[axis]
                    if axis == 0
                    else (bi // strides[axis]) % int(d)
                )
                indices.append(self.b.let(f"{prefix}{axis}", idx))
            yield indices

    def _emit_main_loops(self) -> None:
        p, prob = self.params, self.problem
        tag = self.fused.merge_tag
        # Dynamic m: the parallel m loop runs over the runtime block count
        # (msn == 1, so mpsi degenerates to mpi) — one program, any batch.
        mpn = self.m_blocks if self.dyn_m else p.mpn
        if prob.batch_dims:
            with self._batch_loop(prob.batch_dims, merge_tag=tag) as batch_idx:
                with self.b.parallel_for("mpi", mpn) as mpi:
                    with self.b.parallel_for("npi", p.npn) as npi:
                        self._emit_single_core_kernel(
                            tuple(batch_idx), mpi, npi
                        )
                    self._emit_anchor3(tuple(batch_idx), mpi)
        else:
            with self.b.parallel_for("mpi", mpn, merge_tag=tag) as mpi:
                with self.b.parallel_for("npi", p.npn) as npi:
                    self._emit_single_core_kernel((), mpi, npi)
                self._emit_anchor3((), mpi)

    def _emit_anchor3(self, bpfx: Tuple[Expr, ...], mpi: Var) -> None:
        """Post-op anchor #3: reduction group after the npi loop completes.

        With NPN > 1 the n dimension is split across cores, so a fused
        n-reduction cannot run at anchor #1; the paper places it at anchor
        #3, "since at this point ... the value for the n dimension is all
        computed" — no cross-core synchronization of partial results.
        """
        if self._anchor3_work is None:
            return
        group2, entry = self._anchor3_work
        p = self.params
        with self.b.for_("msi_a3", p.msn) as msi3:
            mpsi3 = self.b.let("mpsi_a3", mpi * p.msn + msi3)
            self._emit_row_group(group2, bpfx, mpsi3, None, entry)

    def _emit_single_core_kernel(
        self, bpfx: Tuple[Expr, ...], mpi: Var, npi: Var
    ) -> None:
        """The inner msi/ksi/nsi nest of Figure 2.

        The L2_BLOCKED variant (training-size activations) adds one loop
        level chunking msi so each chunk's A slice fits L2.
        """
        p = self.params
        if p.kind is TemplateKind.L2_BLOCKED:
            with self.b.for_("mci", p.msn // p.l2_chunk) as mci:
                with self.b.for_("msj", p.l2_chunk) as msj:
                    self._emit_msi_body(
                        bpfx, mpi, npi, mci * p.l2_chunk + msj
                    )
        else:
            with self.b.for_("msi", p.msn) as msi:
                self._emit_msi_body(bpfx, mpi, npi, msi)

    def _emit_msi_body(
        self, bpfx: Tuple[Expr, ...], mpi: Var, npi: Var, msi: Expr
    ) -> None:
        p = self.params
        ones = (1,) * len(bpfx)
        if True:
            mpsi = self.b.let("mpsi", mpi * p.msn + msi)
            acc = self.b.alloc(
                "C_acc", self.acc_dtype, (p.nsn, p.mb, p.nb), thread_local=True
            )
            self.b.fill(SliceRef(acc, (0, 0, 0), (p.nsn, p.mb, p.nb)), 0.0)
            # ksi counts folded K blocks: one brgemm call (BS K-blocks) each.
            with self.b.for_("ksi", p.ksn // p.bs) as ksi:
                if self.fused.a_mode is OperandMode.PACK_SLICE:
                    # Pre-op anchor #4: pack the slab about to be consumed.
                    self.b.pack(
                        dst=SliceRef(
                            self.a_buf,
                            bpfx + (mpsi, ksi, 0, 0),
                            ones + (1, 1, p.mb, p.kfold),
                        ),
                        src=SliceRef(
                            self.arg_names[self.fused.a.id],
                            bpfx + (mpsi * p.mb, ksi * p.kfold),
                            ones + (p.mb, p.kfold),
                        ),
                        block_sizes=(p.mb, p.kfold),
                    )
                with self.b.for_("nsi", p.nsn) as nsi:
                    npsi = self.b.let("npsi", npi * p.nsn + nsi)
                    self._emit_brgemm(acc, bpfx, mpsi, ksi, nsi, npsi)
            # Post-op anchor #1: k reduction done for this row of C blocks.
            self._emit_post_ops(bpfx, npi, mpsi, acc)
            self.b.free(acc)

    def _emit_brgemm(
        self,
        acc: str,
        bpfx: Tuple[Expr, ...],
        mpsi: Expr,
        ksi: Expr,
        nsi: Var,
        npsi: Expr,
    ) -> None:
        p = self.params
        ones = (1,) * len(bpfx)
        b_batch = self.fused.b.shape[:-2]
        out_batch = self.problem.batch_dims
        offset = len(out_batch) - len(b_batch)
        b_bpfx = tuple(
            Const(0) if b_batch[i] == 1 else bpfx[offset + i]
            for i in range(len(b_batch))
        )
        self.b.brgemm(
            c=SliceRef(acc, (nsi, 0, 0), (1, p.mb, p.nb)),
            a=SliceRef(
                self.a_buf,
                bpfx + (mpsi, ksi, 0, 0),
                ones + (1, 1, p.mb, p.kfold),
            ),
            b=SliceRef(
                self.b_buf,
                b_bpfx + (ksi, npsi, 0, 0),
                (1,) * len(b_bpfx) + (1, 1, p.nb, p.kfold),
            ),
            batch=p.bs,
        )

    # -- post-op emission -----------------------------------------------------------

    def _emit_post_ops(
        self,
        bpfx: Tuple[Expr, ...],
        npi: Var,
        mpsi: Expr,
        acc: str,
    ) -> None:
        p = self.params
        group1 = self.fused.post_ops[: self.split]
        group2 = self.fused.post_ops[self.split :]
        if not group2:
            with self.b.for_("nsi_p", p.nsn) as nsi_p:
                npsi = self.b.let("npsi_p", npi * p.nsn + nsi_p)
                acc_slice = SliceRef(acc, (nsi_p, 0, 0), (1, p.mb, p.nb))
                last = self._emit_block_group(
                    self.fused.post_ops, bpfx, mpsi, npsi, acc_slice
                )
                self._store_block(bpfx, mpsi, npsi, last, acc_slice)
            return
        # Reduction path: group 1 per block; group 2 per row, either right
        # here (NPN == 1: anchor #1 covers the full row) or at anchor #3
        # after the npi loop (NPN > 1).
        entry = self.fused.matmul.outputs[0]
        if group1:
            with self.b.for_("nsi_p", p.nsn) as nsi_p:
                npsi = self.b.let("npsi_p", npi * p.nsn + nsi_p)
                acc_slice = SliceRef(acc, (nsi_p, 0, 0), (1, p.mb, p.nb))
                entry = self._emit_block_group(
                    group1, bpfx, mpsi, npsi, acc_slice
                )
        if p.npn == 1:
            self._emit_row_group(group2, bpfx, mpsi, acc, entry)
            return
        if not group1:
            # Materialize the accumulator blocks for anchor-3 consumption.
            ones = (1,) * len(bpfx)
            with self.b.for_("nsi_m", p.nsn) as nsi_m:
                npsi_m = self.b.let("npsi_m", npi * p.nsn + nsi_m)
                self.b.copy(
                    SliceRef(
                        self.entry_block_temp,
                        bpfx + (mpsi, npsi_m, 0, 0),
                        ones + (1, 1, p.mb, p.nb),
                    ),
                    SliceRef(acc, (nsi_m, 0, 0), (1, p.mb, p.nb)),
                )
        self._anchor3_work = (group2, entry)

    def _emit_block_group(
        self,
        ops: List,
        bpfx: Tuple[Expr, ...],
        mpsi: Expr,
        npsi: Expr,
        acc_slice: SliceRef,
    ) -> LogicalTensor:
        """Element-wise post-ops on one [MB, NB] block; returns last value."""
        p = self.params
        ones = (1,) * len(bpfx)
        last = self.fused.matmul.outputs[0]
        for op in ops:
            out = op.outputs[0]
            dst = SliceRef(
                self.block_temps[out.id],
                bpfx + (mpsi, npsi, 0, 0),
                ones + (1, 1, p.mb, p.nb),
            )
            srcs = [
                self._block_source(t, bpfx, mpsi, npsi, acc_slice)
                for t in op.inputs
            ]
            self.b.compute(op.kind, dst, srcs, attrs=op.attrs)
            last = out
        return last

    def _block_source(
        self,
        tensor: LogicalTensor,
        bpfx: Tuple[Expr, ...],
        mpsi: Expr,
        npsi: Expr,
        acc_slice: SliceRef,
    ) -> SliceRef:
        p = self.params
        ones = (1,) * len(bpfx)
        if tensor.id == self.fused.matmul.outputs[0].id:
            return acc_slice
        if tensor.id in self.block_temps:
            return SliceRef(
                self.block_temps[tensor.id],
                bpfx + (mpsi, npsi, 0, 0),
                ones + (1, 1, p.mb, p.nb),
            )
        return self._external_slice(
            tensor, bpfx, mpsi * p.mb, p.mb, npsi * p.nb, p.nb
        )

    def _emit_row_group(
        self,
        ops: List,
        bpfx: Tuple[Expr, ...],
        mpsi: Expr,
        acc: str,
        entry: LogicalTensor,
    ) -> None:
        """Process the reduction group on the plain [MB, N] row.

        ``acc`` is the live accumulator at anchor #1 (NPN == 1); at anchor
        #3 it is None and the entry value comes from a materialized blocked
        temporary spanning the full n dimension.
        """
        p, prob = self.params, self.problem
        ones = (1,) * len(bpfx)
        width_blocks = p.n // p.nb if acc is None else p.nsn
        # Unpack the entry row (blocked -> plain, cropping n padding).
        if entry.id == self.fused.matmul.outputs[0].id:
            if acc is not None:
                src = SliceRef(acc, (0, 0, 0), (p.nsn, p.mb, p.nb))
            else:
                src = SliceRef(
                    self.entry_block_temp,
                    bpfx + (mpsi, 0, 0, 0),
                    ones + (1, width_blocks, p.mb, p.nb),
                )
        else:
            src = SliceRef(
                self.block_temps[entry.id],
                bpfx + (mpsi, 0, 0, 0),
                ones + (1, width_blocks, p.mb, p.nb),
            )
        self.b.unpack(
            dst=SliceRef(
                self.row_temps[entry.id],
                bpfx + (mpsi, 0, 0),
                ones + (1, p.mb, prob.n),
            ),
            src=src,
            block_sizes=(p.mb, p.nb),
        )
        last = entry
        for op in ops:
            out = op.outputs[0]
            cols = out.shape[-1]
            dst = SliceRef(
                self.row_temps[out.id],
                bpfx + (mpsi, 0, 0),
                ones + (1, p.mb, cols),
            )
            srcs: List[Union[SliceRef, float]] = []
            for t in op.inputs:
                if t.id in self.row_temps:
                    srcs.append(
                        SliceRef(
                            self.row_temps[t.id],
                            bpfx + (mpsi, 0, 0),
                            ones + (1, p.mb, t.shape[-1]),
                        )
                    )
                else:
                    srcs.append(
                        self._external_slice(
                            t, bpfx, mpsi * p.mb, p.mb, Const(0), prob.n
                        )
                    )
            attrs = dict(op.attrs)
            if get_schema(op.kind).is_reduction:
                attrs["axis"] = -1
                attrs["keepdims"] = True
            self.b.compute(op.kind, dst, srcs, attrs=attrs)
            last = out
        self._store_row(bpfx, mpsi, self.row_temps[last.id], last.shape[-1])

    # -- stores ---------------------------------------------------------------------

    def _store_block(
        self,
        bpfx: Tuple[Expr, ...],
        mpsi: Expr,
        npsi: Expr,
        value: LogicalTensor,
        acc_slice: SliceRef,
    ) -> None:
        p = self.params
        ones = (1,) * len(bpfx)
        if value.id == self.fused.matmul.outputs[0].id:
            src = acc_slice
        else:
            src = SliceRef(
                self.block_temps[value.id],
                bpfx + (mpsi, npsi, 0, 0),
                ones + (1, 1, p.mb, p.nb),
            )
        group = self.c_block_n // p.nb
        if group:
            block, col = (
                (npsi, 0)
                if group == 1
                else (npsi // group, (npsi % group) * p.nb)
            )
            dst = SliceRef(
                self.c_target,
                bpfx + (mpsi, block, 0, col),
                ones + (1, 1, p.mb, p.nb),
            )
        else:
            dst = SliceRef(
                self.c_target,
                bpfx + (mpsi * p.mb, npsi * p.nb),
                ones + (p.mb, p.nb),
            )
        self.b.copy(dst, src)

    def _store_row(
        self, bpfx: Tuple[Expr, ...], mpsi: Expr, row_buf: str, cols: int
    ) -> None:
        p = self.params
        ones = (1,) * len(bpfx)
        src = SliceRef(row_buf, bpfx + (mpsi, 0, 0), ones + (1, p.mb, cols))
        if self.c_block_n:
            self.b.pack(
                dst=SliceRef(
                    self.c_target,
                    bpfx + (mpsi, 0, 0, 0),
                    ones + (1, p.n // self.c_block_n, p.mb, self.c_block_n),
                ),
                src=src,
                block_sizes=(p.mb, self.c_block_n),
            )
        else:
            dst = SliceRef(
                self.c_target, bpfx + (mpsi * p.mb, 0), ones + (p.mb, cols)
            )
            self.b.copy(dst, src)

    def _emit_output_crop(self) -> None:
        out = self.fused.output
        shape = out.shape
        zeros = tuple(0 for _ in shape)
        self.b.copy(
            SliceRef(self.arg_names[out.id], zeros, shape),
            SliceRef(self.c_target, zeros, shape),
        )

    # -- external operand slicing ------------------------------------------------------

    def _external_slice(
        self,
        tensor: LogicalTensor,
        bpfx: Tuple[Expr, ...],
        m_off: Expr,
        m_size: int,
        n_off: Expr,
        n_size: int,
    ) -> SliceRef:
        """Slice an external post-op operand congruent with the C slice.

        The operand broadcasts right-aligned against the output's logical
        shape ``(batch..., M, N)``; size-1 dims slice at offset 0.
        """
        prob = self.problem
        buf = self.ext_pads.get(tensor.id, self.arg_names[tensor.id])
        out_ndims = len(prob.batch_dims) + 2
        shape = tensor.shape
        offset = out_ndims - len(shape)
        if offset < 0:
            raise LoweringError(
                f"external operand {tensor.name} has more dims than the "
                f"fused output"
            )
        offs: List[Expr] = []
        sizes: List[int] = []
        for i, dim in enumerate(shape):
            role = offset + i
            if dim == 1:
                offs.append(Const(0))
                sizes.append(1)
            elif role == out_ndims - 2:
                offs.append(m_off)
                sizes.append(m_size)
            elif role == out_ndims - 1:
                offs.append(n_off)
                sizes.append(n_size)
            else:
                offs.append(bpfx[role])
                sizes.append(1)
        return SliceRef(buf, tuple(offs), tuple(sizes))

    # -- k-sliced variant --------------------------------------------------------------

    def _emit_k_sliced(self) -> None:
        """K_SLICED template: parallel partial GEMMs plus a combine pass.

        Each k-slice accumulates into its own plane of a shared temporary;
        after a barrier, a parallel combine sums the planes and applies the
        (element-wise) post-op chain.
        """
        p, prob = self.params, self.problem
        if prob.batch_dims:
            raise LoweringError("k-sliced template supports 2-D matmuls only")
        if self.split < len(self.fused.post_ops):
            raise LoweringError(
                "k-sliced template cannot fuse reduction post-ops"
            )
        partial = self.b.alloc(
            "C_part",
            self.acc_dtype,
            (p.kpn, p.m // p.mb, p.n // p.nb, p.mb, p.nb),
        )
        with self.b.parallel_for("kpi", p.kpn) as kpi:
            with self.b.parallel_for("mpi", p.mpn) as mpi:
                with self.b.parallel_for("npi", p.npn) as npi:
                    with self.b.for_("msi", p.msn) as msi:
                        mpsi = self.b.let("mpsi", mpi * p.msn + msi)
                        acc = self.b.alloc(
                            "C_acc",
                            self.acc_dtype,
                            (p.nsn, p.mb, p.nb),
                            thread_local=True,
                        )
                        self.b.fill(
                            SliceRef(acc, (0, 0, 0), (p.nsn, p.mb, p.nb)), 0.0
                        )
                        with self.b.for_("ksi", p.ksn // p.bs) as ksi:
                            kpsi = self.b.let(
                                "kpsi", kpi * (p.ksn // p.bs) + ksi
                            )
                            with self.b.for_("nsi", p.nsn) as nsi:
                                npsi = self.b.let("npsi", npi * p.nsn + nsi)
                                self.b.brgemm(
                                    c=SliceRef(
                                        acc, (nsi, 0, 0), (1, p.mb, p.nb)
                                    ),
                                    a=SliceRef(
                                        self.a_buf,
                                        (mpsi, kpsi, 0, 0),
                                        (1, 1, p.mb, p.kfold),
                                    ),
                                    b=SliceRef(
                                        self.b_buf,
                                        (kpsi, npsi, 0, 0),
                                        (1, 1, p.nb, p.kfold),
                                    ),
                                    batch=p.bs,
                                )
                        with self.b.for_("nsw", p.nsn) as nsw:
                            npsw = self.b.let("npsw", npi * p.nsn + nsw)
                            self.b.copy(
                                SliceRef(
                                    partial,
                                    (kpi, mpsi, npsw, 0, 0),
                                    (1, 1, 1, p.mb, p.nb),
                                ),
                                SliceRef(acc, (nsw, 0, 0), (1, p.mb, p.nb)),
                            )
                        self.b.free(acc)
        self.b.barrier("k-slice combine")
        with self.b.parallel_for("cmi", p.m // p.mb) as cmi:
            with self.b.for_("cni", p.n // p.nb) as cni:
                acc = self.b.alloc(
                    "C_sum", self.acc_dtype, (p.mb, p.nb), thread_local=True
                )
                self.b.copy(
                    SliceRef(acc, (0, 0), (p.mb, p.nb)),
                    SliceRef(
                        partial, (0, cmi, cni, 0, 0), (1, 1, 1, p.mb, p.nb)
                    ),
                )
                with self.b.for_("kpc", p.kpn, begin=1) as kpc:
                    self.b.compute(
                        "add",
                        SliceRef(acc, (0, 0), (p.mb, p.nb)),
                        [
                            SliceRef(acc, (0, 0), (p.mb, p.nb)),
                            SliceRef(
                                partial,
                                (kpc, cmi, cni, 0, 0),
                                (1, 1, 1, p.mb, p.nb),
                            ),
                        ],
                    )
                acc_slice = SliceRef(acc, (0, 0), (p.mb, p.nb))
                last = self._emit_block_group(
                    self.fused.post_ops, (), cmi, cni, acc_slice
                )
                self._store_block((), cmi, cni, last, acc_slice)
                self.b.free(acc)
        self.b.free(partial)
