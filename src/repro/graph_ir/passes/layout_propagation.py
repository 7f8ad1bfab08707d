"""Layout propagation and per-matmul template parameter selection.

For every Tunable OP (matmul), this pass

1. analyzes fusion intent (a downstream fusible n-reduction pins NPN=1),
2. runs the expert heuristic to select template parameters,
3. negotiates blocked layouts between chained matmuls: a consumer queries
   its desired blocked layouts, and if the producer's output blocking is
   acceptable (within a cost tolerance), the intermediate tensor stays
   blocked end-to-end with no reorder — the producer writes it directly
   in the consumer's folded A layout ``[M/MB, K/(BS*KB), MB, BS*KB]`` —
   otherwise the consumer packs its input itself (fused reorder pre-op),
   and
4. inserts reorder ops for constant weights into the folded B layout
   ``[K/(BS*KB), N/NB, NB, BS*KB]``, which constant-weight preprocessing
   later moves into the one-time init function.

Every blocked operand thus reaches the microkernel as one contiguous
``[MB|NB, BS*KB]`` block per call, written once by its producer.

Graph inputs and outputs always keep plain layouts, as in the paper.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ...dtypes import DType
from ...errors import HeuristicError
from ...templates.cost_model import estimate_matmul_cost
from ...templates.heuristics import (
    HeuristicConstraints,
    select_matmul_params,
)
from ...templates.params import MatmulParams
from ..fused_op import OperandMode
from ..graph import Graph
from ..layout import BlockedLayout, blocked_2d
from ..logical_tensor import LogicalTensor
from ..op import Op
from ..op_registry import get_schema
from ..symbolic import is_symbolic
from .pass_base import CompileContext, GraphPass

#: Accept a producer's layout if the constrained parameters cost at most
#: this factor of the unconstrained optimum.
LAYOUT_MATCH_TOLERANCE = 1.15

#: How many fusible ops to look through when detecting a downstream
#: n-reduction (softmax) that wants NPN=1.
REDUCTION_LOOKAHEAD = 10


def matmul_geometry(op: Op):
    """(batch_total, m, n, k) of a matmul op."""
    out = op.outputs[0].shape
    m, n = out[-2:]
    a_shape = op.inputs[0].shape
    k = a_shape[-2] if op.attr("transpose_a") else a_shape[-1]
    batch = 1
    for d in out[:-2]:
        batch *= d
    return batch, m, n, k


def weight_blocked_layout(
    kb: int, nb: int, transposed: bool, ndims: int = 2
) -> BlockedLayout:
    """The B-operand layout ``[K/kb, N/NB, NB, kb]`` on a weight tensor.

    Templates pass ``kb = BS * KB`` (``MatmulParams.kfold``): each
    ``[NB, BS*KB]`` block is the contiguous B operand of one microkernel
    call.  ``transposed`` means the logical weight is stored ``[n, k]``
    (``transpose_b=True``); the physical layout is identical either way.
    """
    k_axis, n_axis = (ndims - 1, ndims - 2) if transposed else (ndims - 2, ndims - 1)
    outer = tuple(range(ndims - 2)) + (k_axis, n_axis)
    return BlockedLayout(
        ndims=ndims,
        outer_order=outer,
        inner_blocks=((n_axis, nb), (k_axis, kb)),
    )


class LayoutPropagationPass(GraphPass):
    name = "layout_propagation"

    def run(self, graph: Graph, ctx: CompileContext) -> Graph:
        #: op.id -> the params the *hint-sized static* program would pick;
        #: dynamic-m negotiation consults this shadow map so its k-geometry
        #: (and thus its numerics) matches the static hint-sized program.
        self._hint_params: Dict[int, MatmulParams] = {}
        consumers = graph.consumer_map()
        producers = graph.producer_map()
        for op in graph.topological_order():
            if op.kind != "matmul":
                continue
            self._process_matmul(graph, op, producers, consumers, ctx)
            # Reorders may have been inserted; refresh the maps.
            producers = graph.producer_map()
            consumers = graph.consumer_map()
        return graph

    # -- per-matmul processing ----------------------------------------------

    def _process_matmul(
        self,
        graph: Graph,
        op: Op,
        producers: Dict[int, Op],
        consumers: Dict[int, list],
        ctx: CompileContext,
    ) -> None:
        batch, m, n, k = matmul_geometry(op)
        dtype = op.inputs[0].dtype
        base = HeuristicConstraints(
            require_npn=1
            if _wants_n_reduction(graph, op, consumers)
            else None
        )
        selector = ctx.param_selector or select_matmul_params
        if is_symbolic(m):
            params, a_mode = self._plan_dynamic_m(
                graph, op, producers, ctx, base, batch, m, n, k, dtype,
                selector,
            )
        else:
            best = selector(
                m, n, k, dtype, ctx.machine, batch=batch, constraints=base
            )
            best_cost = estimate_matmul_cost(
                best, dtype, ctx.machine, original_sizes=(m, n, k)
            ).total_cycles

            params, a_mode = self._negotiate_a_layout(
                graph, op, producers, ctx, base, best, best_cost,
                batch, m, n, k, dtype,
            )
        b_mode = self._plan_b_operand(graph, op, params, ctx)

        ctx.matmul_params[op.id] = params
        ctx.a_modes[op.id] = a_mode
        ctx.b_modes[op.id] = b_mode
        ctx.note(
            f"layout: {op.name} -> {params.describe()} "
            f"a={a_mode.value} b={b_mode.value}"
        )

    def _plan_dynamic_m(
        self,
        graph: Graph,
        op: Op,
        producers: Dict[int, Op],
        ctx: CompileContext,
        base: HeuristicConstraints,
        batch: int,
        m,
        n: int,
        k: int,
        dtype: DType,
        selector,
    ):
        """Parameter planning for a matmul whose m is a symbolic dim.

        Strategy: decide exactly as the *hint-sized static* program would
        (same selection, same producer-layout negotiation, via the shadow
        ``_hint_params`` map), then canonicalize the m-grid so the program
        is valid for every runtime m — one m-block per parallel task (the
        template emits a runtime-count block loop), no k-slicing (its
        combine grid is m-dependent), no L2 m-chunking.  nb/kb/bs — the
        dims that determine per-row numerics — keep the hint program's
        choice, so rows come out bit-identical to the static hint-sized
        program.  The A operand is always a full runtime-geometry pack:
        BLOCKED sharing and PACK_SLICE key on static m equalities.
        """
        from ...templates.params import TemplateKind

        hint = int(m)
        hint_best = selector(
            hint, n, k, dtype, ctx.machine, batch=batch, constraints=base
        )
        hint_cost = estimate_matmul_cost(
            hint_best, dtype, ctx.machine, original_sizes=(hint, n, k)
        ).total_cycles
        hint_params = self._hint_negotiate(
            graph, op, producers, ctx, base, hint_best, hint_cost,
            batch, hint, n, k, dtype,
        )
        self._hint_params[op.id] = hint_params
        params = dataclasses.replace(
            hint_params,
            m=hint_params.mb,
            mpn=1,
            kpn=1,
            l2_chunk=0,
            kind=TemplateKind.CACHE_RESIDENT,
        )
        return params, OperandMode.PACK_FULL

    def _hint_negotiate(
        self,
        graph: Graph,
        op: Op,
        producers: Dict[int, Op],
        ctx: CompileContext,
        base: HeuristicConstraints,
        best: MatmulParams,
        best_cost: float,
        batch: int,
        m: int,
        n: int,
        k: int,
        dtype: DType,
    ) -> MatmulParams:
        """Side-effect-free mirror of :meth:`_negotiate_a_layout`.

        Returns the params the hint-sized static program would use, with
        the producer looked up in the ``_hint_params`` shadow map (the real
        map holds the canonicalized dynamic params, whose m-grid would
        fail the chainable equalities the static program passes).  Never
        touches layouts or modes — only the parameter choice matters here.
        """
        from ...templates.params import TemplateKind

        a = op.inputs[0]
        producer = _producing_matmul(graph, a, producers, ctx)
        prod_params = (
            self._hint_params.get(producer.id)
            if producer is not None
            else None
        )
        chainable = (
            prod_params is not None
            and not op.attr("transpose_a", False)
            and not graph.is_output(a)
            and len(graph.consumers(a)) == 1
            and prod_params.batch == batch
        )
        if chainable:
            forced = self._try_constrained(
                m, n, k, dtype, ctx, batch,
                HeuristicConstraints(
                    require_npn=base.require_npn,
                    require_mb=prod_params.mb,
                    require_kb=prod_params.nb,
                    require_mpn=prod_params.mpn,
                ),
            )
            blocks_only_padding = forced is not None and (
                forced.m == -(-m // forced.mb) * forced.mb
                and forced.k == -(-k // forced.kb) * forced.kb
            )
            if (
                forced is not None
                and blocks_only_padding
                and forced.m == prod_params.m
                and forced.k == prod_params.n
            ):
                forced_cost = estimate_matmul_cost(
                    forced, dtype, ctx.machine, original_sizes=(m, n, k)
                ).total_cycles
                if forced_cost <= LAYOUT_MATCH_TOLERANCE * best_cost:
                    return forced
        if (
            prod_params is not None
            and prod_params.m == best.m
            and prod_params.mpn != best.mpn
            and prod_params.kind is TemplateKind.CACHE_RESIDENT
        ):
            aligned = self._try_constrained(
                m, n, k, dtype, ctx, batch,
                HeuristicConstraints(
                    require_npn=base.require_npn,
                    require_mpn=prod_params.mpn,
                ),
            )
            if aligned is not None and aligned.m == prod_params.m:
                aligned_cost = estimate_matmul_cost(
                    aligned, dtype, ctx.machine, original_sizes=(m, n, k)
                ).total_cycles
                if aligned_cost <= LAYOUT_MATCH_TOLERANCE * best_cost:
                    return aligned
        return best

    def _negotiate_a_layout(
        self,
        graph: Graph,
        op: Op,
        producers: Dict[int, Op],
        ctx: CompileContext,
        base: HeuristicConstraints,
        best: MatmulParams,
        best_cost: float,
        batch: int,
        m: int,
        n: int,
        k: int,
        dtype: DType,
    ):
        """Try to consume the producing matmul's blocked output directly."""
        a = op.inputs[0]
        producer = _producing_matmul(graph, a, producers, ctx)
        prod_params = (
            ctx.matmul_params.get(producer.id) if producer is not None else None
        )
        chainable = (
            prod_params is not None
            and not op.attr("transpose_a", False)
            and not graph.is_output(a)
            and len(graph.consumers(a)) == 1
            and prod_params.batch == batch
        )
        if chainable:
            forced = self._try_constrained(
                m, n, k, dtype, ctx, batch,
                HeuristicConstraints(
                    require_npn=base.require_npn,
                    require_mb=prod_params.mb,
                    require_kb=prod_params.nb,
                    require_mpn=prod_params.mpn,
                ),
            )
            blocks_only_padding = forced is not None and (
                # The shared buffer's physical shape comes from the layout,
                # which pads to block multiples only; parallel-grid padding
                # beyond that would make the shapes disagree.
                forced.m == -(-m // forced.mb) * forced.mb
                and forced.k == -(-k // forced.kb) * forced.kb
            )
            if (
                forced is not None
                and blocks_only_padding
                and forced.m == prod_params.m
                and forced.k == prod_params.n
            ):
                forced_cost = estimate_matmul_cost(
                    forced, dtype, ctx.machine, original_sizes=(m, n, k)
                ).total_cycles
                if forced_cost <= LAYOUT_MATCH_TOLERANCE * best_cost:
                    # Producer writes its output in this op's folded A
                    # layout [MB, BS*KB]; no reorder at all.
                    a.layout = blocked_2d(
                        forced.mb, forced.kfold, ndims=a.ndims
                    )
                    ctx.note(
                        f"layout: {op.name} consumes {producer.name} output "
                        f"blocked ({forced.mb}x{forced.kfold})"
                    )
                    return forced, OperandMode.BLOCKED
        # Fall back: plain input, packed by this op.  Even without a shared
        # blocked layout, align the outer m-split with the producing matmul
        # ("choose the outermost loop blocking factor best aligned ... so
        # each instantiated fused op has the same blocking factors as its
        # neighbor") so coarse-grain fusion can merge the parallel loops.
        from ...templates.params import TemplateKind

        if (
            prod_params is not None
            and prod_params.m == best.m
            and prod_params.mpn != best.mpn
            and prod_params.kind is TemplateKind.CACHE_RESIDENT
        ):
            aligned = self._try_constrained(
                m, n, k, dtype, ctx, batch,
                HeuristicConstraints(
                    require_npn=base.require_npn,
                    require_mpn=prod_params.mpn,
                ),
            )
            if aligned is not None and aligned.m == prod_params.m:
                aligned_cost = estimate_matmul_cost(
                    aligned, dtype, ctx.machine, original_sizes=(m, n, k)
                ).total_cycles
                if aligned_cost <= LAYOUT_MATCH_TOLERANCE * best_cost:
                    best = aligned
        if (
            best.kind is TemplateKind.CACHE_RESIDENT
            and m == best.m
            and k == best.k
            and m % best.mb == 0
            and k % best.kb == 0
            and not op.attr("transpose_a", False)
        ):
            return best, OperandMode.PACK_SLICE
        return best, OperandMode.PACK_FULL

    def _try_constrained(
        self, m, n, k, dtype, ctx, batch, constraints
    ) -> Optional[MatmulParams]:
        selector = ctx.param_selector or select_matmul_params
        try:
            return selector(
                m,
                n,
                k,
                dtype,
                ctx.machine,
                batch=batch,
                constraints=constraints,
            )
        except HeuristicError:
            return None

    def _plan_b_operand(
        self, graph: Graph, op: Op, params: MatmulParams, ctx: CompileContext
    ) -> OperandMode:
        """Constant weights get a reorder op (cached at init); activations
        are packed inside the fused op."""
        b = op.inputs[1]
        transposed = bool(op.attr("transpose_b", False))
        if not b.is_constant:
            return OperandMode.PACK_FULL
        layout = weight_blocked_layout(
            params.kfold, params.nb, transposed, ndims=b.ndims
        )
        # Pad the logical dims to the template's grid (parallel-split
        # padding can exceed plain block-multiple padding).
        padded = list(b.shape)
        k_axis, n_axis = (
            (b.ndims - 1, b.ndims - 2) if transposed else (b.ndims - 2, b.ndims - 1)
        )
        padded[k_axis] = params.k
        padded[n_axis] = params.n
        reordered = LogicalTensor(
            dtype=b.dtype,
            shape=tuple(padded),
            layout=layout,
            prop=b.prop,
            name=f"{b.name}_blk",
        )
        reorder = Op(
            kind="reorder",
            inputs=[b],
            outputs=[reordered],
            attrs={"layout": layout, "pad_to": tuple(padded)},
            name=f"reorder_{b.name}",
        )
        index = graph.ops.index(op)
        graph.ops.insert(index, reorder)
        op.inputs[1] = reordered
        ctx.note(f"layout: prepacking weight {b.name} -> {layout.tag()}")
        return OperandMode.BLOCKED


def _producing_matmul(
    graph: Graph,
    tensor: LogicalTensor,
    producers: Dict[int, Op],
    ctx: CompileContext,
    max_depth: int = 12,
) -> Optional[Op]:
    """The matmul whose fused region will produce ``tensor``.

    Walks up through element-wise fusible ops (the post-op chain fine-grain
    fusion will absorb); returns the matmul op, or None.
    """
    current = tensor
    for _ in range(max_depth):
        producer = producers.get(current.id)
        if producer is None:
            return None
        if producer.kind == "matmul":
            return producer
        schema = get_schema(producer.kind)
        if not schema.is_elementwise:
            return None
        current = producer.inputs[0]
    return None


def _wants_n_reduction(graph: Graph, op: Op, consumers: Dict[int, list]) -> bool:
    """Lookahead: does a fusible reduction along n follow this matmul?"""
    current = op.outputs[0]
    for _ in range(REDUCTION_LOOKAHEAD):
        users = consumers.get(current.id, [])
        if len(users) == 0:
            return False
        # Softmax-style DAGs have up to two users (reduce + the residual
        # element-wise op); inspect all of them.
        for user in users:
            schema = get_schema(user.kind) if user.kind in _known_kinds() else None
            if schema is None:
                return False
            if schema.is_reduction:
                axis = user.attr("axis")
                ndims = user.inputs[0].ndims
                axes = (
                    tuple(range(ndims))
                    if axis is None
                    else ((axis,) if isinstance(axis, int) else tuple(axis))
                )
                if any(x % ndims == ndims - 1 for x in axes):
                    return True
        # Follow the first element-wise consumer.
        follow = None
        for user in users:
            schema = get_schema(user.kind)
            if schema.is_elementwise:
                follow = user
                break
        if follow is None:
            return False
        current = follow.outputs[0]
    return False


def _known_kinds():
    from ..op_registry import OP_REGISTRY

    return OP_REGISTRY
