"""``compile_graph`` spelled out stage by stage, so that a benchmark-side
span fits around each public call the compiler driver makes.

The sequence mirrors ``repro.core.compiler.compile_graph`` under default
options: every pass of ``default_pipeline()`` with validation after it,
``lower_graph``, the Tensor IR passes on the main and init modules, and
the ``CompiledPartition`` constructor.
"""

from __future__ import annotations

from repro import XEON_8358
from repro.graph_ir.passes import CompileContext, default_pipeline
from repro.lowering.lower_graph import lower_graph
from repro.runtime.partition import CompiledPartition
from repro.tensor_ir.passes import (
    BufferReusePass,
    LoopMergePass,
    SimplifyPass,
    TensorShrinkPass,
)

from . import adapters

#: The spans whose sum is one cold start (time to first result).
COLD_START_STAGES = (
    "graph_ir.passes",
    "lowering.lower_graph",
    "tensor_ir.passes",
    "runtime.partition_build",
    "runtime.first_execute",
)


def staged_compile(graph, recorder, op=None) -> CompiledPartition:
    """What ``compile_graph`` does, one public call per stage."""
    ctx = CompileContext(
        machine=XEON_8358, options=adapters.compiler_options()
    )
    with recorder.span("graph_ir.passes", op=op):
        for graph_pass in default_pipeline():
            with recorder.span(f"graph_ir.{graph_pass.name}", op=op):
                graph = graph_pass.run(graph, ctx)
            with recorder.span("graph_ir.validate", op=op):
                graph.validate()
    with recorder.span("lowering.lower_graph", op=op):
        lowered = lower_graph(graph, ctx)
    with recorder.span("tensor_ir.passes", op=op):
        stages = [
            (SimplifyPass(), lowered.module),
            (LoopMergePass(), lowered.module),
            (TensorShrinkPass(), lowered.module),
            (BufferReusePass(), lowered.module),
        ]
        if lowered.init_module is not None:
            stages += [
                (SimplifyPass(), lowered.init_module),
                (TensorShrinkPass(), lowered.init_module),
            ]
        for tir_pass, module in stages:
            with recorder.span(f"tensor_ir.{tir_pass.name}", op=op):
                tir_pass.run(module)
    with recorder.span("runtime.partition_build", op=op):
        return adapters.build_partition(lowered)
