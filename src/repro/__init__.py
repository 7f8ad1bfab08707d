"""repro: a reproduction of the oneDNN Graph Compiler (CGO 2024).

A hybrid tensor compiler for DNN computation subgraphs: expert-tuned
batch-reduce GEMM microkernels plus two levels of compiler IR (Graph IR and
Tensor IR), with the paper's domain-specific optimizations — low-precision
conversion, constant-weight preprocessing, layout propagation, fine-grain
(anchor-based) and coarse-grain fusion, tensor-size and buffer-reuse
optimization.

Quickstart::

    import numpy as np
    from repro import DType, GraphBuilder, compile_graph

    b = GraphBuilder("mlp")
    x = b.input("x", DType.f32, (64, 512))
    w = b.constant("w", dtype=DType.f32, shape=(512, 256))  # runtime const
    b.output(b.relu(b.matmul(x, w)))
    partition = compile_graph(b.finish())
    out = partition.execute({
        "x": np.random.randn(64, 512).astype(np.float32),
        "w": np.random.randn(512, 256).astype(np.float32),
    })
"""

from .core.compiler import (
    add_compile_hook,
    compile_counter,
    compile_graph,
    remove_compile_hook,
)
from .core.options import CompilerOptions
from .dtypes import DType
from .graph_ir import Graph, GraphBuilder, format_graph
from .microkernel.machine import MachineModel, XEON_8358
from .observability import (
    MetricsRegistry,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_registry,
    get_tracer,
    write_chrome_trace,
)
from .runtime.partition import CompiledPartition
from .errors import SessionClosedError, WorkerCrashError
from .service import (
    BatchingEngine,
    BatchingStats,
    InferenceSession,
    ModelSpec,
    PartitionCache,
    ServiceStats,
    ShardedSession,
    ShardedStats,
    graph_signature,
)
from .tuner import (
    MatmulTuner,
    TuningCache,
    TuningResult,
    add_tuning_hook,
    get_tuning_cache,
    remove_tuning_hook,
)

__version__ = "1.3.0"

__all__ = [
    "compile_graph",
    "compile_counter",
    "add_compile_hook",
    "remove_compile_hook",
    "CompilerOptions",
    "DType",
    "Graph",
    "GraphBuilder",
    "format_graph",
    "MachineModel",
    "XEON_8358",
    "CompiledPartition",
    "BatchingEngine",
    "BatchingStats",
    "InferenceSession",
    "ModelSpec",
    "PartitionCache",
    "ServiceStats",
    "SessionClosedError",
    "ShardedSession",
    "ShardedStats",
    "WorkerCrashError",
    "graph_signature",
    "MatmulTuner",
    "TuningCache",
    "TuningResult",
    "add_tuning_hook",
    "remove_tuning_hook",
    "get_tuning_cache",
    "MetricsRegistry",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_registry",
    "get_tracer",
    "write_chrome_trace",
    "__version__",
]
