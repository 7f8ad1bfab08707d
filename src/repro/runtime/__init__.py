"""Runtime: Tensor IR executors, memory arena and compiled partitions.

In the paper, Tensor IR is lowered to LLVM IR plus microkernel calls.
Here the same Tensor IR is executed by one of two backends:

* :class:`~repro.runtime.codegen.CodegenExecutor` — the default and the
  one optimising backend: each Tensor IR function is ``exec``-generated
  once as one Python code object (literal loops, inline slice
  subscripts, locals instead of environment dicts, pooled temporaries)
  and run on the partition's persistent thread pool;
* :class:`~repro.runtime.interpreter.Interpreter` — the reference
  backend: walks the statement tree per call.

All compiler decisions (fusion, layout, blocking, buffer reuse) are
taken *before* this stage, so both backends exercise exactly the code
structure the paper generates; the differential tests assert they are
bit-identical.
"""

from .codegen import CodegenExecutor
from .interpreter import ExecutionStats, Interpreter
from .partition import EXECUTOR_BACKENDS, CompiledPartition

__all__ = [
    "CodegenExecutor",
    "CompiledPartition",
    "EXECUTOR_BACKENDS",
    "ExecutionStats",
    "Interpreter",
]
