"""The one place the benchmark names constructor keyword arguments.

Every fixed setting of the benchmark (codegen executor, one partition
thread, exact-batch serving, two workers) is passed from here, and only
if the constructor still accepts it: a later PR that deletes a keyword
(because its value became the only behaviour) need not edit the
benchmark.  ``settings()`` reports what is actually passed, and the
benchmark records it beside every result.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict

from repro import CompilerOptions, compile_graph
from repro.runtime.partition import CompiledPartition
from repro.service import InferenceSession, ShardedSession

_OPTIONS = {"executor": "codegen"}
_COMPILE = {"num_threads": 1}
_SESSION = {"num_threads": 1, "dynamic_batch": "on"}
_FLEET = {"num_workers": 2, "num_threads": 1, "dynamic_batch": "on"}


def _supported(target: Callable, wanted: Dict[str, Any]) -> Dict[str, Any]:
    """The subset of ``wanted`` that ``target`` still takes by keyword."""
    params = inspect.signature(target).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return dict(wanted)
    return {key: value for key, value in wanted.items() if key in params}


def compiler_options() -> CompilerOptions:
    return CompilerOptions(**_supported(CompilerOptions, _OPTIONS))


def compile_partition(graph):
    """``compile_graph`` under the benchmark's fixed settings."""
    return compile_graph(
        graph,
        options=compiler_options(),
        **_supported(compile_graph, _COMPILE),
    )


def build_partition(lowered) -> CompiledPartition:
    """The constructor ``compile_graph`` ends with, same settings."""
    return CompiledPartition(
        lowered, **_supported(CompiledPartition.__init__, _COMPILE)
    )


def inference_session(builder, weights, batching: str) -> InferenceSession:
    return InferenceSession(
        builder,
        weights,
        options=compiler_options(),
        batching=batching,
        **_supported(InferenceSession.__init__, _SESSION),
    )


def sharded_session(specs) -> ShardedSession:
    return ShardedSession(
        specs,
        options=compiler_options(),
        **_supported(ShardedSession.__init__, _FLEET),
    )


def settings() -> Dict[str, Dict[str, Any]]:
    """The keyword arguments each constructor is given, by name."""
    return {
        "CompilerOptions": _supported(CompilerOptions, _OPTIONS),
        "compile_graph": _supported(compile_graph, _COMPILE),
        "InferenceSession": _supported(InferenceSession.__init__, _SESSION),
        "ShardedSession": _supported(ShardedSession.__init__, _FLEET),
    }
