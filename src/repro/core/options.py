"""Compiler options.

The toggles mirror the configurations the paper evaluates: the full
compiler, the compiler with coarse-grain fusion disabled (the "middle
setting" of Figure 8), and individual Tensor IR optimizations for ablation
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CompilerOptions:
    """Feature toggles for one compilation."""

    #: Rewrite dequantize/matmul/quantize islands to int8 + compensation.
    enable_low_precision: bool = True
    #: Coarse-grain fusion: merge outer parallel loops of fused ops.
    enable_coarse_grain_fusion: bool = True
    #: Tensor size optimization (shrink full-size anchor temporaries).
    enable_tensor_shrink: bool = True
    #: Memory buffer reuse (arena planning for intermediates).
    enable_buffer_reuse: bool = True
    #: Constant-weight preprocessing (init-graph split + caching).
    enable_constant_cache: bool = True
    #: Runtime backend executing the lowered Tensor IR.  ``"codegen"``
    #: ``exec``-generates one Python code object per Tensor IR function
    #: once (literal loops, inline slice subscripts, locals instead of
    #: dict environments) and runs it on a persistent thread pool;
    #: ``"interpret"`` re-walks the IR tree on every call — slower, but
    #: the reference semantics codegen is differential-tested against.
    #: The chosen value folds into ``graph_signature``, so partitions
    #: compiled under different backends never share cache entries.
    executor: str = "codegen"
    #: Template-parameter selection: ``"off"`` uses the expert heuristic
    #: only; ``"cached-only"`` serves previously tuned configs but never
    #: searches; ``"model"`` tunes with the analytical cost model;
    #: ``"measured"`` additionally re-ranks the model's finalists by real
    #: compile-and-execute timing.  See :mod:`repro.tuner`.
    tuning: str = "off"
    #: Where the persistent tuning cache lives (JSON).  ``None`` keeps a
    #: process-wide in-memory cache.
    tuning_cache_path: Optional[str] = None
    #: Max candidates the tuner's search may evaluate per matmul.
    tuning_budget: int = 512
    #: Seed for the tuner's randomized search (deterministic per seed).
    tuning_seed: int = 0

    @staticmethod
    def no_coarse_fusion() -> "CompilerOptions":
        """The paper's middle configuration in Figure 8."""
        return CompilerOptions(enable_coarse_grain_fusion=False)

    @staticmethod
    def tuned(
        mode: str = "model", cache_path: Optional[str] = None
    ) -> "CompilerOptions":
        """Options with autotuned template-parameter selection."""
        return CompilerOptions(tuning=mode, tuning_cache_path=cache_path)
