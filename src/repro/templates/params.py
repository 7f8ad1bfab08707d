"""Template parameters for the matmul Tunable OP (paper Figure 2).

The heuristic chooses the *free* parameters

* ``MPN, NPN`` — how many single-core kernels the multi-core kernel splits
  into along m and n (the outer parallel loops),
* ``MB, NB, KB`` — the microkernel submatrix block sizes,
* ``BS`` — the batch of K-blocks reduced by one microkernel call,
* the ordering of the single-core loops (``msi``, ``ksi``, ``nsi``),

and everything else in Figure 2's table is derived:

* ``MSN = M / (MB * MPN)`` — microkernels per single-core kernel along m,
* ``NSN = N / (NB * NPN)``, ``KSN = K / KB`` likewise,
* ``MPSN = M / MB`` — microkernels along m in the whole multi-core kernel,
* tensor slice sizes ``MSBN = MB * MSN`` etc.

Sizes here are the *padded* problem sizes: the heuristic rounds M, N, K up
to the chosen block grid, and the lowering pads/unpads at the graph entry
and exit (fused into the Tunable OP), as the paper describes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Tuple

from ..errors import HeuristicError


class TemplateKind(enum.Enum):
    """Which template variant the heuristic selected.

    * ``CACHE_RESIDENT`` — the paper's main inference template: input and
      output tensors fit the cache system; two outer parallel loops.
    * ``K_SLICED`` — extracts extra parallelism from the reduction axis
      when M x N decomposition alone cannot occupy all cores (single-sample
      inference); adds a parallel k loop plus a reduction combine.
    * ``L2_BLOCKED`` — training-size activations: an additional loop level
      blocks the data for L2.
    """

    CACHE_RESIDENT = "cache_resident"
    K_SLICED = "k_sliced"
    L2_BLOCKED = "l2_blocked"


@dataclass(frozen=True)
class MatmulParams:
    """A full parameter assignment for the matmul template.

    ``m``, ``n``, ``k`` are the padded problem sizes; ``batch`` is the
    product of any leading batch dims (1 for a plain matmul).
    """

    m: int
    n: int
    k: int
    mb: int
    nb: int
    kb: int
    bs: int
    mpn: int
    npn: int
    kpn: int = 1
    batch: int = 1
    loop_order: Tuple[str, ...] = ("msi", "ksi", "nsi")
    kind: TemplateKind = TemplateKind.CACHE_RESIDENT
    #: L2_BLOCKED only: microkernel rows (msi values) per L2 chunk.
    l2_chunk: int = 0

    def __post_init__(self) -> None:
        for name in ("m", "n", "k", "mb", "nb", "kb", "bs", "mpn", "npn", "kpn"):
            if getattr(self, name) <= 0:
                raise HeuristicError(f"parameter {name} must be positive")
        if self.m % (self.mb * self.mpn):
            raise HeuristicError(
                f"M={self.m} is not divisible by MB*MPN={self.mb * self.mpn}"
            )
        if self.n % (self.nb * self.npn):
            raise HeuristicError(
                f"N={self.n} is not divisible by NB*NPN={self.nb * self.npn}"
            )
        if self.k % (self.kb * self.kpn):
            raise HeuristicError(
                f"K={self.k} is not divisible by KB*KPN={self.kb * self.kpn}"
            )
        if self.ksn % self.bs:
            raise HeuristicError(
                f"KSN={self.ksn} is not divisible by BS={self.bs}"
            )
        if set(self.loop_order) != {"msi", "ksi", "nsi"}:
            raise HeuristicError(
                f"loop_order must permute (msi, ksi, nsi), got {self.loop_order}"
            )
        if self.kind is TemplateKind.L2_BLOCKED:
            if self.l2_chunk <= 0 or self.msn % self.l2_chunk:
                raise HeuristicError(
                    f"L2_BLOCKED requires l2_chunk dividing MSN="
                    f"{self.msn}, got {self.l2_chunk}"
                )
        elif self.l2_chunk:
            raise HeuristicError(
                "l2_chunk is only meaningful for the L2_BLOCKED template"
            )

    # -- Figure 2 derived quantities ----------------------------------------

    @property
    def msn(self) -> int:
        """Microkernels per single-core kernel along m."""
        return self.m // (self.mb * self.mpn)

    @property
    def nsn(self) -> int:
        """Microkernels per single-core kernel along n."""
        return self.n // (self.nb * self.npn)

    @property
    def ksn(self) -> int:
        """K blocks per single-core kernel."""
        return self.k // (self.kb * self.kpn)

    @property
    def kfold(self) -> int:
        """Physical K block of every brgemm operand: ``BS * KB``.

        One microkernel call reduces BS K-blocks; storing them side by
        side in K lets it read ``[MB, BS*KB]`` and ``[NB, BS*KB]``
        contiguously (see :mod:`repro.microkernel.brgemm`).
        """
        return self.bs * self.kb

    @property
    def mpsn(self) -> int:
        """Microkernels along m in the multi-core kernel: MPSN = MSN * MPN."""
        return self.msn * self.mpn

    @property
    def npsn(self) -> int:
        return self.nsn * self.npn

    @property
    def kpsn(self) -> int:
        return self.ksn * self.kpn

    @property
    def msbn(self) -> int:
        """Tensor slice size along m accessed by a single-core kernel."""
        return self.mb * self.msn

    @property
    def nsbn(self) -> int:
        return self.nb * self.nsn

    @property
    def ksbn(self) -> int:
        return self.kb * self.ksn

    @property
    def num_cores_used(self) -> int:
        return self.mpn * self.npn * self.kpn

    @property
    def microkernel_invocations(self) -> int:
        """brgemm calls per single-core kernel."""
        return self.msn * self.nsn * (self.ksn // self.bs)

    # -- working set sizes (elements) ----------------------------------------

    def a_block_elems(self) -> int:
        return self.mb * self.kb

    def b_block_elems(self) -> int:
        return self.nb * self.kb

    def c_block_elems(self) -> int:
        return self.mb * self.nb

    def microkernel_working_set_bytes(
        self, in_dtype_size: int, acc_dtype_size: int
    ) -> int:
        """Bytes touched by one microkernel call (should fit L1)."""
        return (
            self.bs * (self.a_block_elems() + self.b_block_elems()) * in_dtype_size
            + self.c_block_elems() * acc_dtype_size
        )

    def single_core_working_set_bytes(
        self, in_dtype_size: int, acc_dtype_size: int
    ) -> int:
        """Bytes of the tensor slices one core traverses (A, B, C slices)."""
        a = self.msbn * self.ksbn * in_dtype_size
        b = self.ksbn * self.nsbn * in_dtype_size
        c = self.msbn * self.nsbn * acc_dtype_size
        return a + b + c

    def describe(self) -> str:
        """One-line summary used by logs and benchmark output."""
        return (
            f"[{self.kind.value}] M{self.m}xN{self.n}xK{self.k} "
            f"MB{self.mb} NB{self.nb} KB{self.kb} BS{self.bs} "
            f"MPN{self.mpn} NPN{self.npn}"
            + (f" KPN{self.kpn}" if self.kpn > 1 else "")
        )

    # -- serialization (the tuning cache stores params as JSON) ---------------

    def to_dict(self) -> dict:
        """JSON-serializable representation; inverse of :meth:`from_dict`."""
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "mb": self.mb,
            "nb": self.nb,
            "kb": self.kb,
            "bs": self.bs,
            "mpn": self.mpn,
            "npn": self.npn,
            "kpn": self.kpn,
            "batch": self.batch,
            "loop_order": list(self.loop_order),
            "kind": self.kind.value,
            "l2_chunk": self.l2_chunk,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatmulParams":
        """Rebuild params from :meth:`to_dict` output (validates on init)."""
        fields = dict(data)
        fields["loop_order"] = tuple(fields.get("loop_order", ("msi", "ksi", "nsi")))
        fields["kind"] = TemplateKind(fields.get("kind", TemplateKind.CACHE_RESIDENT.value))
        return cls(**fields)


def pad_to_grid(size: int, block: int, parallel: int = 1) -> int:
    """Round ``size`` up to a multiple of ``block * parallel``."""
    grid = block * parallel
    return int(math.ceil(size / grid)) * grid
