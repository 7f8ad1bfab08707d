"""Shared-memory tensor transport for the sharded serving tier.

A :class:`TensorRing` is a fixed number of equally-sized **slots** carved
out of one named ``multiprocessing.shared_memory`` segment.  The process
that serves requests (the :class:`~repro.service.sharding.ShardedSession`
front end) *owns* the ring: it leases a slot per in-flight request, packs
the request's input arrays into it, and ships only the slot index plus a
list of :class:`TensorSpec` descriptors over the control pipe.  The worker
process attaches to the same segment by name and maps ``numpy`` views
directly over the slot bytes — tensors cross the process boundary without
pickling or copying on the read side.

Protocol invariants:

* **Lease/release.**  ``lease()`` hands out a free slot (blocking while
  all slots are in flight — this is the tier's backpressure) and
  ``release(slot)`` returns it.  A slot stays leased from the moment the
  front end packs the request until it has read the worker's response out
  of the same slot, so neither side ever observes a half-written tensor.
* **One slot, both directions.**  The worker reads the inputs as views,
  executes, and then overwrites the slot with the output tensors (inputs
  are dead by then); the response message carries the output specs.
* **Layout.**  Arrays are stored C-contiguous (non-contiguous inputs are
  compacted on write; the original shape is preserved), 64-byte aligned,
  any dtype numpy can express — including zero-length arrays, which
  occupy no payload bytes but round-trip shape and dtype exactly.

Every segment this module creates is tracked in a process-wide registry so
tests and the CI smoke job can assert nothing leaked: ``close()``/
``unlink()`` always deregister, even when the peer process crashed.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..errors import SlotOverflowError, TransportError
from ..observability import get_registry

#: Byte alignment of every tensor within a slot (cache-line friendly).
_ALIGN = 64

#: Names of segments created (and not yet unlinked) by this process.
_live_segments: Set[str] = set()
_live_lock = threading.Lock()
_name_counter = itertools.count()


def live_segments() -> List[str]:
    """Names of shared-memory segments this process created and has not
    unlinked yet — the leak check used by tests and the CI smoke job."""
    with _live_lock:
        return sorted(_live_segments)


@dataclass(frozen=True)
class TensorSpec:
    """Placement of one tensor inside a ring slot (picklable, tiny)."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int
    nbytes: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "offset": self.offset,
            "nbytes": self.nbytes,
        }


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def packed_nbytes(sizes: Iterable[int]) -> int:
    """Slot bytes needed to pack arrays of ``sizes`` bytes, in order
    (alignment included)."""
    offset = 0
    for nbytes in sizes:
        offset = _align(offset) + nbytes
    return offset


def request_nbytes(arrays: Mapping[str, np.ndarray]) -> int:
    """Slot bytes needed to pack ``arrays`` (alignment included)."""
    return packed_nbytes(np.asarray(a).nbytes for a in arrays.values())


class TensorRing:
    """Fixed-slot tensor mailbox in one named shared-memory segment.

    Args:
        name: Segment name; generated when omitted (owner side).
        slots: Number of concurrently leasable slots.
        slot_bytes: Payload capacity of each slot.
        create: ``True`` builds the segment (owner), ``False`` attaches
            to an existing one by name (worker).
    """

    def __init__(
        self,
        name: Optional[str] = None,
        *,
        slots: int,
        slot_bytes: int,
        create: bool = True,
    ) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if slot_bytes < _ALIGN:
            raise ValueError(f"slot_bytes must be >= {_ALIGN}")
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self._owner = bool(create)
        self._closed = False
        if create:
            if name is None:
                name = (
                    f"repro-shard-{os.getpid()}-{next(_name_counter)}"
                )
            self._shm = shared_memory.SharedMemory(
                name=name, create=True, size=slots * slot_bytes
            )
            with _live_lock:
                _live_segments.add(self._shm.name)
        else:
            if name is None:
                raise ValueError("attaching requires the segment name")
            try:
                self._shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError as exc:
                raise TransportError(
                    f"shared-memory segment {name!r} does not exist "
                    "(owner closed or never created it)"
                ) from exc
            if self._shm.size < slots * slot_bytes:
                self._shm.close()
                raise TransportError(
                    f"segment {name!r} is {self._shm.size} bytes; ring "
                    f"geometry needs {slots * slot_bytes}"
                )
            # CPython (< 3.13) registers the segment with the resource
            # tracker on attach as well as on create — harmless here,
            # because worker processes inherit the owner's tracker (both
            # fork and spawn pass the tracker fd down), so the attach is
            # a set no-op in the same tracker and the owner's unlink
            # deregisters exactly once.
        # The lease ledger lives on the owner side only; attachers are
        # told which slot to use in every message.
        self._free: List[int] = list(range(slots)) if create else []
        self._cond = threading.Condition()

    @classmethod
    def attach(cls, name: str, slots: int, slot_bytes: int) -> "TensorRing":
        """Worker-side handle over an owner-created segment."""
        return cls(name, slots=slots, slot_bytes=slot_bytes, create=False)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def owner(self) -> bool:
        return self._owner

    @property
    def available(self) -> int:
        """Free slots right now (owner side)."""
        with self._cond:
            return len(self._free)

    # -- lease / release ------------------------------------------------------

    def lease(self, timeout: Optional[float] = None) -> int:
        """Claim a free slot, blocking while the ring is exhausted.

        This is the sharded tier's backpressure: with every slot in
        flight, submitters wait here until a response is read back and
        its slot released.  ``timeout`` (seconds) raises
        :class:`TransportError` instead of blocking forever.
        """
        if not self._owner:
            raise TransportError("only the ring owner can lease slots")
        with self._cond:
            if timeout is None:
                while not self._free and not self._closed:
                    self._cond.wait()
            else:
                deadline = _monotonic() + timeout
                while not self._free and not self._closed:
                    remaining = deadline - _monotonic()
                    if remaining <= 0:
                        raise TransportError(
                            f"no free slot after {timeout}s "
                            f"({self.slots} slots all leased)"
                        )
                    self._cond.wait(remaining)
            if self._closed:
                raise TransportError("ring is closed")
            return self._free.pop()

    def release(self, slot: int) -> None:
        """Return a leased slot to the free list."""
        self._check_slot(slot)
        with self._cond:
            if self._closed:
                return
            if slot in self._free:
                raise TransportError(f"slot {slot} was not leased")
            self._free.append(slot)
            self._cond.notify()

    def _check_slot(self, slot: int) -> None:
        if self._closed:
            raise TransportError("ring is closed")
        if not 0 <= slot < self.slots:
            raise TransportError(
                f"slot {slot} out of range [0, {self.slots})"
            )

    # -- pack / unpack --------------------------------------------------------

    def write(
        self, slot: int, arrays: Mapping[str, np.ndarray]
    ) -> List[TensorSpec]:
        """Pack ``arrays`` into ``slot``; returns their placements.

        Non-contiguous arrays are compacted to C order on the way in (the
        one place a copy is unavoidable); dtype and shape survive exactly,
        including zero-length arrays.
        """
        self._check_slot(slot)
        base = slot * self.slot_bytes
        offset = 0
        specs: List[TensorSpec] = []
        views: List[Tuple[np.ndarray, np.ndarray]] = []
        for name, value in arrays.items():
            array = np.asarray(value)
            offset = _align(offset)
            nbytes = array.nbytes
            if offset + nbytes > self.slot_bytes:
                raise SlotOverflowError(
                    f"tensor {name!r} ({nbytes} bytes at offset {offset}) "
                    f"does not fit a {self.slot_bytes}-byte slot; raise "
                    "slot_bytes or shrink the request"
                )
            specs.append(
                TensorSpec(
                    name=name,
                    dtype=array.dtype.str,
                    shape=tuple(int(d) for d in array.shape),
                    offset=offset,
                    nbytes=nbytes,
                )
            )
            if nbytes:
                view = np.ndarray(
                    array.shape,
                    dtype=array.dtype,
                    buffer=self._shm.buf,
                    offset=base + offset,
                )
                views.append((view, array))
            offset += nbytes
        for view, array in views:
            view[...] = array  # compacts non-contiguous sources
        registry = get_registry()
        registry.counter("service.shm.write_bytes").inc(offset)
        registry.histogram("service.shm.slot_fill").observe(
            offset / self.slot_bytes if self.slot_bytes else 0.0
        )
        return specs

    def read(
        self,
        slot: int,
        specs: Sequence[TensorSpec],
        copy: bool = False,
    ) -> Dict[str, np.ndarray]:
        """Map ``specs`` back to arrays.

        ``copy=False`` returns live views over the slot — zero-copy, valid
        only while the slot stays leased.  ``copy=True`` materializes
        private arrays that survive ``release()``.
        """
        self._check_slot(slot)
        base = slot * self.slot_bytes
        out: Dict[str, np.ndarray] = {}
        for spec in specs:
            dtype = np.dtype(spec.dtype)
            if spec.offset + spec.nbytes > self.slot_bytes:
                raise TransportError(
                    f"spec {spec.name!r} reaches byte "
                    f"{spec.offset + spec.nbytes}, past the slot end"
                )
            if spec.nbytes == 0:
                out[spec.name] = np.empty(spec.shape, dtype=dtype)
                continue
            view = np.ndarray(
                spec.shape,
                dtype=dtype,
                buffer=self._shm.buf,
                offset=base + spec.offset,
            )
            out[spec.name] = view.copy() if copy else view
        get_registry().counter("service.shm.read_bytes").inc(
            sum(spec.nbytes for spec in specs)
        )
        return out

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unmap the segment; the owner also unlinks it.  Idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()  # wake lease() waiters into the error
        self._shm.close()
        if self._owner:
            self._unlink()

    def unlink(self) -> None:
        """Remove the named segment from the system (owner side)."""
        if not self._owner:
            raise TransportError("only the ring owner can unlink")
        self.close()

    def _unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        with _live_lock:
            _live_segments.discard(self._shm.name)

    def __enter__(self) -> "TensorRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _monotonic() -> float:
    import time

    return time.monotonic()
