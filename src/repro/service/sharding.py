"""Multi-process sharded serving: N workers, one signature owner each.

The single-process serving stack (:class:`.InferenceSession` +
:class:`.BatchingEngine`) coalesces concurrent requests well, but every
partition execution still runs inside one GIL-bound interpreter.  This
module scales it out the way nGraph's multi-device transformer split
scales across devices — partitioned execution units plus an explicit
data-movement layer — at the process level:

* :class:`ShardedSession` is the front end.  It owns ``num_workers``
  worker **processes**, each running its own :class:`.PartitionCache` and
  one :class:`.InferenceSession` per model (micro-batching on by
  default).
* Requests are routed by :func:`.graph_signature` over a
  :class:`ConsistentHashRing`, so **every partition compiles in exactly
  one worker** — no duplicated compilation, no cache churn, and a stable
  home for each model even as the fleet changes.
* Input and output tensors travel through per-worker
  :class:`~repro.service.shm.TensorRing` shared-memory slots: the front
  end packs a request into a leased slot, the worker maps zero-copy numpy
  views over it, executes, overwrites the slot with the outputs, and only
  the tiny control message (slot index + tensor specs) crosses the pipe.
* The lifecycle layer pre-compiles a declared workload set before traffic
  (:meth:`ShardedSession.warm_up`), heartbeats every worker, restarts a
  dead one automatically — its in-flight requests are transparently
  re-dispatched, so a crash costs latency, not errors — and drains
  gracefully on ``close()``, reusing ``InferenceSession.close(drain=True)``
  inside each worker and unlinking every shared-memory segment.

Observability: the front end publishes ``service.shard.*`` metrics and
``shard.*`` spans; :meth:`ShardedSession.collect_worker_spans` pulls each
worker's span records (rebased onto the parent's clock) so
``write_chrome_trace(..., processes=...)`` renders the whole fleet on one
timeline.  With tracing on, every request carries a
:class:`~repro.observability.RequestContext` across the pipe: the front
end mints it (flow phase ``s`` under ``shard.submit``), the worker's
``shard.worker.request``/``batch.execute``/``partition.execute`` spans
emit ``t`` steps, and ``shard.response`` closes the chain (``f``) — one
navigable flow per request in the merged Perfetto view.  Workers also
piggyback their flight-recorder deltas on heartbeat replies, so a
SIGKILLed worker's last spans survive in the parent and land in the
``dump_flight("worker-death", ...)`` file; and a ``metrics`` control
message ships each worker's full metric state for the fleet-merged
:meth:`ShardedSession.metrics_text` Prometheus scrape.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import multiprocessing
import os
import pickle
import queue as queue_mod
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.options import CompilerOptions
from ..dtypes import DType
from ..errors import (
    ExecutionError,
    SessionClosedError,
    SlotOverflowError,
    TransportError,
    WorkerCrashError,
)
from ..graph_ir.graph import Graph
from ..graph_ir.symbolic import dyn
from ..microkernel.machine import MachineModel, XEON_8358
from ..observability import (
    MetricsRegistry,
    RequestContext,
    Tracer,
    get_registry,
    get_tracer,
)
from ..observability.context import bind_contexts
from ..observability.flight import dump_flight, get_flight_recorder
from ..observability.metrics import set_registry
from ..observability.tracer import SpanRecord, set_tracer
from .batching import BatchingStats
from .cache import PartitionCache
from .session import DYNAMIC_BATCH_HINT, InferenceSession, ModelProbe
from .shm import TensorRing, packed_nbytes
from .signature import graph_signature
from .stats import ServiceStats, format_stats

__all__ = [
    "ConsistentHashRing",
    "ModelSpec",
    "ShardedSession",
    "ShardedStats",
    "format_sharded_stats",
]


# -- routing -------------------------------------------------------------------


class ConsistentHashRing:
    """Consistent hashing over worker ids with virtual nodes.

    Each node is hashed onto the ring ``replicas`` times; a key maps to
    the first node point clockwise from the key's hash.  Adding or
    removing one node re-homes only the keys that hashed between its
    points and their predecessors — the property the sharded tier relies
    on when a worker is taken out without a replacement.
    """

    def __init__(
        self, nodes: Iterable[str] = (), replicas: int = 64
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._points: List[Tuple[int, str]] = []
        self._nodes: List[str] = []
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.append(node)
        for replica in range(self.replicas):
            bisect.insort(
                self._points, (self._hash(f"{node}#{replica}"), node)
            )

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not on the ring")
        self._nodes.remove(node)
        self._points = [(h, n) for h, n in self._points if n != node]

    def node_for(self, key: str) -> str:
        """The node owning ``key`` (stable until membership changes)."""
        return self.preference(key)[0]

    def preference(self, key: str) -> List[str]:
        """Every node, in ring order starting at the key's home point.

        The first entry is the key's consistent-hash home; callers that
        balance load (consistent hashing with bounded loads) walk the
        list until they find a node with spare capacity, which keeps
        assignments stable under membership churn while avoiding the
        hot spots a small key population hashes into.
        """
        if not self._points:
            raise ValueError("hash ring has no nodes")
        point = self._hash(key)
        index = bisect.bisect_right(self._points, (point, "￿"))
        order: List[str] = []
        seen = set()
        for step in range(len(self._points)):
            node = self._points[(index + step) % len(self._points)][1]
            if node not in seen:
                seen.add(node)
                order.append(node)
                if len(order) == len(self._nodes):
                    break
        return order

    def __len__(self) -> int:
        return len(self._nodes)


# -- model declaration ---------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """One servable model, in a form that ships to worker processes.

    Exactly one of ``workload`` (a named Table-1 workload, always
    picklable) or ``builder`` (a picklable ``batch -> Graph`` callable —
    module-level functions qualify, closures do not under ``spawn`` —
    that accepts the symbolic ``dyn("B", hint)`` batch the workers
    compile) must be given.
    """

    name: str
    workload: Optional[str] = None
    builder: Optional[Callable[[int], Graph]] = None
    dtype: DType = DType.f32
    weights: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.workload is None) == (self.builder is None):
            raise ValueError(
                f"model {self.name!r}: give exactly one of workload= "
                "or builder="
            )

    def resolve_builder(self) -> Callable[[int], Graph]:
        if self.builder is not None:
            return self.builder
        from ..workloads import (
            MHA_CONFIGS,
            MLP_CONFIGS,
            build_mha_graph,
            build_mlp_graph,
        )

        name = self.workload.upper()
        if name in MLP_CONFIGS:
            return lambda batch: build_mlp_graph(name, batch, self.dtype)
        if name in MHA_CONFIGS:
            return lambda batch: build_mha_graph(name, batch, self.dtype)
        known = sorted(MLP_CONFIGS) + sorted(MHA_CONFIGS)
        raise ValueError(f"unknown workload {self.workload!r}; known: {known}")


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker process needs, pickled once at spawn."""

    models: Dict[str, ModelSpec]
    machine: MachineModel
    options: CompilerOptions
    num_threads: int
    batching: str
    max_batch: int
    batch_timeout_us: int
    queue_depth: Optional[int]
    trace_enabled: bool


def _portable_exception(exc: BaseException) -> BaseException:
    """An exception that survives the pipe (pickle round-trip checked)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ExecutionError(f"{type(exc).__name__}: {exc}")


# -- the worker process --------------------------------------------------------


def _worker_main(
    worker_id: str,
    config: _WorkerConfig,
    cmd,
    res,
    ring_name: str,
    slots: int,
    slot_bytes: int,
) -> None:
    """Worker entry point: serve requests off the command pipe.

    Fresh tracer/registry (inherited ones belong to the parent), one
    shared :class:`PartitionCache` across the worker's sessions, one
    lazily-built :class:`InferenceSession` per model that routes here.
    """
    tracer = set_tracer(Tracer(enabled=config.trace_enabled))
    set_registry(MetricsRegistry())
    flight = get_flight_recorder()
    flight.record(
        "worker.start",
        category="service",
        worker=worker_id,
        pid=os.getpid(),
    )
    #: Flight-ring sequence already shipped to the parent; each heartbeat
    #: reply piggybacks only the delta since the previous one.
    flight_sent = 0
    ring = TensorRing.attach(ring_name, slots, slot_bytes)
    send_lock = threading.Lock()

    def reply(message: tuple) -> None:
        try:
            with send_lock:
                res.send(message)
        except (OSError, BrokenPipeError):  # parent is gone; keep draining
            pass

    cache = PartitionCache()
    sessions: Dict[str, InferenceSession] = {}

    def session_for(model: str) -> InferenceSession:
        session = sessions.get(model)
        if session is None:
            spec = config.models[model]
            with tracer.span(
                "shard.worker.session", category="service", model=model
            ):
                session = InferenceSession(
                    spec.resolve_builder(),
                    weights=dict(spec.weights),
                    machine=config.machine,
                    options=config.options,
                    cache=cache,
                    num_threads=config.num_threads,
                    batching=config.batching,
                    max_batch=config.max_batch,
                    batch_timeout_us=config.batch_timeout_us,
                    queue_depth=config.queue_depth,
                )
            sessions[model] = session
        return session

    def finish(req_id: int, slot: int, future: Future) -> None:
        """Done-callback of a batched submit: pack outputs, respond."""
        try:
            if future.cancelled():
                raise SessionClosedError(
                    "worker drained without executing this request"
                )
            error = future.exception()
            if error is not None:
                raise error
            specs = ring.write(slot, future.result())
        except BaseException as exc:
            reply(("err", req_id, slot, _portable_exception(exc)))
            return
        reply(("res", req_id, slot, specs))

    reply(("ready", os.getpid()))
    registry = get_registry()
    drain = True
    running = True
    while running:
        try:
            message = cmd.recv()
        except (EOFError, OSError):
            break  # parent died or closed the pipe: tear down
        kind = message[0]
        if kind == "req":
            _, req_id, model, batch, slot, specs, wire = message
            registry.counter("service.worker.requests").inc()
            flight.record(
                "worker.request",
                category="service",
                worker=worker_id,
                model=model,
                batch=batch,
                req_id=req_id,
            )
            ctx = RequestContext.from_wire(wire)
            try:
                inputs = ring.read(slot, specs, copy=False)
                session = session_for(model)
                if tracer.enabled and ctx is not None:
                    # The relay hop of the request's flow chain: the
                    # front end minted the context ("s"); this span's
                    # "t" step hands the chain to the worker's row in
                    # the merged timeline.
                    with tracer.span(
                        "shard.worker.request",
                        category="service",
                        model=model,
                        batch=batch,
                        trace_id=ctx.trace_id,
                    ):
                        tracer.flow("request", "t", ctx.flow_id)
                        if session.batching == "on":
                            future = session.submit(
                                inputs, batch=batch, ctx=ctx
                            )
                            future.add_done_callback(
                                lambda f, r=req_id, s=slot: finish(r, s, f)
                            )
                        else:
                            with bind_contexts((ctx,)):
                                outputs = session.run(inputs, batch=batch)
                            out_specs = ring.write(slot, outputs)
                            reply(("res", req_id, slot, out_specs))
                elif session.batching == "on":
                    future = session.submit(inputs, batch=batch)
                    future.add_done_callback(
                        lambda f, r=req_id, s=slot: finish(r, s, f)
                    )
                else:
                    outputs = session.run(inputs, batch=batch)
                    out_specs = ring.write(slot, outputs)
                    reply(("res", req_id, slot, out_specs))
            except BaseException as exc:
                reply(("err", req_id, slot, _portable_exception(exc)))
        elif kind == "warm":
            warmed = 0
            error: Optional[BaseException] = None
            for model in message[1]:
                try:
                    with tracer.span(
                        "shard.worker.warm", category="service", model=model
                    ):
                        session_for(model).warm()
                    warmed += 1
                except BaseException as exc:
                    error = _portable_exception(exc)
                    break
            reply(("warmed", warmed, error))
        elif kind == "ping":
            # Piggyback the flight-ring delta: if this process is later
            # SIGKILLed, the parent still holds its last recorded spans.
            sequence = flight.sequence
            delta = flight.records_since(flight_sent)
            flight_sent = sequence
            reply(("pong", message[1], flight.epoch, delta))
        elif kind == "metrics":
            reply(("metrics", get_registry().export_records()))
        elif kind == "stats":
            engines: Dict[str, BatchingStats] = {
                name: session.engine.stats()
                for name, session in sessions.items()
                if session.engine is not None
            }
            reply(("stats", cache.stats(), engines))
        elif kind == "trace":
            reply(
                (
                    "trace",
                    tracer.epoch,
                    tracer.records(),
                    get_registry().snapshot(),
                )
            )
        elif kind == "stop":
            drain = bool(message[1])
            running = False
    flight.record(
        "worker.stop", category="service", worker=worker_id, drain=drain
    )
    for session in sessions.values():
        try:
            session.close(drain=drain)
        except Exception:  # pragma: no cover - best-effort teardown
            pass
    cache.close()
    reply(("bye",))
    ring.close()


# -- parent-side worker handle -------------------------------------------------


@dataclass
class _PendingRequest:
    """One dispatched request the front end is waiting on."""

    req_id: int
    model: str
    batch: int
    #: The original input arrays — kept so a crashed worker's requests
    #: can be transparently re-dispatched to its replacement.
    inputs: Dict[str, np.ndarray]
    signature: str
    future: Future
    attempts: int = 0
    #: Trace identity minted at submit when tracing is on; rides the
    #: control pipe so the worker's spans join this request's flow chain.
    ctx: Optional[RequestContext] = None


@dataclass(frozen=True)
class WorkerInfo:
    """Public snapshot of one worker slot in the fleet."""

    worker_id: str
    pid: Optional[int]
    alive: bool
    incarnation: int
    in_flight: int


class _WorkerHandle:
    """Parent-side state for one worker incarnation."""

    def __init__(
        self,
        worker_id: str,
        incarnation: int,
        process,
        cmd,
        res,
        ring: TensorRing,
        slot_timeout: Optional[float],
    ) -> None:
        self.worker_id = worker_id
        self.incarnation = incarnation
        self.process = process
        self.cmd = cmd
        self.res = res
        self.ring = ring
        self.slot_timeout = slot_timeout
        self.cmd_lock = threading.Lock()
        self.pending: Dict[int, _PendingRequest] = {}
        self.pending_lock = threading.Lock()
        self.replies: Dict[str, "queue_mod.Queue"] = {}
        self.replies_lock = threading.Lock()
        self.control_lock = threading.Lock()
        self.ready = threading.Event()
        self.bye = threading.Event()
        self.stop = threading.Event()
        self.receiver: Optional[threading.Thread] = None
        self.shut_down = False
        #: Last flight-ring spans this worker piggybacked on heartbeat
        #: replies — the evidence that survives a SIGKILL.
        self.flight_epoch = 0.0
        self.flight_records: deque = deque(maxlen=512)

    # -- sending --------------------------------------------------------------

    def send(self, message: tuple) -> None:
        with self.cmd_lock:
            self.cmd.send(message)

    def submit(self, pending: _PendingRequest) -> None:
        """Lease a slot, pack the request, register it, ship the header."""
        start = time.perf_counter()
        slot = self.ring.lease(timeout=self.slot_timeout)
        get_registry().histogram(
            "service.shard.slot_wait_seconds"
        ).observe(time.perf_counter() - start)
        try:
            specs = self.ring.write(slot, pending.inputs)
            with self.pending_lock:
                self.pending[pending.req_id] = pending
            try:
                self.send(
                    (
                        "req",
                        pending.req_id,
                        pending.model,
                        pending.batch,
                        slot,
                        specs,
                        pending.ctx.to_wire()
                        if pending.ctx is not None
                        else None,
                    )
                )
            except BaseException:
                with self.pending_lock:
                    self.pending.pop(pending.req_id, None)
                raise
        except BaseException:
            try:
                self.ring.release(slot)
            except TransportError:  # pragma: no cover - ring torn down
                pass
            raise

    def request(self, kind: str, message: tuple, timeout: float):
        """Send a control message and wait for its typed reply."""
        with self.control_lock:
            with self.replies_lock:
                mailbox = self.replies.setdefault(kind, queue_mod.Queue())
            self.send(message)
            try:
                return mailbox.get(timeout=timeout)
            except queue_mod.Empty:
                raise TransportError(
                    f"worker {self.worker_id} did not answer "
                    f"{kind!r} within {timeout}s"
                )

    def deliver_reply(self, kind: str, payload) -> None:
        with self.replies_lock:
            mailbox = self.replies.setdefault(kind, queue_mod.Queue())
        mailbox.put(payload)

    # -- teardown -------------------------------------------------------------

    def take_pending(self) -> List[_PendingRequest]:
        with self.pending_lock:
            taken = list(self.pending.values())
            self.pending.clear()
        return taken

    def pop_pending(self, req_id: int) -> Optional[_PendingRequest]:
        with self.pending_lock:
            return self.pending.pop(req_id, None)

    def shutdown(self) -> None:
        """Stop the receiver, close pipes, close+unlink the ring."""
        if self.shut_down:
            return
        self.shut_down = True
        self.stop.set()
        if (
            self.receiver is not None
            and self.receiver is not threading.current_thread()
        ):
            self.receiver.join(timeout=5)
        for conn in (self.cmd, self.res):
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self.ring.close()

    def info(self) -> WorkerInfo:
        with self.pending_lock:
            in_flight = len(self.pending)
        return WorkerInfo(
            worker_id=self.worker_id,
            pid=self.process.pid,
            alive=self.process.is_alive(),
            incarnation=self.incarnation,
            in_flight=in_flight,
        )


# -- fleet-wide stats ----------------------------------------------------------


@dataclass(frozen=True)
class ShardedStats:
    """One snapshot of the whole fleet: merged + per-worker detail."""

    merged: ServiceStats
    workers: Dict[str, ServiceStats]
    batching: Dict[str, Dict[str, BatchingStats]]
    requests: int
    retries: int
    restarts: Dict[str, int]

    @property
    def total_restarts(self) -> int:
        return sum(self.restarts.values())

    def placement(self) -> Dict[str, List[str]]:
        """worker id -> labels of the partitions it compiled."""
        return {
            worker: sorted(
                sig.label or sig.short_signature
                for sig in stats.signatures
                if sig.compiles
            )
            for worker, stats in self.workers.items()
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "merged": self.merged.to_dict(),
            "workers": {
                worker: stats.to_dict()
                for worker, stats in self.workers.items()
            },
            "batching": {
                worker: {
                    model: stats.to_dict()
                    for model, stats in engines.items()
                }
                for worker, engines in self.batching.items()
            },
            "requests": self.requests,
            "retries": self.retries,
            "restarts": dict(self.restarts),
            "total_restarts": self.total_restarts,
            "placement": self.placement(),
        }


def format_sharded_stats(stats: ShardedStats) -> str:
    """Human-readable fleet report (printed by ``bench.py serve``)."""
    lines = [
        "ShardedStats",
        (
            f"  requests={stats.requests} retries={stats.retries} "
            f"restarts={stats.total_restarts} "
            f"workers={len(stats.workers)}"
        ),
    ]
    for worker, labels in sorted(stats.placement().items()):
        lines.append(
            f"    {worker}: {', '.join(labels) if labels else '(idle)'}"
        )
    lines.append(format_stats(stats.merged, workers=stats.workers))
    return "\n".join(lines)


# -- the front end -------------------------------------------------------------

_REQ_IDS = itertools.count(1)


#: Slot charge of one packed array: ``nbytes * batch ** power`` bytes.
_SlotTerm = Tuple[int, int]
#: The (inputs, outputs) slot terms of one model's requests.
_RequestTerms = Tuple[List[_SlotTerm], List[_SlotTerm]]


def _slot_terms(builder: Callable, probe: ModelProbe) -> _RequestTerms:
    """Per-batch slot charge of a model's request inputs and outputs.

    Read off one graph at the batch hint: each batch-scaled axis of
    multiplier ``m`` contributes ``m`` to the array's ``nbytes`` and one
    to its ``power``; every other axis contributes its extent.
    """
    graph = builder(DYNAMIC_BATCH_HINT)

    def term(tensor, axes) -> _SlotTerm:
        scaled = dict(axes)
        nbytes = np.dtype(tensor.dtype.to_numpy()).itemsize
        for axis, extent in enumerate(tensor.shape):
            nbytes *= scaled.get(axis, extent)
        return nbytes, len(scaled)

    by_name = {tensor.name: tensor for tensor in graph.inputs}
    inputs = [
        term(by_name[name], probe.input_batch_axes[name])
        for name in probe.activation_names
    ]
    outputs = [
        term(tensor, axes)
        for tensor, axes in zip(graph.outputs, probe.output_batch_axes)
    ]
    return inputs, outputs


def _footprint(terms: List[_SlotTerm], batch: int) -> int:
    """Slot bytes the arrays of ``terms`` take at ``batch``."""
    return packed_nbytes(nbytes * batch**power for nbytes, power in terms)


def _largest_batch(terms: _RequestTerms, slot_bytes: int) -> Optional[int]:
    """Largest batch whose inputs and outputs each fit ``slot_bytes``
    (None when the footprint does not grow with the batch and fits)."""

    def fits(batch: int) -> bool:
        return all(_footprint(side, batch) <= slot_bytes for side in terms)

    if not any(nbytes and power for side in terms for nbytes, power in side):
        return None if fits(1) else 0
    low, high = 0, 1
    while fits(high):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        if fits(middle):
            low = middle
        else:
            high = middle
    return low


class ShardedSession:
    """Serve one or more models across ``num_workers`` processes.

    Args:
        models: The servable set — a single :class:`ModelSpec` or a
            sequence of them (names must be unique).
        num_workers: Worker process count.
        machine: Compilation target (shared by every worker).
        options: Compiler feature toggles (shared by every worker).
        num_threads: Intra-partition parallelism *inside each worker*.
        batching: Per-worker micro-batching mode (default ``"on"`` —
            coalescing is the point of funneling a signature into one
            process).
        max_batch / batch_timeout_us / queue_depth: Forwarded to each
            worker's :class:`.BatchingEngine`.
        slots_per_worker: Concurrent in-flight requests per worker; the
            shared-memory ring has this many slots, and leasing blocks
            (backpressure) when they are all in flight.
        slot_bytes: Payload capacity per slot.  Defaults to the largest
            request/response the declared models can produce at
            ``DYNAMIC_BATCH_HINT`` rows, with headroom; raise it to serve
            larger batches.  :meth:`submit` refuses a request whose
            inputs or outputs would not fit with
            :class:`~repro.errors.SlotOverflowError`, before any worker
            sees it.
        slot_timeout: Seconds a submitter waits for a free slot before
            :class:`~repro.errors.TransportError` (None blocks forever).
        heartbeat_interval: Seconds between worker liveness checks.
        restart_workers: Restart a dead worker in place (its pending
            requests are re-dispatched, its signatures recompiled on
            demand).  With ``False`` the worker is removed from the hash
            ring instead: its pending requests fail with
            :class:`~repro.errors.WorkerCrashError` and its signatures
            re-route to the survivors.
        warmup: ``True`` pre-compiles every model's partition before the
            constructor returns; a sequence of model names warms exactly
            those.
        mp_context: ``"fork"``/``"spawn"``/``"forkserver"`` or a
            ready-made multiprocessing context (default: ``fork`` where
            available — worker boot in milliseconds — else ``spawn``).
        replicas: Virtual nodes per worker on the hash ring.

    Every model is served through one shape-polymorphic partition (see
    :class:`.InferenceSession`), so a model has one signature and hence
    one home worker; requests execute at their exact batch size.
    """

    def __init__(
        self,
        models,
        *,
        num_workers: int = 2,
        machine: MachineModel = XEON_8358,
        options: Optional[CompilerOptions] = None,
        num_threads: int = 1,
        batching: str = "on",
        max_batch: int = 32,
        batch_timeout_us: int = 2000,
        queue_depth: Optional[int] = 256,
        slots_per_worker: int = 8,
        slot_bytes: Optional[int] = None,
        slot_timeout: Optional[float] = 60.0,
        heartbeat_interval: float = 0.25,
        restart_workers: bool = True,
        warmup=False,
        mp_context=None,
        replicas: int = 64,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if slots_per_worker < 1:
            raise ValueError("slots_per_worker must be >= 1")
        if isinstance(models, ModelSpec):
            models = [models]
        self._models: Dict[str, ModelSpec] = {}
        for spec in models:
            if not isinstance(spec, ModelSpec):
                raise TypeError(
                    f"models must be ModelSpec instances, got {type(spec)}"
                )
            if spec.name in self._models:
                raise ValueError(f"duplicate model name {spec.name!r}")
            self._models[spec.name] = spec
        if not self._models:
            raise ValueError("at least one model is required")
        self._machine = machine
        self._options = options or CompilerOptions()
        self._num_threads = num_threads
        self._config = _WorkerConfig(
            models=dict(self._models),
            machine=machine,
            options=self._options,
            num_threads=num_threads,
            batching=batching,
            max_batch=max_batch,
            batch_timeout_us=batch_timeout_us,
            queue_depth=queue_depth,
            trace_enabled=get_tracer().enabled,
        )
        self._probes: Dict[str, ModelProbe] = {
            name: ModelProbe(spec.resolve_builder())
            for name, spec in self._models.items()
        }
        self._slot_terms: Dict[str, _RequestTerms] = {
            name: _slot_terms(spec.resolve_builder(), self._probes[name])
            for name, spec in self._models.items()
        }
        self._slots = int(slots_per_worker)
        self._slot_bytes = (
            int(slot_bytes)
            if slot_bytes is not None
            else self._default_slot_bytes()
        )
        #: Largest batch per model whose request and reply each fit one
        #: slot (None: any batch fits); submit() refuses larger ones.
        self._largest_batch: Dict[str, Optional[int]] = {
            name: _largest_batch(terms, self._slot_bytes)
            for name, terms in self._slot_terms.items()
        }
        self._slot_timeout = slot_timeout
        self._heartbeat_interval = float(heartbeat_interval)
        self._restart = bool(restart_workers)
        if mp_context is None or isinstance(mp_context, str):
            method = mp_context
            if method is None:
                methods = multiprocessing.get_all_start_methods()
                method = "fork" if "fork" in methods else "spawn"
            self._ctx = multiprocessing.get_context(method)
        else:
            self._ctx = mp_context
        self._hash_ring = ConsistentHashRing(replicas=replicas)
        self._workers: Dict[str, _WorkerHandle] = {}
        self._restarts: Dict[str, int] = {}
        self._retries = 0
        self._requests = 0
        self._count_lock = threading.Lock()
        self._sig_lock = threading.Lock()
        self._signatures: Dict[str, str] = {}
        self._owner_by_sig: Dict[str, str] = {}
        self._owned_count: Dict[str, int] = {}
        self._lifecycle_lock = threading.RLock()
        self._closed = False
        self._close_lock = threading.Lock()
        self._stop_event = threading.Event()
        self.worker_spans: Dict[str, List[SpanRecord]] = {}
        for index in range(num_workers):
            worker_id = f"w{index}"
            self._workers[worker_id] = self._spawn_worker(worker_id, 0)
            self._restarts[worker_id] = 0
            self._hash_ring.add(worker_id)
        get_registry().gauge("service.shard.workers").set(num_workers)
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name="repro-shard-heartbeat",
            daemon=True,
        )
        self._heartbeat.start()
        if warmup:
            self.warm_up(None if warmup is True else warmup)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def for_workload(
        cls,
        workload: str,
        dtype: DType = DType.f32,
        weights: Optional[Mapping[str, np.ndarray]] = None,
        **kwargs,
    ) -> "ShardedSession":
        """Sharded session over one named Table-1 workload."""
        spec = ModelSpec(
            name=workload.upper(),
            workload=workload,
            dtype=dtype,
            weights=dict(weights or {}),
        )
        return cls([spec], **kwargs)

    @classmethod
    def for_workloads(
        cls,
        workloads: Sequence[str],
        dtype: DType = DType.f32,
        weights: Optional[Mapping[str, Mapping[str, np.ndarray]]] = None,
        **kwargs,
    ) -> "ShardedSession":
        """Sharded session over several named workloads at once."""
        weights = weights or {}
        specs = [
            ModelSpec(
                name=name.upper(),
                workload=name,
                dtype=dtype,
                weights=dict(weights.get(name.upper(), {})),
            )
            for name in workloads
        ]
        return cls(specs, **kwargs)

    def _default_slot_bytes(self) -> int:
        """Largest request/response footprint at the batch hint."""
        need = 4096
        for terms in self._slot_terms.values():
            for side in terms:
                need = max(need, _footprint(side, DYNAMIC_BATCH_HINT))
        return need + 256  # alignment headroom

    # -- worker lifecycle -----------------------------------------------------

    def _spawn_worker(self, worker_id: str, incarnation: int) -> _WorkerHandle:
        ring = TensorRing(slots=self._slots, slot_bytes=self._slot_bytes)
        cmd_recv, cmd_send = self._ctx.Pipe(duplex=False)
        res_recv, res_send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._config,
                cmd_recv,
                res_send,
                ring.name,
                self._slots,
                self._slot_bytes,
            ),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        process.start()
        cmd_recv.close()  # child ends stay open in the worker only
        res_send.close()
        worker = _WorkerHandle(
            worker_id,
            incarnation,
            process,
            cmd_send,
            res_recv,
            ring,
            self._slot_timeout,
        )
        worker.receiver = threading.Thread(
            target=self._receive_loop,
            args=(worker,),
            name=f"repro-shard-recv-{worker_id}",
            daemon=True,
        )
        worker.receiver.start()
        if not worker.ready.wait(timeout=60):
            worker.shutdown()
            process.terminate()
            raise WorkerCrashError(
                f"worker {worker_id} did not come up within 60s"
            )
        return worker

    def _receive_loop(self, worker: _WorkerHandle) -> None:
        while not worker.stop.is_set():
            try:
                if not worker.res.poll(0.1):
                    continue
                message = worker.res.recv()
            except (EOFError, OSError):
                break
            self._on_message(worker, message)
        # A receiver that exits because the pipe died (not because of an
        # orderly shutdown) is the earliest crash signal we get.
        if not worker.stop.is_set() and not worker.bye.is_set():
            self._handle_worker_death(worker)

    def _on_message(self, worker: _WorkerHandle, message: tuple) -> None:
        kind = message[0]
        if kind == "res":
            _, req_id, slot, specs = message
            pending = worker.pop_pending(req_id)
            outputs = None
            if pending is not None:
                outputs = worker.ring.read(slot, specs, copy=True)
            try:
                worker.ring.release(slot)
            except TransportError:  # pragma: no cover - ring torn down
                pass
            if pending is not None:
                self._finish_flow(worker, pending)
                try:
                    pending.future.set_result(outputs)
                except InvalidStateError:  # pragma: no cover - cancelled
                    pass
        elif kind == "err":
            _, req_id, slot, error = message
            pending = worker.pop_pending(req_id)
            try:
                worker.ring.release(slot)
            except TransportError:  # pragma: no cover
                pass
            if pending is not None:
                self._finish_flow(worker, pending, error=True)
                try:
                    pending.future.set_exception(error)
                except InvalidStateError:  # pragma: no cover
                    pass
        elif kind == "ready":
            worker.ready.set()
        elif kind == "bye":
            worker.bye.set()
        elif kind == "pong":
            get_registry().counter("service.shard.heartbeats").inc()
            if len(message) >= 4:
                _, _seq, epoch, records = message
                if records:
                    worker.flight_epoch = epoch
                    worker.flight_records.extend(records)
        else:  # control replies: warmed / stats / trace / metrics
            worker.deliver_reply(kind, message[1:])

    def _finish_flow(
        self, worker: _WorkerHandle, pending: _PendingRequest,
        error: bool = False,
    ) -> None:
        """Terminate the request's flow chain ("f") back at the front end."""
        ctx = pending.ctx
        if ctx is None:
            return
        tracer = get_tracer()
        if not tracer.enabled:
            return
        with tracer.span(
            "shard.response",
            category="service",
            model=pending.model,
            worker=worker.worker_id,
            error=error,
            trace_id=ctx.trace_id,
        ):
            tracer.flow("request", "f", ctx.flow_id)

    def _heartbeat_loop(self) -> None:
        sequence = 0
        while not self._stop_event.wait(self._heartbeat_interval):
            for worker in list(self._workers.values()):
                if not worker.process.is_alive():
                    self._handle_worker_death(worker)
                    continue
                sequence += 1
                try:
                    worker.send(("ping", sequence))
                except OSError:
                    self._handle_worker_death(worker)

    def _handle_worker_death(self, worker: _WorkerHandle) -> None:
        """Replace (or remove) a dead worker; re-dispatch its requests."""
        registry = get_registry()
        with self._lifecycle_lock:
            if self._closed:
                return
            if self._workers.get(worker.worker_id) is not worker:
                return  # already replaced by a concurrent detector
            if worker.process.is_alive():
                return  # false alarm (e.g. receiver EOF during close)
            registry.counter("service.shard.crashes").inc()
            worker.shutdown()
            pending = worker.take_pending()
            if self._restart:
                with get_tracer().span(
                    "shard.restart",
                    category="service",
                    worker=worker.worker_id,
                ):
                    replacement = self._spawn_worker(
                        worker.worker_id, worker.incarnation + 1
                    )
                self._workers[worker.worker_id] = replacement
                self._restarts[worker.worker_id] += 1
                registry.counter("service.shard.restarts").inc()
            else:
                del self._workers[worker.worker_id]
                self._hash_ring.remove(worker.worker_id)
                with self._sig_lock:
                    # The dead worker's signatures re-home (and
                    # recompile) on the survivors at next use.
                    for signature, owner in list(
                        self._owner_by_sig.items()
                    ):
                        if owner == worker.worker_id:
                            del self._owner_by_sig[signature]
                    self._owned_count.pop(worker.worker_id, None)
                registry.gauge("service.shard.workers").set(
                    len(self._workers)
                )
        recorder = get_flight_recorder()
        recorder.record(
            "shard.worker_death",
            category="service",
            worker=worker.worker_id,
            incarnation=worker.incarnation,
            pending=len(pending),
            restarted=self._restart,
        )
        extra: Optional[Dict[str, List[SpanRecord]]] = None
        if worker.flight_records:
            # The dead worker's last piggybacked spans, rebased onto this
            # process's flight clock so both rows share one timeline.
            shift = worker.flight_epoch - recorder.epoch
            extra = {
                f"shard-{worker.worker_id}#{worker.incarnation}": [
                    dataclasses.replace(
                        record,
                        start=record.start + shift,
                        end=record.end + shift,
                    )
                    for record in worker.flight_records
                ]
            }
        dump_flight(
            "worker-death",
            extra_processes=extra,
            worker=worker.worker_id,
            incarnation=worker.incarnation,
            pending=len(pending),
            restarted=self._restart,
        )
        for request in pending:
            if self._restart:
                try:
                    with self._count_lock:
                        self._retries += 1
                    registry.counter("service.shard.retries").inc()
                    self._dispatch(request)
                except BaseException as exc:
                    try:
                        request.future.set_exception(exc)
                    except InvalidStateError:  # pragma: no cover
                        pass
            else:
                try:
                    request.future.set_exception(
                        WorkerCrashError(
                            f"worker {worker.worker_id} died with "
                            f"request {request.req_id} in flight"
                        )
                    )
                except InvalidStateError:  # pragma: no cover
                    pass

    # -- routing --------------------------------------------------------------

    @property
    def models(self) -> List[str]:
        return sorted(self._models)

    def signature_for(self, model: str) -> str:
        """The compile signature of ``model``'s one shape-polymorphic
        partition — the routing key.  Every batch of a model shares it,
        so the model has a single home worker."""
        with self._sig_lock:
            signature = self._signatures.get(model)
        if signature is None:
            signature = graph_signature(
                self._models[model].resolve_builder()(
                    dyn("B", DYNAMIC_BATCH_HINT)
                ),
                self._machine,
                self._options,
            )
            with self._sig_lock:
                signature = self._signatures.setdefault(model, signature)
        return signature

    def worker_for(self, model: str) -> str:
        """Which worker requests for ``model`` route to."""
        return self._assign_worker(self.signature_for(model))

    def _assign_worker(self, signature: str) -> str:
        """The signature's home worker (consistent hashing, bounded load).

        A signature keeps its first assignment for the session's
        lifetime — that worker compiled the partition, so re-routing
        would recompile it elsewhere.  New signatures start at their
        consistent-hash home and walk the ring past workers that already
        own a full share — ``ceil(signatures / workers)`` — because with
        a handful of signatures plain consistent hashing routinely piles
        several onto one worker, serializing the fleet.
        """
        with self._sig_lock:
            owner = self._owner_by_sig.get(signature)
            if owner is not None and owner in self._workers:
                return owner
            bound = -(-(len(self._owner_by_sig) + 1) // max(
                1, len(self._workers)
            ))
            preference = self._hash_ring.preference(signature)
            owner = preference[0]
            for node in preference:
                if self._owned_count.get(node, 0) < bound:
                    owner = node
                    break
            self._owner_by_sig[signature] = owner
            self._owned_count[owner] = (
                self._owned_count.get(owner, 0) + 1
            )
            return owner

    def _dispatch(self, pending: _PendingRequest) -> str:
        """Route to the signature's worker; retry across a restart."""
        deadline = time.monotonic() + max(
            2.0, 20 * self._heartbeat_interval
        )
        while True:
            with self._lifecycle_lock:
                if self._closed:
                    raise SessionClosedError("ShardedSession is closed")
                if not self._workers:
                    raise WorkerCrashError(
                        "no workers left in the fleet "
                        "(restart_workers=False and all crashed)"
                    )
                worker_id = self._assign_worker(pending.signature)
                worker = self._workers[worker_id]
            pending.attempts += 1
            try:
                worker.submit(pending)
                get_registry().counter(
                    "service.shard.routed", worker=worker_id
                ).inc()
                return worker_id
            except SlotOverflowError:
                raise
            except (TransportError, OSError, BrokenPipeError):
                if self._closed:
                    raise SessionClosedError("ShardedSession is closed")
                if time.monotonic() > deadline:
                    raise WorkerCrashError(
                        f"could not place request {pending.req_id} on "
                        f"worker {worker_id} (worker unavailable)"
                    )
                # The worker is mid-restart (or its ring was torn down);
                # wait a beat for the replacement and re-route.
                time.sleep(min(0.05, self._heartbeat_interval))

    # -- serving --------------------------------------------------------------

    def submit(
        self,
        inputs: Mapping[str, np.ndarray],
        model: Optional[str] = None,
        batch: Optional[int] = None,
    ) -> "Future[Dict[str, np.ndarray]]":
        """Route one request to its signature's worker; returns a Future.

        The Future resolves to the output dict (arrays shaped for the
        request's batch, copied out of shared memory).  Blocks while the
        target worker's ring has no free slot (backpressure).
        """
        if self._closed:
            raise SessionClosedError("ShardedSession is closed")
        if model is None:
            if len(self._models) != 1:
                raise ValueError(
                    "session serves multiple models; pass model=..."
                )
            model = next(iter(self._models))
        elif model not in self._models:
            raise ValueError(
                f"unknown model {model!r}; serving {self.models}"
            )
        probe = self._probes[model]
        if batch is None:
            batch = probe.infer_batch(inputs)
        if batch <= 0:
            raise ValueError("batch must be positive")
        largest = self._largest_batch[model]
        if largest is not None and batch > largest:
            need = max(
                _footprint(side, batch) for side in self._slot_terms[model]
            )
            raise SlotOverflowError(
                f"batch {batch} of model {model!r} needs {need} slot "
                f"bytes, more than the {self._slot_bytes}-byte slot; the "
                f"largest servable batch is {largest} (raise slot_bytes "
                "to serve larger batches)"
            )
        arrays: Dict[str, np.ndarray] = {}
        for name in probe.activation_names:
            if name not in inputs:
                raise ValueError(f"missing input {name!r}")
            arrays[name] = np.asarray(inputs[name])
        signature = self.signature_for(model)
        tracer = get_tracer()
        ctx = RequestContext.mint() if tracer.enabled else None
        pending = _PendingRequest(
            req_id=next(_REQ_IDS),
            model=model,
            batch=batch,
            inputs=arrays,
            signature=signature,
            future=Future(),
            ctx=ctx,
        )
        if tracer.enabled:
            with tracer.span(
                "shard.submit",
                category="service",
                model=model,
                batch=batch,
                trace_id=ctx.trace_id,
            ) as span:
                # The chain origin: this "s" is what every downstream
                # "t" (worker, batch, partition) and the final "f"
                # (shard.response) bind to in the merged timeline.
                tracer.flow("request", "s", ctx.flow_id)
                worker_id = self._dispatch(pending)
                span.set(worker=worker_id)
        else:
            self._dispatch(pending)
        registry = get_registry()
        registry.counter("service.shard.requests").inc()
        registry.histogram("service.shard.request_batch").observe(batch)
        with self._count_lock:
            self._requests += 1
        return pending.future

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        model: Optional[str] = None,
        batch: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """Blocking wrapper over :meth:`submit`."""
        return self.submit(inputs, model=model, batch=batch).result()

    # -- warm-up --------------------------------------------------------------

    def warm_up(
        self,
        models: Optional[Sequence[str]] = None,
        timeout: float = 300.0,
    ) -> int:
        """Pre-compile models before traffic; returns how many warmed.

        ``models`` names the models to warm; ``None`` warms every
        declared model.  Each is compiled in the worker that owns its
        signature, so the fleet comes up with the exact placement
        steady-state routing will use.
        """
        if models is None:
            models = sorted(self._models)
        by_worker: Dict[str, List[str]] = {}
        for model in models:
            if model not in self._models:
                raise ValueError(f"unknown model {model!r}")
            by_worker.setdefault(self.worker_for(model), []).append(model)
        warmed = 0
        for worker_id, worker_models in sorted(by_worker.items()):
            worker = self._workers[worker_id]
            count, error = worker.request(
                "warmed", ("warm", worker_models), timeout=timeout
            )
            warmed += count
            if error is not None:
                raise error
        return warmed

    # -- introspection --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def workers(self) -> Dict[str, WorkerInfo]:
        """Liveness/identity snapshot of every worker slot."""
        return {
            worker_id: worker.info()
            for worker_id, worker in self._workers.items()
        }

    def stats(self, timeout: float = 30.0) -> ShardedStats:
        """Fleet-wide stats: per-worker snapshots + the merged table."""
        per_worker: Dict[str, ServiceStats] = {}
        batching: Dict[str, Dict[str, BatchingStats]] = {}
        for worker_id, worker in sorted(self._workers.items()):
            try:
                service_stats, engines = worker.request(
                    "stats", ("stats",), timeout=timeout
                )
            except (TransportError, OSError):
                continue  # worker mid-restart: skip this snapshot
            per_worker[worker_id] = service_stats
            batching[worker_id] = engines
        with self._count_lock:
            requests, retries = self._requests, self._retries
        return ShardedStats(
            merged=ServiceStats.merge(per_worker.values()),
            workers=per_worker,
            batching=batching,
            requests=requests,
            retries=retries,
            restarts=dict(self._restarts),
        )

    def metrics_records(
        self, timeout: float = 30.0, include_self: bool = True
    ) -> List[List[dict]]:
        """Per-process metric records: the front end's own registry plus
        one record list per live worker (mid-restart workers skipped).

        Each element is a :meth:`MetricsRegistry.export_records` dump —
        full instrument state including histogram buckets, so quantiles
        survive the merge.  ``include_self=False`` returns only the
        workers' records — for callers that will snapshot the front-end
        registry themselves later (e.g. at trace-write time), avoiding
        double counting in the merge.
        """
        fleets: List[List[dict]] = []
        if include_self:
            fleets.append(get_registry().export_records())
        for worker_id, worker in sorted(self._workers.items()):
            try:
                (records,) = worker.request(
                    "metrics", ("metrics",), timeout=timeout
                )
            except (TransportError, OSError):
                continue
            fleets.append(records)
        return fleets

    def metrics_text(self, timeout: float = 30.0) -> str:
        """Fleet-merged Prometheus exposition text.

        Counters sum, gauges add, histograms merge bucket-by-bucket
        across the front end and every worker, then render as one
        scrape document.
        """
        from ..observability.metrics import merge_metric_records
        from ..observability.prometheus import render_metric_records

        merged = merge_metric_records(self.metrics_records(timeout=timeout))
        return render_metric_records(merged.export_records())

    def collect_worker_spans(
        self, timeout: float = 30.0
    ) -> Dict[str, List[SpanRecord]]:
        """Pull every worker's spans, rebased onto the parent's clock.

        Returns (and caches on :attr:`worker_spans`) a mapping suitable
        for ``write_chrome_trace(..., processes=...)`` — one Chrome-trace
        process row per worker.  ``perf_counter`` is machine-wide on the
        platforms we run on, so worker spans line up with parent spans
        after rebasing through the two tracer epochs.
        """
        parent_epoch = get_tracer().epoch
        for worker_id, worker in sorted(self._workers.items()):
            try:
                epoch, records, _metrics = worker.request(
                    "trace", ("trace",), timeout=timeout
                )
            except (TransportError, OSError):
                continue
            shift = epoch - parent_epoch
            # Incarnation-suffixed keys: a restarted worker gets its own
            # Chrome-trace process row instead of silently overwriting
            # (and clock-skewing) its dead predecessor's spans.
            key = (
                f"shard-{worker_id}"
                if worker.incarnation == 0
                else f"shard-{worker_id}#{worker.incarnation}"
            )
            self.worker_spans[key] = [
                dataclasses.replace(
                    record,
                    start=record.start + shift,
                    end=record.end + shift,
                )
                for record in records
            ]
        return dict(self.worker_spans)

    # -- lifecycle ------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Drain (or cancel), stop every worker, unlink every segment.

        ``drain=True`` lets each worker finish its queued requests
        (reusing ``InferenceSession.close(drain=True)`` in-process)
        before it exits; ``drain=False`` cancels queued work.  Either
        way every future settles, every worker process is joined (or
        terminated after a timeout) and every shared-memory segment is
        closed and unlinked.  Idempotent under concurrent callers.
        """
        with self._close_lock:
            if self._closed:
                return
            if get_tracer().enabled:
                try:
                    self.collect_worker_spans(timeout=10.0)
                except Exception:  # pragma: no cover - best effort
                    pass
            with self._lifecycle_lock:
                self._closed = True
            self._stop_event.set()
            self._heartbeat.join(timeout=5)
            workers = list(self._workers.values())
            for worker in workers:
                try:
                    worker.send(("stop", drain))
                except (OSError, BrokenPipeError):
                    pass
            for worker in workers:
                worker.bye.wait(timeout=60 if drain else 15)
                worker.process.join(timeout=10)
                if worker.process.is_alive():  # pragma: no cover - wedge
                    worker.process.terminate()
                    worker.process.join(timeout=5)
                worker.shutdown()
                for request in worker.take_pending():
                    try:
                        request.future.set_exception(
                            SessionClosedError(
                                "ShardedSession closed before this "
                                "request completed"
                            )
                        )
                    except InvalidStateError:  # pragma: no cover
                        pass
            get_registry().gauge("service.shard.workers").set(0)

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
