"""Dynamic micro-batching: coalesce concurrent requests into one execution.

Executed alone, eight concurrent callers pay eight executor dispatches.
The :class:`BatchingEngine` sits in front of an :class:`.InferenceSession`
and turns that regime around — exactly the "small batch sizes in real
production scenarios" the paper targets, attacked from the serving side
(clipper/triton-style dynamic batching) instead of the compiler side.

How it works:

* ``submit(inputs) -> Future`` drops the request into the engine's one
  **queue**.
* One **dispatcher thread** coalesces up to ``max_batch`` pending requests
  within a ``batch_timeout_us`` window.
* The dispatcher **concatenates** the requests along the batch axis,
  executes the session's shape-polymorphic partition **once** at exactly
  the combined row count, and **splits** the output back onto the
  per-request futures.

One execution therefore amortizes executor dispatch and thread-pool
fan-out across the whole micro-batch; per-request results are
bit-identical to the unbatched path because every batch row is computed
independently by the generated kernels.  The partition serves any row
count, so a window has no row bound, nothing is padded and the cache holds
one entry no matter how batches combine.

Backpressure is a bounded queue (``queue_depth``): submitters block until
the dispatcher drains space.  ``close(drain=True)`` completes every queued
request; ``close(drain=False)`` cancels what has not started executing —
either way no future is left pending.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import SessionClosedError
from ..observability import RequestContext, get_registry, get_tracer
from ..observability.context import bind_contexts

#: Engine lifecycle states.
_RUNNING, _DRAINING, _CANCELLING = "running", "draining", "cancelling"


@dataclass
class _Request:
    """One queued inference request awaiting the dispatcher."""

    inputs: Dict[str, np.ndarray]
    batch: int
    future: Future
    enqueued: float
    #: Trace identity riding with the request; None when tracing is off.
    ctx: Optional[RequestContext] = None


@dataclass(frozen=True)
class BatchingStats:
    """Immutable snapshot of what a :class:`BatchingEngine` did."""

    submitted: int
    completed: int
    failed: int
    cancelled: int
    batches: int
    rows: int
    max_requests_per_batch: int
    queue_wait_seconds: float
    max_queue_wait_seconds: float

    @property
    def padded_rows(self) -> int:
        """Always 0: every window executes at its exact row count.  Kept
        so readers of the older snapshot shape keep working."""
        return 0

    @property
    def coalesce_ratio(self) -> float:
        """Requests served per partition execution (1.0 = no batching win)."""
        return self.completed / self.batches if self.batches else 0.0

    @property
    def mean_queue_wait_seconds(self) -> float:
        return self.queue_wait_seconds / self.completed if self.completed else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "batches": self.batches,
            "rows": self.rows,
            "max_requests_per_batch": self.max_requests_per_batch,
            "queue_wait_seconds": self.queue_wait_seconds,
            "max_queue_wait_seconds": self.max_queue_wait_seconds,
            "coalesce_ratio": self.coalesce_ratio,
            "mean_queue_wait_seconds": self.mean_queue_wait_seconds,
        }


def format_batching_stats(stats: BatchingStats) -> str:
    """Human-readable BatchingStats block."""
    return "\n".join(
        [
            "BatchingStats",
            (
                f"  submitted={stats.submitted} completed={stats.completed} "
                f"failed={stats.failed} cancelled={stats.cancelled}"
            ),
            (
                f"  batches={stats.batches} rows={stats.rows} "
                f"coalesce_ratio={stats.coalesce_ratio:.2f} "
                f"max_requests_per_batch={stats.max_requests_per_batch}"
            ),
            (
                f"  queue_wait mean={stats.mean_queue_wait_seconds * 1e3:.3f}ms "
                f"max={stats.max_queue_wait_seconds * 1e3:.3f}ms"
            ),
        ]
    )


class BatchingEngine:
    """Dynamic micro-batcher in front of one :class:`.InferenceSession`.

    Args:
        session: The session whose partition serves the batches.  The
            engine needs every activation input and every output to carry
            exactly one batch-scaled axis (so requests concatenate and
            split cleanly); sessions over workloads violating that are
            rejected here.
        max_batch: Most requests one execution may coalesce.
        batch_timeout_us: How long the dispatcher holds the first request
            of a window open for followers, in microseconds.
        queue_depth: Bound on queued (not yet dispatched) requests;
            submitters block while the queue is full.  ``None`` disables
            backpressure.
    """

    def __init__(
        self,
        session,
        *,
        max_batch: int = 32,
        batch_timeout_us: int = 2000,
        queue_depth: Optional[int] = 256,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if batch_timeout_us < 0:
            raise ValueError("batch_timeout_us must be >= 0")
        if queue_depth is not None and queue_depth < 1:
            raise ValueError("queue_depth must be >= 1 (or None)")
        self._session = session
        self.max_batch = int(max_batch)
        self.batch_timeout_us = int(batch_timeout_us)
        self.queue_depth = queue_depth
        self._timeout_s = batch_timeout_us / 1e6
        self._input_names: List[str] = list(session.input_names)
        self._input_axes: Dict[str, Tuple[int, int]] = {}
        for name in self._input_names:
            axes = session.input_batch_axes.get(name, [])
            if len(axes) != 1:
                raise ValueError(
                    f"input {name!r} has {len(axes)} batch-scaled axes; "
                    "micro-batching needs exactly one concatenation axis"
                )
            self._input_axes[name] = tuple(axes[0])
        self._output_axes: List[Tuple[int, int]] = []
        for index, axes in enumerate(session.output_batch_axes):
            if len(axes) != 1:
                raise ValueError(
                    f"output {index} has {len(axes)} batch-scaled axes; "
                    "micro-batching needs exactly one split axis"
                )
            self._output_axes.append(tuple(axes[0]))
        self._input_dtypes: Dict[str, np.dtype] = dict(
            getattr(session, "input_dtypes", {}) or {}
        )
        #: Guards the queue and the lifecycle state.
        self._cond = threading.Condition()
        self._items: "deque[_Request]" = deque()
        self._state = _RUNNING
        self._stats_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._cancelled = 0
        self._batches = 0
        self._rows = 0
        self._max_requests = 0
        self._wait_sum = 0.0
        self._wait_max = 0.0
        self._thread = threading.Thread(
            target=self._dispatch, name="repro-batch", daemon=True
        )
        self._thread.start()

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        inputs: Mapping[str, np.ndarray],
        batch: Optional[int] = None,
        ctx: Optional[RequestContext] = None,
    ) -> "Future[Dict[str, np.ndarray]]":
        """Enqueue one request; the Future resolves to its output dict.

        Validates shapes/dtypes *here* so a malformed request fails its own
        caller instead of poisoning the batch it would have joined.  Blocks
        while the queue is at ``queue_depth``.

        When tracing is on the request carries a :class:`RequestContext`
        (minted here unless the caller — e.g. a shard worker relaying a
        front-end request — already has one) and its flow chain starts or
        continues at the enqueue point.
        """
        if batch is None:
            batch = self._session.infer_batch(inputs)
        if batch <= 0:
            raise ValueError("batch must be positive")
        arrays = self._validated(inputs, batch)
        tracer = get_tracer()
        if tracer.enabled:
            phase = "t"
            if ctx is None:
                ctx = RequestContext.mint()
                phase = "s"
            with tracer.span(
                "request.enqueue",
                category="service",
                batch=batch,
                trace_id=ctx.trace_id,
            ):
                tracer.flow("request", phase, ctx.flow_id)
        registry = get_registry()
        with self._cond:
            while (
                self.queue_depth is not None
                and len(self._items) >= self.queue_depth
                and self._state == _RUNNING
            ):
                registry.counter("service.batch.queue_full_waits").inc()
                self._cond.wait()
            # Checked under the lock close() flips the state with: a
            # request appended here is still seen by the dispatcher,
            # which drains or cancels it before exiting.
            if self._state != _RUNNING:
                raise SessionClosedError("BatchingEngine is closed")
            future: "Future[Dict[str, np.ndarray]]" = Future()
            self._items.append(
                _Request(arrays, batch, future, time.perf_counter(), ctx=ctx)
            )
            self._cond.notify_all()
        with self._stats_lock:
            self._submitted += 1
        registry.counter("service.requests").inc()
        registry.histogram("service.request_batch").observe(batch)
        return future

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        batch: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """Blocking wrapper: submit and wait for the result."""
        return self.submit(inputs, batch=batch).result()

    def _validated(
        self, inputs: Mapping[str, np.ndarray], batch: int
    ) -> Dict[str, np.ndarray]:
        arrays: Dict[str, np.ndarray] = {}
        for name in self._input_names:
            if name not in inputs:
                raise ValueError(f"missing input {name!r}")
            array = np.asarray(inputs[name])
            axis, mult = self._input_axes[name]
            if array.ndim <= axis or array.shape[axis] != batch * mult:
                raise ValueError(
                    f"input {name!r} has shape {array.shape}; expected "
                    f"extent {batch * mult} on axis {axis}"
                )
            expected = self._input_dtypes.get(name)
            if expected is not None and array.dtype != expected:
                raise ValueError(
                    f"input {name!r} has dtype {array.dtype}, expected "
                    f"{np.dtype(expected)}"
                )
            arrays[name] = array
        return arrays

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self) -> None:
        """Dispatcher loop: collect a window, execute it."""
        while True:
            with self._cond:
                while not self._items and self._state == _RUNNING:
                    self._cond.wait()
                if not self._items:
                    return  # closed and drained
                if self._state == _CANCELLING:
                    cancelled = 0
                    while self._items:
                        if self._items.popleft().future.cancel():
                            cancelled += 1
                    self._cond.notify_all()
                    with self._stats_lock:
                        self._cancelled += cancelled
                    get_registry().counter("service.batch.cancelled").inc(
                        cancelled
                    )
                    return
                with get_tracer().span(
                    "batch.collect", category="service"
                ) as span:
                    requests = self._collect_locked()
                    span.set(
                        requests=len(requests),
                        rows=sum(r.batch for r in requests),
                    )
                self._cond.notify_all()  # free backpressure waiters
            self._execute(requests)

    def _collect_locked(self) -> List[_Request]:
        """Pop one coalescing window off the queue (cond held)."""
        requests = [self._items.popleft()]
        deadline = time.perf_counter() + self._timeout_s
        while len(requests) < self.max_batch:
            if self._items:
                requests.append(self._items.popleft())
                continue
            if self._state != _RUNNING:
                break  # draining: don't hold the window open
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            self._cond.wait(remaining)
        return requests

    def _execute(self, requests: List[_Request]) -> None:
        """Run one coalesced window through the session's partition."""
        # A caller may have cancelled a future while it sat in the queue;
        # set_running_or_notify_cancel also makes later cancels no-ops.
        live = [
            r for r in requests if r.future.set_running_or_notify_cancel()
        ]
        dropped = len(requests) - len(live)
        if dropped:
            with self._stats_lock:
                self._cancelled += dropped
            get_registry().counter("service.batch.cancelled").inc(dropped)
        if not live:
            return
        rows = sum(r.batch for r in live)
        start = time.perf_counter()
        tracer = get_tracer()
        ctxs = [r.ctx for r in live if r.ctx is not None]
        try:
            combined = self._combine(live)
            with tracer.span(
                "batch.execute",
                category="service",
                requests=len(live),
                rows=rows,
            ), bind_contexts(ctxs):
                outputs = self._session.execute(combined, rows)
                # One batch.execute slice linked to the N coalesced
                # request chains: a local chain (hop 0) terminates here,
                # a relayed one (shard worker) steps through.
                for ctx in ctxs:
                    tracer.flow(
                        "request",
                        "f" if ctx.hop == 0 else "t",
                        ctx.flow_id,
                    )
            results = self._split(outputs, live)
        except BaseException as exc:
            for request in live:
                request.future.set_exception(exc)
            with self._stats_lock:
                self._failed += len(live)
            get_registry().counter("service.batch.failed").inc(len(live))
            return
        for request, result in zip(live, results):
            request.future.set_result(result)
        self._note_executed(live, rows, start)

    def _combine(self, requests: List[_Request]) -> Dict[str, np.ndarray]:
        if len(requests) == 1:
            return dict(requests[0].inputs)
        combined: Dict[str, np.ndarray] = {}
        for name in self._input_names:
            axis, _ = self._input_axes[name]
            combined[name] = np.concatenate(
                [r.inputs[name] for r in requests], axis=axis
            )
        return combined

    def _split(
        self, outputs: Dict[str, np.ndarray], requests: List[_Request]
    ) -> List[Dict[str, np.ndarray]]:
        results: List[Dict[str, np.ndarray]] = [{} for _ in requests]
        for index, (name, array) in enumerate(outputs.items()):
            axis, mult = self._output_axes[index]
            offset = 0
            for request, result in zip(requests, results):
                window = [slice(None)] * array.ndim
                window[axis] = slice(
                    offset * mult, (offset + request.batch) * mult
                )
                result[name] = array[tuple(window)]
                offset += request.batch
        return results

    def _note_executed(
        self, requests: List[_Request], rows: int, start: float
    ) -> None:
        waits = [start - r.enqueued for r in requests]
        with self._stats_lock:
            self._completed += len(requests)
            self._batches += 1
            self._rows += rows
            self._max_requests = max(self._max_requests, len(requests))
            self._wait_sum += sum(waits)
            self._wait_max = max(self._wait_max, max(waits))
        registry = get_registry()
        registry.counter("service.batch.executions").inc()
        registry.counter("service.batch.requests").inc(len(requests))
        registry.histogram("service.batch.size").observe(len(requests))
        registry.histogram("service.batch.rows").observe(rows)
        for wait in waits:
            registry.histogram("service.batch.queue_wait_seconds").observe(
                wait
            )

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._state != _RUNNING

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and settle every queued future.

        ``drain=True`` executes everything already queued; ``drain=False``
        cancels queued requests (windows already executing still complete).
        Idempotent; later calls return immediately.
        """
        with self._cond:
            if self._state != _RUNNING:
                return
            self._state = _DRAINING if drain else _CANCELLING
            self._cond.notify_all()
        self._thread.join()

    def __enter__(self) -> "BatchingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection --------------------------------------------------------

    def stats(self) -> BatchingStats:
        """Immutable snapshot of every batching counter."""
        with self._stats_lock:
            return BatchingStats(
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                cancelled=self._cancelled,
                batches=self._batches,
                rows=self._rows,
                max_requests_per_batch=self._max_requests,
                queue_wait_seconds=self._wait_sum,
                max_queue_wait_seconds=self._wait_max,
            )
