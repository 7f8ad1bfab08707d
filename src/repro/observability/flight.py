"""The anomaly flight recorder: always-on bounded span history.

Postmortems usually start *after* the anomaly: a worker died — and
tracing was off, so the evidence is gone.  The :class:`FlightRecorder` keeps a bounded ring
of coarse :class:`SpanRecord` entries per process (request handling,
batch executions, lifecycle events — cheap enough to leave on), and
:func:`dump_flight` writes the ring plus the tail of any live tracer
and a metrics snapshot to a timestamped Chrome-trace file the moment an
anomaly fires.

Dumps are gated on the ``REPRO_FLIGHT_DIR`` environment variable: unset
means record-but-never-write, so tests and ordinary runs don't litter
the filesystem.  The one trigger wired in this repo is a
``ShardedSession`` worker death/restart: the parent dumps, including the
dead worker's last spans cached from heartbeat replies.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

from .tracer import SpanRecord

#: Environment variable naming the directory flight dumps land in.
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

#: Default ring capacity — enough for the last few hundred requests
#: without ever mattering for memory.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Bounded, thread-safe ring of recent span records.

    Unlike the tracer this is *always on* — recording is an O(1) deque
    append of an already-built record, done only at coarse per-request /
    per-batch / lifecycle sites, so the overhead is negligible even in
    production serving.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)
        self._epoch = time.perf_counter()
        self._sequence = 0

    @property
    def epoch(self) -> float:
        return self._epoch

    def record(
        self,
        name: str,
        category: str = "flight",
        duration: float = 0.0,
        **attrs,
    ) -> None:
        """Append one event; ``duration`` seconds ending now."""
        now = time.perf_counter() - self._epoch
        record = SpanRecord(
            name=name,
            category=category,
            start=now - duration,
            end=now,
            thread_id=threading.get_ident(),
            depth=0,
            attrs=attrs,
        )
        with self._lock:
            self._ring.append(record)
            self._sequence += 1

    def record_span(self, record: SpanRecord) -> None:
        """Append an externally built record (e.g. relayed from a worker)."""
        with self._lock:
            self._ring.append(record)
            self._sequence += 1

    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._ring)

    @property
    def sequence(self) -> int:
        """Total records ever appended (not capped by capacity)."""
        with self._lock:
            return self._sequence

    def records_since(self, sequence: int) -> List[SpanRecord]:
        """Records appended after ``sequence`` — the piggyback protocol.

        Workers ship only the delta on each heartbeat reply; the parent
        caches them so a SIGKILLed worker's last spans survive it.
        """
        with self._lock:
            new = self._sequence - sequence
            if new <= 0:
                return []
            return list(self._ring)[-min(new, len(self._ring)):]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._sequence = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


# -- the process-wide recorder -------------------------------------------------

_global_lock = threading.Lock()
_global_recorder: Optional[FlightRecorder] = None


def get_flight_recorder() -> FlightRecorder:
    """The process-wide flight recorder (always recording)."""
    global _global_recorder
    recorder = _global_recorder
    if recorder is None:
        with _global_lock:
            if _global_recorder is None:
                _global_recorder = FlightRecorder()
            recorder = _global_recorder
    return recorder


def set_flight_recorder(recorder: FlightRecorder) -> FlightRecorder:
    global _global_recorder
    with _global_lock:
        _global_recorder = recorder
    return recorder


def flight_dir() -> Optional[str]:
    """The dump directory, or None when flight dumps are disabled."""
    value = os.environ.get(FLIGHT_DIR_ENV, "").strip()
    return value or None


def dump_flight(
    reason: str,
    extra_processes: Optional[Dict[str, Iterable[SpanRecord]]] = None,
    **attrs,
) -> Optional[str]:
    """Write a flight dump if ``REPRO_FLIGHT_DIR`` is set; returns the path.

    The dump is a valid Chrome-trace document (loadable in Perfetto like
    any ``--trace`` output) containing this process's flight ring, the
    tail of the live tracer when tracing happens to be on, a metrics
    snapshot, and any ``extra_processes`` rows (e.g. the dead worker's
    cached last spans).
    """
    directory = flight_dir()
    if directory is None:
        return None
    from .export import chrome_trace_events
    from .metrics import get_registry
    from .tracer import get_tracer

    try:
        os.makedirs(directory, exist_ok=True)
    except OSError:
        return None
    recorder = get_flight_recorder()
    events = chrome_trace_events(recorder.records())
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": f"flight:{reason}"},
        }
    )
    tracer = get_tracer()
    if tracer.enabled and len(tracer):
        # Rebase the tracer tail onto the recorder's clock so both rows
        # share one timeline.
        shift = tracer.epoch - recorder.epoch
        tail = [
            SpanRecord(
                name=r.name,
                category=r.category,
                start=r.start + shift,
                end=r.end + shift,
                thread_id=r.thread_id,
                depth=r.depth,
                attrs=r.attrs,
                flow=r.flow,
                flow_id=r.flow_id,
            )
            for r in tracer.records()[-recorder.capacity:]
        ]
        events.extend(chrome_trace_events(tail, pid=2))
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 2,
                "tid": 0,
                "args": {"name": "tracer-tail"},
            }
        )
    next_pid = 3
    for name, records in sorted((extra_processes or {}).items()):
        events.extend(chrome_trace_events(records, pid=next_pid))
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": next_pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
        next_pid += 1
    document: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "flight_reason": reason,
            "flight_attrs": {k: _jsonable(v) for k, v in attrs.items()},
            "pid": os.getpid(),
            "unix_time": time.time(),
            "metrics": get_registry().snapshot(),
        },
    }
    safe_reason = "".join(
        c if c.isalnum() or c in "-_" else "-" for c in reason
    )
    path = os.path.join(
        directory,
        f"flight-{time.strftime('%Y%m%dT%H%M%S')}-"
        f"{os.getpid()}-{safe_reason}.json",
    )
    try:
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1)
    except OSError:
        return None
    return path


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
