"""Flight recorder: ring bounds, delta protocol, gated dumps."""

import json
import os

from repro.observability.export import (
    validate_chrome_trace,
    validate_chrome_trace_file,
)
from repro.observability.flight import (
    FLIGHT_DIR_ENV,
    FlightRecorder,
    dump_flight,
    flight_dir,
    get_flight_recorder,
    set_flight_recorder,
)
from repro.observability.tracer import SpanRecord


class TestRing:
    def test_bounded_capacity(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record(f"e{i}")
        assert len(rec) == 4
        assert [r.name for r in rec.records()] == ["e6", "e7", "e8", "e9"]
        assert rec.sequence == 10

    def test_record_carries_attrs_and_duration(self):
        rec = FlightRecorder()
        rec.record("exec", category="service", duration=0.5, batch=8)
        (record,) = rec.records()
        assert record.attrs == {"batch": 8}
        assert abs((record.end - record.start) - 0.5) < 1e-9

    def test_records_since_delta(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record(f"e{i}")
        # 8 already shipped, 2 new — but never more than the ring holds.
        assert [r.name for r in rec.records_since(8)] == ["e8", "e9"]
        assert rec.records_since(10) == []
        # A huge backlog is capped at ring capacity.
        assert len(rec.records_since(0)) == 4

    def test_clear(self):
        rec = FlightRecorder()
        rec.record("x")
        rec.clear()
        assert len(rec) == 0
        assert rec.sequence == 0

    def test_global_recorder_identity(self):
        original = get_flight_recorder()
        try:
            mine = set_flight_recorder(FlightRecorder())
            assert get_flight_recorder() is mine
        finally:
            set_flight_recorder(original)


class TestDump:
    def test_no_env_means_no_dump(self, monkeypatch):
        monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)
        assert flight_dir() is None
        assert dump_flight("test") is None

    def test_dump_writes_valid_chrome_trace(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        original = get_flight_recorder()
        try:
            rec = set_flight_recorder(FlightRecorder())
            rec.record("batch.execute", category="service", batch=8)
            rec.record("worker.stop", category="service", worker="w0")
            path = dump_flight("worker-death", signature="abc123")
        finally:
            set_flight_recorder(original)
        assert path is not None and os.path.exists(path)
        assert "worker-death" in os.path.basename(path)
        assert validate_chrome_trace_file(path) == []
        document = json.load(open(path))
        other = document["otherData"]
        assert other["flight_reason"] == "worker-death"
        assert other["flight_attrs"]["signature"] == "abc123"
        assert other["pid"] == os.getpid()
        assert "metrics" in other
        names = {e["name"] for e in document["traceEvents"]}
        assert {"batch.execute", "worker.stop"} <= names

    def test_dump_includes_extra_processes(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        original = get_flight_recorder()
        try:
            set_flight_recorder(FlightRecorder())
            dead = [
                SpanRecord(
                    name="worker.request",
                    category="service",
                    start=0.0,
                    end=0.001,
                    thread_id=1,
                    depth=0,
                    attrs={"req_id": 7},
                )
            ]
            path = dump_flight(
                "worker-death", extra_processes={"shard-w0#0": dead}
            )
        finally:
            set_flight_recorder(original)
        document = json.load(open(path))
        assert validate_chrome_trace(document) == []
        process_names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert "shard-w0#0" in process_names
        assert any(
            e["name"] == "worker.request" for e in document["traceEvents"]
        )

    def test_reason_sanitized_in_filename(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        original = get_flight_recorder()
        try:
            set_flight_recorder(FlightRecorder())
            path = dump_flight("weird/reason with spaces!")
        finally:
            set_flight_recorder(original)
        base = os.path.basename(path)
        assert "/" not in base.replace(str(tmp_path), "")
        assert " " not in base
