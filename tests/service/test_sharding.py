"""ShardedSession: routing, identity, lifecycle, crash recovery.

The fleet must serve bit-identically to a single-process
InferenceSession, keep each model's one partition signature in exactly
one worker, survive a SIGKILLed worker with zero failed
requests, and never leak a worker process or shared-memory segment.
"""

import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.errors import SessionClosedError, SlotOverflowError
from repro.observability import (
    FLIGHT_DIR_ENV,
    Tracer,
    chrome_trace,
    flow_chains,
    get_tracer,
    set_tracer,
    validate_chrome_trace,
    validate_exposition_text,
    validate_flow_chains,
)
from repro.service import (
    ConsistentHashRing,
    InferenceSession,
    ModelSpec,
    ShardedSession,
    live_segments,
)
from repro.workloads import make_mlp_inputs


def mlp_weights(name="MLP_1", seed=0):
    inputs = make_mlp_inputs(name, 32, seed=seed)
    return {k: v for k, v in inputs.items() if k.startswith("w")}


def make_spec(name="MLP_1"):
    return ModelSpec(name=name, workload=name, weights=mlp_weights(name))


def outputs_equal(a, b):
    """Positional comparison: auto-generated tensor names differ across
    processes, but output order is the graph's output order."""
    va, vb = list(a.values()), list(b.values())
    return len(va) == len(vb) and all(
        np.array_equal(x, y) for x, y in zip(va, vb)
    )


class TestConsistentHashRing:
    def test_routing_is_stable(self):
        ring = ConsistentHashRing(["w0", "w1", "w2"])
        assert ring.node_for("abc") == ring.node_for("abc")
        again = ConsistentHashRing(["w2", "w0", "w1"])  # order-independent
        assert ring.node_for("abc") == again.node_for("abc")

    def test_removal_only_rehomes_removed_nodes_keys(self):
        ring = ConsistentHashRing([f"w{i}" for i in range(4)])
        keys = [f"sig-{i}" for i in range(200)]
        before = {key: ring.node_for(key) for key in keys}
        ring.remove("w2")
        for key in keys:
            if before[key] != "w2":
                assert ring.node_for(key) == before[key]
            else:
                assert ring.node_for(key) != "w2"

    def test_preference_starts_at_home_and_covers_all(self):
        ring = ConsistentHashRing(["w0", "w1", "w2"])
        order = ring.preference("some-key")
        assert order[0] == ring.node_for("some-key")
        assert sorted(order) == ["w0", "w1", "w2"]

    def test_duplicate_and_missing_nodes_rejected(self):
        ring = ConsistentHashRing(["w0"])
        with pytest.raises(ValueError):
            ring.add("w0")
        with pytest.raises(ValueError):
            ring.remove("w9")
        ring.remove("w0")
        with pytest.raises(ValueError):
            ring.node_for("anything")


class TestModelSpec:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ModelSpec(name="m")
        with pytest.raises(ValueError, match="exactly one"):
            ModelSpec(name="m", workload="MLP_1", builder=lambda b: None)

    def test_unknown_workload_rejected_on_resolve(self):
        spec = ModelSpec(name="m", workload="NOPE")
        with pytest.raises(ValueError, match="unknown workload"):
            spec.resolve_builder()


@pytest.fixture(scope="module")
def fleet():
    # Slots sized for 64-row MLP_1 requests: the default covers
    # DYNAMIC_BATCH_HINT rows, and the tests send batches above it.
    session = ShardedSession(
        [make_spec("MLP_1"), make_spec("MLP_2")],
        num_workers=2,
        slot_bytes=64 * 128 * 4 + 256,
    )
    session.warm_up()
    yield session
    session.close()


@pytest.fixture(scope="module")
def reference():
    session = InferenceSession.for_workload("MLP_1", weights=mlp_weights())
    yield session
    session.close()


class TestServing:
    def test_bit_identical_to_single_session(self, fleet, reference):
        x = make_mlp_inputs("MLP_1", 8, seed=3)["x"]
        assert outputs_equal(
            fleet.run({"x": x}, model="MLP_1"), reference.run({"x": x})
        )

    def test_bucket_rounding_matches_single_session(self, fleet, reference):
        # Batches below, at and above the compile hint all run exactly
        # on the one partition.
        for batch in (3, 8, 33):
            x = make_mlp_inputs("MLP_1", batch, seed=4)["x"]
            assert outputs_equal(
                fleet.run({"x": x}, model="MLP_1"), reference.run({"x": x})
            )

    def test_concurrent_submits_all_settle_identically(
        self, fleet, reference
    ):
        x = make_mlp_inputs("MLP_1", 8, seed=5)["x"]
        expected = reference.run({"x": x})
        futures = [fleet.submit({"x": x}, model="MLP_1") for _ in range(24)]
        for future in futures:
            assert outputs_equal(future.result(timeout=60), expected)

    def test_missing_input_rejected(self, fleet):
        with pytest.raises(ValueError, match="missing input"):
            fleet.submit(
                {"wrong": np.zeros((4, 13), np.float32)}, model="MLP_1"
            )

    def test_unknown_model_rejected(self, fleet):
        x = np.zeros((4, 13), np.float32)
        with pytest.raises(ValueError, match="unknown model"):
            fleet.submit({"x": x}, model="NOPE")

    def test_each_signature_compiles_in_exactly_one_worker(self, fleet):
        stats = fleet.stats()
        owners = {}
        for worker, worker_stats in stats.workers.items():
            for sig in worker_stats.signatures:
                if sig.compiles:
                    owners.setdefault(sig.signature, []).append(worker)
        assert owners, "warm-up should have compiled both models"
        for signature, workers in owners.items():
            assert len(workers) == 1, (
                f"signature {signature[:12]} compiled in {workers}"
            )
        # One signature per model, each compiled exactly once.
        merged = {s.signature: s for s in stats.merged.signatures}
        assert len(merged) == 2
        assert all(s.compiles == 1 for s in merged.values())

    def test_routing_is_stable_and_spread(self, fleet):
        first = fleet.worker_for("MLP_1")
        assert fleet.worker_for("MLP_1") == first
        homes = {fleet.worker_for(m) for m in ("MLP_1", "MLP_2")}
        # Bounded-load assignment spreads 2 signatures over 2 workers.
        assert len(homes) == 2

    def test_stats_aggregate_fleet_wide(self, fleet):
        stats = fleet.stats()
        assert stats.requests > 0
        assert stats.merged.compiles == sum(
            ws.compiles for ws in stats.workers.values()
        )
        placement = stats.placement()
        assert set(placement) == set(fleet.workers())

    def test_worker_info_snapshot(self, fleet):
        info = fleet.workers()
        assert sorted(info) == ["w0", "w1"]
        for worker in info.values():
            assert worker.alive
            assert worker.pid is not None
            assert worker.incarnation == 0


class TestMultiModel:
    def test_two_models_route_and_serve(self):
        specs = [make_spec("MLP_1"), make_spec("MLP_2")]
        with ShardedSession(specs, num_workers=2) as session:
            session.warm_up()
            x1 = make_mlp_inputs("MLP_1", 4, seed=6)["x"]
            x2 = make_mlp_inputs("MLP_2", 4, seed=6)["x"]
            out1 = session.run({"x": x1}, model="MLP_1")
            out2 = session.run({"x": x2}, model="MLP_2")
            assert next(iter(out1.values())).shape[0] == 4
            assert next(iter(out2.values())).shape[0] == 4
            with pytest.raises(ValueError, match="pass model="):
                session.submit({"x": x1})

    def test_for_workloads_constructor(self):
        weights = {
            "MLP_1": mlp_weights("MLP_1"),
            "MLP_2": mlp_weights("MLP_2"),
        }
        session = ShardedSession.for_workloads(
            ["MLP_1", "MLP_2"],
            weights=weights,
            num_workers=2,
        )
        try:
            assert session.models == ["MLP_1", "MLP_2"]
        finally:
            session.close()


class TestLifecycle:
    def test_submit_after_close_raises(self):
        session = ShardedSession([make_spec()], num_workers=1)
        session.close()
        with pytest.raises(SessionClosedError):
            session.submit({"x": np.zeros((4, 13), np.float32)})

    def test_close_is_idempotent_under_concurrency(self):
        session = ShardedSession([make_spec()], num_workers=1)
        barrier = threading.Barrier(4)
        errors = []

        def closer():
            try:
                barrier.wait()
                session.close()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert session.closed

    def test_close_drains_in_flight_requests(self):
        session = ShardedSession([make_spec()], num_workers=1)
        x = make_mlp_inputs("MLP_1", 8, seed=7)["x"]
        futures = [session.submit({"x": x}) for _ in range(8)]
        session.close(drain=True)
        for future in futures:
            out = future.result(timeout=5)  # already settled
            assert next(iter(out.values())).shape[0] == 8

    def test_close_leaves_no_workers_or_segments(self):
        before = set(live_segments())
        session = ShardedSession([make_spec()], num_workers=2)
        assert len(set(live_segments()) - before) == 2  # one ring/worker
        pids = [info.pid for info in session.workers().values()]
        session.close()
        assert set(live_segments()) == before
        deadline = time.monotonic() + 10
        for pid in pids:
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:  # pragma: no cover - diagnostic
                pytest.fail(f"worker pid {pid} still alive after close")

    def test_default_warm_up_compiles_every_model(self):
        session = ShardedSession(
            [make_spec("MLP_1"), make_spec("MLP_2")], num_workers=2
        )
        try:
            assert session.warm_up() == 2
            stats = session.stats()
            assert stats.requests == 0
            assert stats.merged.compiles == 2
        finally:
            session.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="num_workers"):
            ShardedSession([make_spec()], num_workers=0)
        with pytest.raises(ValueError, match="at least one model"):
            ShardedSession([])
        with pytest.raises(ValueError, match="duplicate"):
            ShardedSession([make_spec(), make_spec()])


class TestTelemetry:
    def test_flow_chains_stitch_front_end_to_workers(self):
        """The acceptance walk: every request's flow chain starts at the
        front end ("s"), relays through the worker's spans ("t"), and
        terminates back at the front end ("f") — across process rows."""
        original = get_tracer()
        tracer = set_tracer(Tracer(enabled=True))
        try:
            # Workers inherit the tracer's enabled flag at spawn time.
            session = ShardedSession(
                [make_spec()], num_workers=2
            )
            try:
                session.warm_up()
                x = make_mlp_inputs("MLP_1", 8, seed=21)["x"]
                futures = [session.submit({"x": x}) for _ in range(6)]
                for future in futures:
                    future.result(timeout=120)
                spans = session.collect_worker_spans()
            finally:
                session.close()
            document = chrome_trace(tracer, processes=spans)
        finally:
            set_tracer(original)
        assert validate_chrome_trace(document) == []
        assert validate_flow_chains(document) == []
        chains = flow_chains(document)
        assert len(chains) >= 6  # warm-up requests trace too
        front_pid = 1
        for events in chains.values():
            phases = [e["ph"] for e in events]
            assert phases[0] == "s" and phases[-1] == "f"
            assert all(ph == "t" for ph in phases[1:-1])
            pids = {e["pid"] for e in events}
            # Minted and terminated at the front end, relayed in a worker.
            assert events[0]["pid"] == front_pid
            assert events[-1]["pid"] == front_pid
            assert pids - {front_pid}, "chain never entered a worker"

    def test_metrics_text_merges_fleet(self, fleet):
        x = make_mlp_inputs("MLP_1", 8, seed=22)["x"]
        fleet.run({"x": x}, model="MLP_1")
        text = fleet.metrics_text()
        assert validate_exposition_text(text) == []
        # Front-end counters and worker-side counters in one scrape.
        assert "service_shard_requests" in text
        assert "service_worker_requests" in text
        assert 'service_shard_slot_wait_seconds{quantile="0.95"}' in text

    def test_worker_death_leaves_flight_dump(self, monkeypatch, tmp_path):
        tmp = str(tmp_path)
        monkeypatch.setenv(FLIGHT_DIR_ENV, tmp)
        session = ShardedSession(
            [make_spec()],
            num_workers=2,
            heartbeat_interval=0.1,
        )
        try:
            session.warm_up()
            x = make_mlp_inputs("MLP_1", 8, seed=23)["x"]
            target = session.worker_for("MLP_1")
            victim = session.workers()[target]
            # Run some load, then give the heartbeat a couple of cycles
            # to piggyback the victim's flight ring back to the parent.
            for _ in range(4):
                session.run({"x": x})
            time.sleep(0.4)
            futures = [session.submit({"x": x}) for _ in range(10)]
            os.kill(victim.pid, signal.SIGKILL)
            results = [f.result(timeout=120) for f in futures]
            assert len(results) == 10
            assert all(r is not None for r in results)
        finally:
            session.close()
        dumps = [f for f in os.listdir(tmp) if "worker-death" in f]
        assert dumps, "worker death should have dumped a flight trace"
        path = os.path.join(tmp, sorted(dumps)[0])
        assert validate_chrome_trace(json.load(open(path))) == []
        document = json.load(open(path))
        other = document["otherData"]
        assert other["flight_reason"] == "worker-death"
        assert other["flight_attrs"]["worker"] == target
        assert other["flight_attrs"]["incarnation"] == 0
        names = {e["name"] for e in document["traceEvents"]}
        assert "shard.worker_death" in names
        # The dead worker's piggybacked ring renders as its own process
        # row carrying its last recorded requests.
        process_rows = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert f"shard-{target}#0" in process_rows
        assert "worker.start" in names or "worker.request" in names


class TestCrashRecovery:
    def test_killed_worker_restarts_with_zero_failed_requests(self):
        before = set(live_segments())
        session = ShardedSession(
            [make_spec()],
            num_workers=2,
            heartbeat_interval=0.1,
        )
        try:
            session.warm_up()
            x = make_mlp_inputs("MLP_1", 8, seed=8)["x"]
            target = session.worker_for("MLP_1")
            victim = session.workers()[target]
            futures = [session.submit({"x": x}) for _ in range(10)]
            os.kill(victim.pid, signal.SIGKILL)
            futures += [session.submit({"x": x}) for _ in range(10)]
            results = [f.result(timeout=120) for f in futures]
            assert len(results) == 20
            assert all(r is not None for r in results)
            restarted = session.workers()[target]
            assert restarted.alive
            assert restarted.pid != victim.pid
            assert restarted.incarnation == victim.incarnation + 1
            stats = session.stats()
            assert stats.restarts[target] == 1
        finally:
            session.close()
        assert set(live_segments()) == before

    def test_signature_recompiles_after_restart(self):
        session = ShardedSession(
            [make_spec()],
            num_workers=1,
            heartbeat_interval=0.1,
        )
        try:
            session.warm_up()
            x = make_mlp_inputs("MLP_1", 8, seed=9)["x"]
            first = session.run({"x": x})
            victim = session.workers()["w0"]
            os.kill(victim.pid, signal.SIGKILL)
            # Wait for the heartbeat to install the replacement.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                info = session.workers()["w0"]
                if info.alive and info.incarnation == 1:
                    break
                time.sleep(0.05)
            second = session.run({"x": x})
            assert outputs_equal(first, second)
            # The dead incarnation's stats died with it; the replacement
            # showing a fresh compile proves the signature recompiled.
            merged = session.stats().merged
            sig = next(s for s in merged.signatures if s.executes)
            assert sig.compiles == 1
            assert session.stats().restarts["w0"] == 1
        finally:
            session.close()


class TestDynamicBatchFleet:
    """One signature per model, exact execution."""

    def test_dynamic_fleet_round_trip(self):
        weights = mlp_weights()
        reference = InferenceSession.for_workload("MLP_1", weights=weights)
        with ShardedSession(
            [ModelSpec(name="MLP_1", workload="MLP_1", weights=weights)],
            num_workers=2,
            warmup=True,
        ) as session:
            rng = np.random.RandomState(13)
            for batch in (1, 3, 8, 17, 32):
                x = rng.randn(batch, 13).astype(np.float32)
                got = next(iter(session.run({"x": x}).values()))
                want = next(iter(reference.run({"x": x}).values()))
                np.testing.assert_array_equal(got, want)
            stats = session.stats()
            assert stats.merged.compiles == 1
            assert len(stats.merged.signatures) == 1
        reference.close()

    def test_oversize_batch_refused_at_submit(self):
        # A default slot holds a DYNAMIC_BATCH_HINT-row MLP_1 request:
        # batch 33's 33x128 f32 reply would overflow it, so the request
        # must fail before any worker executes it.
        with ShardedSession(
            make_spec("MLP_1"), num_workers=1, warmup=True
        ) as session:
            rng = np.random.RandomState(17)
            x32 = rng.randn(32, 13).astype(np.float32)
            assert next(iter(session.run({"x": x32}).values())).shape == (
                32,
                128,
            )
            executes = session.stats().merged.executes
            x33 = rng.randn(33, 13).astype(np.float32)
            with pytest.raises(
                SlotOverflowError, match="largest servable batch is 32"
            ):
                session.submit({"x": x33})
            assert session.stats().merged.executes == executes

