"""PartitionCache: single-flight deduplication, LRU byte-budget eviction."""

import threading

import pytest

from repro import DType, GraphBuilder, compile_counter, compile_graph
from repro.service import PartitionCache, graph_signature, partition_nbytes
from repro.workloads import build_mlp_graph


def tiny_graph(k=32, n=16):
    b = GraphBuilder("tiny")
    x = b.input("x", DType.f32, (8, k))
    w = b.constant("w", dtype=DType.f32, shape=(k, n))
    b.output(b.relu(b.matmul(x, w)))
    return b.finish()


class TestBasics:
    def test_miss_then_hit(self):
        cache = PartitionCache()
        sig = graph_signature(tiny_graph())
        p1 = cache.get_or_compile(sig, lambda: compile_graph(tiny_graph()))
        p2 = cache.get_or_compile(sig, lambda: compile_graph(tiny_graph()))
        assert p1 is p2
        stats = cache.stats()
        assert stats.compiles == 1
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.hit_rate == 0.5

    def test_compile_error_propagates_and_retries(self):
        cache = PartitionCache()

        def boom():
            raise RuntimeError("no backend")

        with pytest.raises(RuntimeError, match="no backend"):
            cache.get_or_compile("sig-x", boom)
        # A failed compile leaves no poisoned entry behind.
        p = cache.get_or_compile(
            "sig-x", lambda: compile_graph(tiny_graph())
        )
        assert p is not None
        assert cache.stats().compiles == 1

    def test_partition_nbytes_accounts_weights_and_arena(self):
        p = compile_graph(build_mlp_graph("MLP_1", 32))
        estimate = partition_nbytes(p)
        assert estimate > 0
        # After init the charge reflects the actual cached buffers.
        from repro.workloads import make_mlp_inputs

        p.execute(make_mlp_inputs("MLP_1", 32))
        actual = partition_nbytes(p)
        assert actual == p.cached_bytes + p.arena_size
        assert actual > 0


class TestSingleFlight:
    def test_eight_threads_one_compilation(self):
        """The ISSUE acceptance stress: >=8 concurrent requests for one
        signature -> exactly 1 compilation and >=7 cache hits."""
        cache = PartitionCache()
        sig = graph_signature(build_mlp_graph("MLP_1", 32))
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def worker(i):
            try:
                barrier.wait()
                results[i] = cache.get_or_compile(
                    sig,
                    lambda: compile_graph(build_mlp_graph("MLP_1", 32)),
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        with compile_counter() as counter:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert not errors
        assert counter.count == 1, "single-flight must compile exactly once"
        assert all(r is results[0] for r in results)
        stats = cache.stats()
        assert stats.compiles == 1
        assert stats.misses == 1
        assert stats.hits >= 7
        assert stats.in_flight == 0

    def test_different_signatures_compile_independently(self):
        cache = PartitionCache()
        sig_a = graph_signature(tiny_graph(k=32))
        sig_b = graph_signature(tiny_graph(k=64))
        cache.get_or_compile(sig_a, lambda: compile_graph(tiny_graph(k=32)))
        cache.get_or_compile(sig_b, lambda: compile_graph(tiny_graph(k=64)))
        assert cache.stats().compiles == 2
        assert len(cache) == 2


class TestEviction:
    def test_max_entries_lru_order(self):
        cache = PartitionCache(max_entries=2)
        sigs = []
        for k in (32, 48, 64):
            g = tiny_graph(k=k)
            sig = graph_signature(g)
            sigs.append(sig)
            cache.get_or_compile(sig, lambda g=g: compile_graph(g))
        assert len(cache) == 2
        assert sigs[0] not in cache  # least recently used went first
        assert sigs[1] in cache and sigs[2] in cache
        assert cache.stats().evictions == 1
        # Touching sigs[1] makes sigs[2] the LRU victim.
        cache.get_or_compile(
            sigs[1], lambda: compile_graph(tiny_graph(k=48))
        )
        g = tiny_graph(k=80)
        cache.get_or_compile(graph_signature(g), lambda: compile_graph(g))
        assert sigs[1] in cache
        assert sigs[2] not in cache

    def test_byte_budget_eviction_and_recompile(self):
        # Measure the three buckets' real footprint, then shrink the
        # budget below it so LRU eviction must kick in.
        buckets = (32, 64, 128)
        sizes = {}
        for batch in buckets:
            p = compile_graph(build_mlp_graph("MLP_1", batch))
            sizes[batch] = partition_nbytes(p)
        total = sum(sizes.values())
        cache = PartitionCache(capacity_bytes=total - 1)
        with compile_counter() as counter:
            for batch in buckets:
                g = build_mlp_graph("MLP_1", batch)
                cache.get_or_compile(
                    graph_signature(g), lambda g=g: compile_graph(g)
                )
            assert counter.count == 3
            stats = cache.stats()
            assert stats.evictions >= 1
            assert stats.resident_bytes <= total - 1
            # Re-requesting the evicted signature recompiles (a miss).
            g = build_mlp_graph("MLP_1", buckets[0])
            cache.get_or_compile(
                graph_signature(g), lambda g=g: compile_graph(g)
            )
            assert counter.count == 4

    def test_zero_budget_holds_nothing(self):
        cache = PartitionCache(capacity_bytes=0)
        g = tiny_graph()
        sig = graph_signature(g)
        p = cache.get_or_compile(sig, lambda: compile_graph(g))
        assert p is not None  # caller still gets the partition
        assert len(cache) == 0
        assert cache.stats().evictions == 1

    def test_clear(self):
        cache = PartitionCache()
        g = tiny_graph()
        cache.get_or_compile(graph_signature(g), lambda: compile_graph(g))
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().compiles == 1  # counters survive


class TestStatsSnapshot:
    def test_execute_counts_and_labels(self):
        cache = PartitionCache()
        g = tiny_graph()
        sig = graph_signature(g)
        cache.get_or_compile(
            sig, lambda: compile_graph(g), label="tiny@b8"
        )
        cache.note_execute(sig)
        cache.note_execute(sig, count=2)
        record = {s.signature: s for s in cache.stats().signatures}[sig]
        assert record.executes == 3
        assert record.label == "tiny@b8"
        assert record.compile_seconds > 0
        assert record.resident

    def test_format_stats_mentions_counters(self):
        from repro.service import format_stats

        cache = PartitionCache()
        g = tiny_graph()
        cache.get_or_compile(graph_signature(g), lambda: compile_graph(g))
        text = format_stats(cache.stats())
        assert "ServiceStats" in text
        assert "hit_rate" in text
        assert "compiles=1" in text


class TestEvictionClosesPartitions:
    """ISSUE satellite: evicted partitions must release their thread
    pools and cached buffers, not leak until interpreter exit."""

    def warmed_partition(self, k):
        import numpy as np

        g = tiny_graph(k=k)
        p = compile_graph(g)
        p.num_threads = 2  # force a pool so close() has work to do
        p.execute(
            {
                "x": np.zeros((8, k), np.float32),
                "w": np.zeros((k, 16), np.float32),
            }
        )
        assert p.has_active_pool
        return g, p

    def test_lru_eviction_closes_victim(self):
        cache = PartitionCache(max_entries=1)
        g1, p1 = self.warmed_partition(32)
        cache.get_or_compile(graph_signature(g1), lambda: p1)
        g2, p2 = self.warmed_partition(48)
        cache.get_or_compile(graph_signature(g2), lambda: p2)
        assert cache.stats().evictions == 1
        assert not p1.has_active_pool  # victim was closed
        assert p2.has_active_pool  # resident entry untouched

    def test_clear_and_close_close_residents(self):
        cache = PartitionCache()
        _, p1 = self.warmed_partition(32)
        _, p2 = self.warmed_partition(48)
        cache.get_or_compile("sig-1", lambda: p1)
        cache.get_or_compile("sig-2", lambda: p2)
        assert cache.resident_partitions() == [p1, p2]
        cache.clear()
        assert not p1.has_active_pool
        assert not p2.has_active_pool
        assert len(cache) == 0
        # close() is the teardown alias of clear().
        _, p3 = self.warmed_partition(64)
        cache.get_or_compile("sig-3", lambda: p3)
        cache.close()
        assert not p3.has_active_pool

    def test_closed_then_reused_partition_rebuilds_pool(self):
        # A racing execute against a just-evicted partition degrades
        # (rebuilds the pool) instead of crashing.
        import numpy as np

        _, p = self.warmed_partition(32)
        p.close()
        assert not p.has_active_pool
        out = p.execute(
            {
                "x": np.ones((8, 32), np.float32),
                "w": np.ones((32, 16), np.float32),
            }
        )
        assert next(iter(out.values())).shape == (8, 16)


class TestAdaptiveSurface:
    """peek / swap / pin: the adaptive retuner's cache API."""

    def test_peek_does_not_touch_counters_or_lru(self):
        cache = PartitionCache()
        g = tiny_graph()
        sig = graph_signature(g)
        p = cache.get_or_compile(sig, lambda: compile_graph(g))
        before = cache.stats()
        assert cache.peek(sig) is p
        assert cache.peek("absent") is None
        after = cache.stats()
        assert after.hits == before.hits
        assert after.misses == before.misses

    def test_swap_replaces_resident_partition(self):
        cache = PartitionCache()
        g = tiny_graph()
        sig = graph_signature(g)
        original = cache.get_or_compile(sig, lambda: compile_graph(g))
        replacement = compile_graph(tiny_graph())
        displaced = cache.swap(sig, replacement, label="retuned")
        assert displaced is original
        assert cache.get(sig) is replacement
        record = {s.signature: s for s in cache.stats().signatures}[sig]
        assert record.swaps == 1
        assert record.label == "retuned"
        assert cache.stats().swaps == 1

    def test_swap_missing_signature_is_a_noop(self):
        cache = PartitionCache()
        replacement = compile_graph(tiny_graph())
        assert cache.swap("absent", replacement) is None
        assert cache.stats().swaps == 0

    def test_pinned_signature_survives_eviction(self):
        # Budget for one entry; the pinned one must not be the victim.
        g1, g2 = tiny_graph(), tiny_graph(k=64)
        cache = PartitionCache(max_entries=1)
        sig1, sig2 = graph_signature(g1), graph_signature(g2)
        p1 = cache.get_or_compile(sig1, lambda: compile_graph(g1))
        assert cache.pin(sig1)
        cache.get_or_compile(sig2, lambda: compile_graph(g2))
        assert cache.peek(sig1) is p1  # pinned: still resident
        cache.unpin(sig1)
        assert cache.pinned() == []
        cache.get_or_compile(sig2, lambda: compile_graph(g2))
        assert cache.peek(sig1) is None  # unpinned: evictable again

    def test_pin_missing_signature_fails(self):
        cache = PartitionCache()
        assert cache.pin("absent") is False
        cache.unpin("absent")  # idempotent, no error

    def test_latency_ewma_tracks_note_execute(self):
        cache = PartitionCache()
        g = tiny_graph()
        sig = graph_signature(g)
        cache.get_or_compile(sig, lambda: compile_graph(g))
        cache.note_execute(sig, latency_seconds=1e-3)
        record = {s.signature: s for s in cache.stats().signatures}[sig]
        # First sample seeds the EWMA exactly.
        assert record.latency_ewma_seconds == pytest.approx(1e-3)
        assert record.latency_samples == 1
        cache.note_execute(sig, latency_seconds=2e-3)
        record = {s.signature: s for s in cache.stats().signatures}[sig]
        alpha = cache.ewma_alpha
        assert record.latency_ewma_seconds == pytest.approx(
            (1 - alpha) * 1e-3 + alpha * 2e-3
        )
        assert record.latency_samples == 2
        assert record.latency_ewma_ms == pytest.approx(
            record.latency_ewma_seconds * 1e3
        )
