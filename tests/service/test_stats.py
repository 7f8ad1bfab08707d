"""ServiceStats.merge and the per-worker format_stats breakdown."""

from repro.observability.quantile import from_values
from repro.service import ServiceStats, format_stats
from repro.service.stats import SignatureStats


def sig(signature, **kw):
    defaults = dict(
        label=f"label-{signature[:4]}",
        nbytes=1000,
        compiles=1,
        compile_seconds=0.5,
        executes=2,
        resident=True,
    )
    defaults.update(kw)
    return SignatureStats(signature=signature, **defaults)


def stats(**kw):
    defaults = dict(
        compiles=1,
        hits=3,
        misses=1,
        evictions=0,
        in_flight=0,
        resident_bytes=1000,
        capacity_bytes=4096,
        signatures=(),
    )
    defaults.update(kw)
    return ServiceStats(**defaults)


class TestMerge:
    def test_empty_merge_is_zero(self):
        merged = ServiceStats.merge([])
        assert merged.requests == 0
        assert merged.compiles == 0
        assert merged.capacity_bytes is None
        assert merged.signatures == ()

    def test_counters_sum(self):
        merged = ServiceStats.merge(
            [
                stats(compiles=2, hits=5, misses=1, resident_bytes=100),
                stats(compiles=3, hits=7, misses=2, resident_bytes=200),
            ]
        )
        assert merged.compiles == 5
        assert merged.hits == 12
        assert merged.misses == 3
        assert merged.requests == 15
        assert merged.resident_bytes == 300
        assert merged.capacity_bytes == 8192
        assert merged.hit_rate == 12 / 15

    def test_one_unbounded_cache_makes_fleet_unbounded(self):
        merged = ServiceStats.merge(
            [stats(capacity_bytes=4096), stats(capacity_bytes=None)]
        )
        assert merged.capacity_bytes is None

    def test_disjoint_signatures_concatenate_sorted(self):
        merged = ServiceStats.merge(
            [
                stats(signatures=(sig("bbb"),)),
                stats(signatures=(sig("aaa"),)),
            ]
        )
        assert [s.signature for s in merged.signatures] == ["aaa", "bbb"]

    def test_overlapping_signature_counts_sum(self):
        # After a crash re-homes a partition, two workers may report the
        # same signature; counts sum, residency charge takes the max.
        merged = ServiceStats.merge(
            [
                stats(
                    signatures=(
                        sig("aaa", compiles=1, executes=4, nbytes=500),
                    )
                ),
                stats(
                    signatures=(
                        sig("aaa", compiles=1, executes=6, nbytes=700),
                    )
                ),
            ]
        )
        assert len(merged.signatures) == 1
        merged_sig = merged.signatures[0]
        assert merged_sig.compiles == 2
        assert merged_sig.executes == 10
        assert merged_sig.nbytes == 700
        assert merged_sig.compile_seconds == 1.0

    def test_merge_of_one_is_identity_on_counters(self):
        one = stats(signatures=(sig("aaa"),))
        merged = ServiceStats.merge([one])
        assert merged.requests == one.requests
        assert merged.signatures == one.signatures


class TestLatencyPercentiles:
    """Per-signature latency distributions must survive the fleet merge —
    a mean alone cannot answer a fleet-wide p95 honestly."""

    def test_percentiles_survive_merge(self):
        fast = sig(
            "aaa",
            latency_hist=from_values([0.001] * 95),
            latency_samples=95,
        )
        slow = sig(
            "aaa",
            latency_hist=from_values([1.0] * 5),
            latency_samples=5,
        )
        merged = ServiceStats.merge(
            [stats(signatures=(fast,)), stats(signatures=(slow,))]
        )
        (m,) = merged.signatures
        assert m.latency_hist.count == 100
        # Quantiles answer over the union: the median is a fast request,
        # the tail sees the slow worker.
        assert m.latency_quantile_seconds(0.5) < 0.01
        assert m.latency_quantile_seconds(0.99) > 0.5
        assert m.latency_p95_seconds is not None

    def test_one_sided_histogram_survives(self):
        with_hist = sig("aaa", latency_hist=from_values([0.5]))
        without = sig("aaa", latency_hist=None)
        merged = ServiceStats.merge(
            [stats(signatures=(with_hist,)), stats(signatures=(without,))]
        )
        assert merged.signatures[0].latency_hist.count == 1

    def test_merge_does_not_mutate_parts(self):
        original = from_values([0.1])
        a = sig("aaa", latency_hist=original)
        b = sig("aaa", latency_hist=from_values([0.2, 0.3]))
        ServiceStats.merge(
            [stats(signatures=(a,)), stats(signatures=(b,))]
        )
        assert original.count == 1

    def test_no_histogram_means_no_quantiles(self):
        plain = sig("aaa")
        assert plain.latency_quantile_seconds(0.95) is None
        assert plain.latency_p50_ms is None
        assert plain.to_dict()["latency_p95_ms"] is None

    def test_to_dict_serializes_distribution(self):
        s = sig(
            "aaa",
            latency_hist=from_values([i / 1000.0 for i in range(1, 101)]),
        )
        d = s.to_dict()
        assert d["latency_hist"]["count"] == 100
        assert 0.0 < d["latency_p50_ms"] < d["latency_p95_ms"]
        assert d["latency_p99_ms"] <= 0.1 * 1e3

    def test_p95_column_renders(self):
        text = format_stats(
            stats(
                signatures=(
                    sig("abcdef123456", latency_hist=from_values([0.002])),
                )
            )
        )
        assert "p95_ms" in text
        # 2ms within one log bucket: the rendered value starts with "2."
        row = next(
            ln for ln in text.splitlines() if "abcdef123456" in ln
        )
        assert " 2." in row


class TestFormat:
    def test_fleet_table_alone(self):
        text = format_stats(stats(signatures=(sig("abcdef123456"),)))
        assert "requests=4" in text
        assert "abcdef123456" in text
        assert "per-worker" not in text

    def test_per_worker_breakdown(self):
        workers = {
            "w0": stats(compiles=1, signatures=(sig("aaa"),)),
            "w1": stats(compiles=2, signatures=(sig("bbb"), sig("ccc"))),
        }
        merged = ServiceStats.merge(workers.values())
        text = format_stats(merged, workers=workers)
        assert "per-worker" in text
        assert "w0" in text and "w1" in text
        # Per-worker partition counts reflect each worker's residency.
        lines = [ln for ln in text.splitlines() if ln.strip().startswith("w")]
        w0_line = next(ln for ln in lines if "w0" in ln)
        w1_line = next(ln for ln in lines if "w1" in ln)
        assert " 1 " in w0_line
        assert " 2 " in w1_line
