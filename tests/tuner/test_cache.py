"""TuningCache: keys, disk round-trips, corruption recovery."""

import json
import os

from repro.dtypes import DType
from repro.microkernel.machine import XEON_8358
from repro.templates.heuristics import HeuristicConstraints, select_matmul_params
from repro.tuner import (
    TUNING_CACHE_SCHEMA_VERSION,
    TuningCache,
    TuningRecord,
    get_tuning_cache,
    machine_fingerprint,
    reset_tuning_caches,
    tuning_key,
)

MACHINE = XEON_8358


def record(m=256, n=256, k=256):
    params = select_matmul_params(m, n, k, DType.f32, MACHINE)
    return TuningRecord(
        params=params, cost=1000.0, heuristic_cost=1200.0, evaluations=42
    )


class TestKeys:
    def test_key_is_stable(self):
        a = tuning_key(256, 256, 256, DType.f32, MACHINE)
        b = tuning_key(256, 256, 256, DType.f32, MACHINE)
        assert a == b and len(a) == 64

    def test_key_depends_on_problem(self):
        base = tuning_key(256, 256, 256, DType.f32, MACHINE)
        assert base != tuning_key(256, 256, 512, DType.f32, MACHINE)
        assert base != tuning_key(256, 256, 256, DType.bf16, MACHINE)
        assert base != tuning_key(256, 256, 256, DType.f32, MACHINE, batch=4)

    def test_key_depends_on_constraints(self):
        base = tuning_key(256, 256, 256, DType.f32, MACHINE)
        pinned = tuning_key(
            256, 256, 256, DType.f32, MACHINE,
            constraints=HeuristicConstraints(require_mb=32),
        )
        assert base != pinned
        # Default constraints hash like no constraints.
        assert base == tuning_key(
            256, 256, 256, DType.f32, MACHINE,
            constraints=HeuristicConstraints(),
        )

    def test_key_depends_on_machine(self):
        import dataclasses

        other = dataclasses.replace(MACHINE, num_cores=8)
        assert tuning_key(256, 256, 256, DType.f32, MACHINE) != tuning_key(
            256, 256, 256, DType.f32, other
        )
        assert machine_fingerprint(MACHINE) != machine_fingerprint(other)


class TestRoundTrip:
    def test_disk_round_trip(self, tmp_path):
        path = str(tmp_path / "tune.json")
        key = tuning_key(256, 256, 256, DType.f32, MACHINE)
        cache = TuningCache(path)
        rec = record()
        cache.put(key, rec)
        # A fresh instance reads the same entry back from disk.
        reloaded = TuningCache(path)
        got = reloaded.get(key)
        assert got is not None
        assert got.params == rec.params
        assert got.cost == rec.cost
        assert got.heuristic_cost == rec.heuristic_cost
        assert got.evaluations == rec.evaluations

    def test_in_memory_cache_has_no_file(self):
        cache = TuningCache()
        cache.put("k", record())
        assert cache.get("k") is not None
        assert cache.path is None

    def test_stats_count_hits_and_misses(self):
        cache = TuningCache()
        assert cache.get("absent") is None
        cache.put("k", record())
        cache.get("k")
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "tune.json")
        cache = TuningCache(path)
        for i in range(5):
            cache.put(f"k{i}", record())
        leftovers = [f for f in os.listdir(tmp_path) if f != "tune.json"]
        assert leftovers == []


class TestCorruptionRecovery:
    def test_corrupt_json_starts_empty(self, tmp_path):
        path = tmp_path / "tune.json"
        path.write_text("{ this is not json", encoding="utf-8")
        cache = TuningCache(str(path))
        assert len(cache) == 0
        assert cache.stats.load_errors == 1
        # The cache is still usable and overwrites the corrupt file.
        cache.put("k", record())
        assert len(TuningCache(str(path))) == 1

    def test_partial_record_starts_empty(self, tmp_path):
        path = tmp_path / "tune.json"
        path.write_text(
            json.dumps(
                {
                    "version": TUNING_CACHE_SCHEMA_VERSION,
                    "entries": {"k": {"params": {"m": 64}}},
                }
            ),
            encoding="utf-8",
        )
        cache = TuningCache(str(path))
        assert len(cache) == 0
        assert cache.stats.load_errors == 1

    def test_version_mismatch_starts_empty(self, tmp_path):
        path = tmp_path / "tune.json"
        good = TuningCache(str(path))
        good.put("k", record())
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = TUNING_CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        stale = TuningCache(str(path))
        assert len(stale) == 0

    def test_wrong_root_type_starts_empty(self, tmp_path):
        path = tmp_path / "tune.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        assert len(TuningCache(str(path))) == 0


class TestRegistry:
    def test_same_path_shares_instance(self, tmp_path):
        reset_tuning_caches()
        try:
            path = str(tmp_path / "t.json")
            assert get_tuning_cache(path) is get_tuning_cache(path)
            assert get_tuning_cache() is get_tuning_cache(None)
            assert get_tuning_cache(path) is not get_tuning_cache()
        finally:
            reset_tuning_caches()
