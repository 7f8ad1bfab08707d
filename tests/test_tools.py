"""Tests for the dump CLI tool."""

import pytest

from repro.tools.dump import main


class TestDumpTool:
    def test_single_matmul(self, capsys):
        assert main(["--matmul", "64x64x64"]) == 0
        out = capsys.readouterr().out
        assert "optimized Graph IR" in out
        assert "pass log" in out

    def test_tir_flag(self, capsys):
        main(["--matmul", "64x64x64", "--tir"])
        out = capsys.readouterr().out
        assert "batch_reduce_gemm" in out

    def test_perf_flag(self, capsys):
        main(["--matmul", "64x64x64", "--perf"])
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_workload(self, capsys):
        main(["--workload", "MLP_1", "--batch", "32", "--dtype", "int8"])
        out = capsys.readouterr().out
        assert "init graph" in out  # weight preprocessing present

    def test_no_coarse(self, capsys):
        main(["--workload", "MLP_1", "--batch", "32", "--no-coarse"])
        out = capsys.readouterr().out
        assert "merged groups" not in out

    def test_emit_codegen_flag(self, capsys, tmp_path):
        target = tmp_path / "codegen-src"
        assert main(
            ["--matmul", "64x64x64", "--emit-codegen", str(target)]
        ) == 0
        out = capsys.readouterr().out
        assert "emitted codegen sources" in out
        written = list(target.glob("*.py"))
        assert written
        for path in written:
            source = path.read_text()
            assert "generated by repro.runtime.codegen" in source

    def test_bad_matmul_spec(self):
        with pytest.raises(SystemExit):
            main(["--matmul", "64by64"])

    def test_bad_workload(self):
        with pytest.raises(SystemExit):
            main(["--workload", "NOPE"])


class TestBenchTool:
    def test_fig8_mlp_subset(self, capsys):
        from repro.tools.bench import main as bench_main

        assert bench_main(
            ["fig8-mlp", "--workload", "MLP_1", "--batches", "32"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 8 (MLP)" in out
        assert "geomean" in out

    def test_fig8_mha_subset(self, capsys):
        from repro.tools.bench import main as bench_main

        bench_main(["fig8-mha", "--dtype", "int8", "--batches", "32"])
        out = capsys.readouterr().out
        assert "Figure 8 (MHA)" in out

    def test_bad_figure(self):
        from repro.tools.bench import main as bench_main

        with pytest.raises(SystemExit):
            bench_main(["fig9"])

    def test_cache_stats_flag(self, capsys):
        from repro.tools.bench import main as bench_main

        assert bench_main(
            ["fig8-mlp", "--workload", "MLP_1", "--batches", "32",
             "--cache-stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "ServiceStats" in out
        assert "compiles=" in out
        assert "mlp_1_b32" in out  # per-signature labels

    def test_trace_and_metrics_flags(self, capsys, tmp_path):
        from repro.observability import (
            disable_tracing,
            get_tracer,
            validate_chrome_trace_file,
        )
        from repro.tools.bench import main as bench_main

        path = tmp_path / "trace.json"
        try:
            assert bench_main(
                ["fig8-mlp", "--workload", "MLP_1", "--batches", "8",
                 "--trace", str(path), "--metrics"]
            ) == 0
        finally:
            disable_tracing()
            get_tracer().clear()
        out = capsys.readouterr().out
        assert "top passes" in out
        assert "top ops" in out
        assert "brgemm reconciliation" in out
        assert "wrote" in out and "trace events" in out
        assert validate_chrome_trace_file(str(path)) == []

    def test_dump_trace_and_metrics_flags(self, capsys, tmp_path):
        from repro.observability import (
            disable_tracing,
            get_tracer,
            validate_chrome_trace_file,
        )

        path = tmp_path / "trace.json"
        try:
            assert main(
                ["--matmul", "64x64x64", "--trace", str(path), "--metrics"]
            ) == 0
        finally:
            disable_tracing()
            get_tracer().clear()
        out = capsys.readouterr().out
        assert "top passes" in out
        assert validate_chrome_trace_file(str(path)) == []


class TestServingBench:
    def test_quick_serving_bench_writes_valid_json(self, capsys, tmp_path):
        import json

        from repro.tools.bench import main as bench_main
        from repro.tools.bench import validate_bench_serving

        path = tmp_path / "BENCH_serving.json"
        assert bench_main(
            ["serve", "--quick", "--clients", "4", "--requests", "3",
             "--json", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Serving" in out
        assert "BatchingStats" in out
        assert "geomean speedup" in out
        document = json.loads(path.read_text())
        assert validate_bench_serving(document) == []
        assert document["schema"] == "repro.bench_serving/v2"
        assert document["modes"] == ["unbatched", "batched"]
        assert "_batching_stats" not in document  # transient key stripped
        assert "_worker_spans" not in document
        sharding = document["sharding"]
        assert sharding["workers"] == [1]  # default: no extra workers
        assert sharding["identical"] is True
        assert sharding["speedup"] == 1.0
        assert isinstance(sharding["host_cpus"], int)
        for entry in document["workloads"]:
            assert entry["identical"] is True
            batching = entry["batched"]["batching"]
            assert batching["completed"] >= 4 * 3
            assert batching["coalesce_ratio"] >= 1.0
            for mode in ("unbatched", "batched"):
                latency = entry[mode]["latency_ms"]
                assert latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_serving_metrics_and_trace_flags(self, capsys, tmp_path):
        import json

        from repro.observability import MetricsRegistry, set_registry
        from repro.tools.bench import main as bench_main

        set_registry(MetricsRegistry())
        trace = tmp_path / "serve_trace.json"
        try:
            assert bench_main(
                ["serve", "--quick", "--clients", "2", "--requests", "2",
                 "--json", str(tmp_path / "s.json"),
                 "--metrics", "--trace", str(trace)]
            ) == 0
        finally:
            out = capsys.readouterr().out
            set_registry(MetricsRegistry())
        assert "service.batch.size" in out
        assert "service.batch.queue_wait_seconds" in out
        events = json.loads(trace.read_text())["traceEvents"]
        names = {e.get("name") for e in events}
        assert "batch.collect" in names
        assert "batch.execute" in names

    def test_unknown_serve_workload_rejected(self):
        from repro.tools.bench import main as bench_main

        with pytest.raises(SystemExit):
            bench_main(["serve", "--quick", "--workload", "MHA_1"])

    def test_min_speedup_gate(self, tmp_path, capsys):
        from repro.tools.bench import main as bench_main

        # An impossible floor must fail the run (non-zero exit).
        code = bench_main(
            ["serve", "--quick", "--clients", "2", "--requests", "2",
             "--json", str(tmp_path / "s.json"),
             "--min-speedup", "1e9"]
        )
        capsys.readouterr()
        assert code == 1

    def test_sharded_quick_bench_writes_scaling_curve(
        self, capsys, tmp_path
    ):
        import json

        from repro.service import live_segments
        from repro.tools.bench import main as bench_main
        from repro.tools.bench import validate_bench_serving

        path = tmp_path / "BENCH_serving.json"
        assert bench_main(
            ["serve", "--quick", "--workers", "2", "--clients", "2",
             "--requests", "2", "--json", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Sharded fleet" in out
        assert "sharded speedup" in out
        document = json.loads(path.read_text())
        assert validate_bench_serving(document) == []
        sharding = document["sharding"]
        assert sharding["workers"] == [1, 2]
        assert sharding["max_workers"] == 2
        assert sharding["identical"] is True
        assert len(sharding["curve"]) == 2
        for point in sharding["curve"]:
            assert point["throughput_rps"] > 0
            assert point["identical"] is True
        two = sharding["curve"][-1]
        assert two["workers"] == 2
        assert two["placement"]  # signatures homed across the fleet
        # Nothing leaked: every shm segment was unlinked on close.
        assert live_segments() == []

    def test_validator_accepts_legacy_v1_document(self):
        from repro.tools.bench import validate_bench_serving

        legacy = {
            "schema": "repro.bench_serving/v1",
            "machine": "XEON_8358",
            "dtype": "f32",
            "clients": 8,
            "requests_per_client": 4,
            "batch_sizes": [1, 2, 4, 8],
            "buckets": [32],
            "max_batch": 32,
            "batch_timeout_us": 2000,
            "seed": 0,
            "modes": ["unbatched", "batched"],
            "workloads": [
                {
                    "name": "MLP_1",
                    "unbatched": {
                        "throughput_rps": 10.0,
                        "latency_ms": {"p50": 1.0},
                    },
                    "batched": {
                        "throughput_rps": 20.0,
                        "latency_ms": {"p50": 1.0},
                        "batching": {"completed": 32},
                    },
                    "identical": True,
                    "speedup": 2.0,
                }
            ],
            "geomean_speedup": 2.0,
        }
        # No sharding section required for v1.
        assert validate_bench_serving(legacy) == []

    def test_validator_rejects_malformed_documents(self):
        from repro.tools.bench import validate_bench_serving

        assert validate_bench_serving({"schema": "nope"}) != []
        bad = {
            "schema": "repro.bench_serving/v1",
            "machine": "XEON_8358",
            "dtype": "f32",
            "clients": 8,
            "requests_per_client": 4,
            "batch_sizes": [1, 2, 4, 8],
            "buckets": [32],
            "max_batch": 32,
            "batch_timeout_us": 2000,
            "seed": 0,
            "modes": ["unbatched", "batched"],
            "workloads": [
                {
                    "name": "MLP_1",
                    "unbatched": {
                        "throughput_rps": -1.0,  # non-positive
                        "latency_ms": {"p50": 1.0},
                    },
                    "batched": {
                        "throughput_rps": 10.0,
                        "latency_ms": {"p50": 1.0},
                        # no "batching" stats block
                    },
                    "identical": False,  # paired run must be identical
                }
            ],
            "geomean_speedup": 1.0,
        }
        errors = validate_bench_serving(bad)
        assert any("throughput_rps" in e for e in errors)
        assert any("batching" in e for e in errors)
        assert any("speedup" in e for e in errors)
        assert any("identical" in e for e in errors)
        # v2 additionally demands a sharding section with a curve.
        bad_v2 = dict(bad, schema="repro.bench_serving/v2")
        assert any(
            "sharding" in e for e in validate_bench_serving(bad_v2)
        )
        bad_v2["sharding"] = {
            "curve": [
                {
                    "workers": 2,
                    "throughput_rps": 5.0,
                    "latency_ms": {"p50": 1.0},
                    "identical": False,  # sharded outputs must match
                }
            ],
            "speedup": "fast",  # not a number
        }
        errors = validate_bench_serving(bad_v2)
        assert any("identical" in e and "curve" in e for e in errors)
        assert any("sharding.speedup" in e for e in errors)

    def test_validator_v4_dynamic_section(self):
        from repro.tools.bench import validate_bench_serving

        base = {
            "schema": "repro.bench_serving/v4",
            "machine": "XEON_8358",
            "dtype": "f32",
            "clients": 8,
            "requests_per_client": 4,
            "batch_sizes": [1, 2, 4, 8],
            "buckets": [32],
            "max_batch": 32,
            "batch_timeout_us": 2000,
            "seed": 0,
            "modes": ["unbatched", "batched"],
            "workloads": [
                {
                    "name": "MLP_1",
                    "unbatched": {
                        "throughput_rps": 10.0,
                        "latency_ms": {"p50": 1.0},
                    },
                    "batched": {
                        "throughput_rps": 20.0,
                        "latency_ms": {"p50": 1.0},
                        "batching": {"completed": 32},
                    },
                    "identical": True,
                    "speedup": 2.0,
                }
            ],
            "geomean_speedup": 2.0,
            "sharding": {
                "curve": [
                    {
                        "workers": 1,
                        "throughput_rps": 5.0,
                        "latency_ms": {"p50": 1.0},
                        "identical": True,
                    }
                ],
                "speedup": 1.0,
            },
        }
        # v4 without a dynamic section is a violation.
        assert any(
            "dynamic" in e for e in validate_bench_serving(dict(base))
        )
        good = dict(base)
        good["dynamic"] = {
            "workload": "MLP_1",
            "modes": ["bucketed", "dynamic"],
            "bucketed": {
                "throughput_rps": 10.0,
                "compiles": 1,
                "padded_rows": 181,
            },
            "dynamic": {
                "throughput_rps": 11.0,
                "compiles": 1,
                "padded_rows": 0,
            },
            "identical": True,
            "speedup": 1.1,
        }
        assert validate_bench_serving(good) == []
        # The tentpole's numbers are enforced, not just recorded.
        padded = dict(good)
        padded["dynamic"] = dict(
            good["dynamic"],
            dynamic={"throughput_rps": 11.0, "compiles": 1,
                     "padded_rows": 3},
        )
        assert any(
            "padded_rows" in e for e in validate_bench_serving(padded)
        )
        recompiled = dict(good)
        recompiled["dynamic"] = dict(
            good["dynamic"],
            dynamic={"throughput_rps": 11.0, "compiles": 5,
                     "padded_rows": 0},
        )
        assert any(
            "compiles" in e for e in validate_bench_serving(recompiled)
        )
        # v3 documents (adaptive, no dynamic) must keep validating; the
        # committed artifact check below exercises the real one.
        v3 = dict(base, schema="repro.bench_serving/v3")
        errors = validate_bench_serving(v3)
        assert any("adaptive" in e for e in errors)
        assert not any("dynamic" in e for e in errors)
