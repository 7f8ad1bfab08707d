"""Tests for the dump, bench and metrics_export CLI tools."""

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

    @pytest.mark.parametrize("dtype", ["f32", "int8"])
    def test_emitted_brgemm_calls_the_shared_kernel(self, tmp_path, dtype):
        """Every emitted brgemm calls the microkernel's ``brgemm_partial``
        (bound as a global; see test_codegen), never an einsum."""
        target = tmp_path / "codegen-src"
        assert main(
            ["--workload", "MLP_1", "--batch", "32", "--dtype", dtype,
             "--emit-codegen", str(target)]
        ) == 0
        source = "".join(p.read_text() for p in sorted(target.glob("*.py")))
        assert "_p = _brgemm_partial(_ba, _bb)" in source
        assert "einsum" not in source

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

    def test_fig8_mlp_rejects_non_mlp_workload(self):
        from repro.tools.bench import main as bench_main

        with pytest.raises(SystemExit):
            bench_main(["fig8-mlp", "--workload", "MHA_1"])

    def test_workload_flag_refused_outside_fig8_mlp(self):
        from repro.tools.bench import main as bench_main

        with pytest.raises(SystemExit):
            bench_main(["fig8-mha", "--workload", "MLP_1"])
        with pytest.raises(SystemExit):
            bench_main(["fig7", "--workload", "MLP_1"])

    def test_non_positive_batches_rejected(self):
        from repro.tools.bench import main as bench_main

        with pytest.raises(SystemExit):
            bench_main(["fig8-mlp", "--batches", "0"])
        with pytest.raises(SystemExit):
            bench_main(["fig8-mha", "--batches", "8,-1"])

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


class TestMetricsExportTool:
    def test_fleet_trace_renders_prometheus_scrape(self, tmp_path):
        """A traced 2-worker fleet's Chrome trace carries one metric
        record per process, and metrics_export turns it into a checked
        fleet-merged Prometheus scrape."""
        import json

        from repro.observability import (
            Tracer,
            get_registry,
            get_tracer,
            set_tracer,
            write_chrome_trace,
        )
        from repro.service import ModelSpec, ShardedSession
        from repro.tools import metrics_export
        from repro.workloads import make_mlp_inputs

        inputs = make_mlp_inputs("MLP_1", 8, seed=0)
        weights = {k: v for k, v in inputs.items() if k.startswith("w")}
        spec = ModelSpec(name="MLP_1", workload="MLP_1", weights=weights)
        trace_path = str(tmp_path / "trace.json")
        original = get_tracer()
        # Workers inherit the tracer's enabled flag at spawn time.
        tracer = set_tracer(Tracer(enabled=True))
        try:
            fleet = ShardedSession([spec], num_workers=2)
            try:
                fleet.warm_up()
                for _ in range(4):
                    fleet.run({"x": inputs["x"]})
                registry = get_registry()
                write_chrome_trace(
                    trace_path,
                    tracer,
                    registry,
                    processes=fleet.collect_worker_spans(),
                    metric_records=fleet.metrics_records(include_self=False)
                    + [registry.export_records()],
                )
            finally:
                fleet.close()
        finally:
            set_tracer(original)
        with open(trace_path) as handle:
            document = json.load(handle)
        assert len(document["otherData"]["metric_records"]) == 3

        out = tmp_path / "metrics.prom"
        assert metrics_export.main(
            ["--trace", trace_path, "--check", "--out", str(out)]
        ) == 0
        scrape = out.read_text()
        assert 'quantile="0.95"' in scrape
        assert "# TYPE service_shard_requests counter" in scrape
        assert "service_worker_requests" in scrape
