"""Smoke tests: the example scripts must run end to end.

(The DLRM sweep example is exercised by the benchmarks instead — its full
batch sweep takes minutes.)
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> None:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "max |compiled - numpy|" in out
        assert "Tensor IR" in out

    def test_bert_attention(self, capsys):
        run_example("bert_attention.py")
        out = capsys.readouterr().out
        assert "what the compiler did" in out

    def test_custom_machine(self, capsys):
        run_example("custom_machine.py")
        out = capsys.readouterr().out
        assert "xeon-8358" in out
        assert "laptop-8c" in out

    def test_cnn_layer(self, capsys):
        run_example("cnn_layer.py")
        out = capsys.readouterr().out
        assert "ok" in out

    def test_serving_mlp(self, capsys):
        run_example("serving_mlp.py")
        out = capsys.readouterr().out
        assert "cache hit rate" in out
        assert "per-signature compile counts" in out
        assert "ok" in out

    def test_serving_batched(self, capsys):
        run_example("serving_batched.py")
        out = capsys.readouterr().out
        assert "bit-identical to unbatched: yes" in out
        assert "BatchingStats" in out
        assert "coalesce ratio" in out
        assert "ok" in out

    def test_serving_sharded(self, capsys):
        run_example("serving_sharded.py")
        out = capsys.readouterr().out
        assert "bit-identical to single session: yes" in out
        assert "0 failed" in out
        assert "ShardedStats" in out
        assert "all shared-memory segments unlinked: yes" in out
        assert "ok" in out

    def test_autotune_matmul(self, capsys):
        run_example("autotune_matmul.py")
        out = capsys.readouterr().out
        assert "heuristic:" in out
        assert "tuned:" in out
        assert "source: cache" in out
        assert "ok" in out

    def test_trace_mlp(self, capsys, tmp_path, monkeypatch):
        from repro.observability import get_tracer

        path = tmp_path / "trace.json"
        monkeypatch.setattr(sys, "argv", ["trace_mlp.py", str(path)])
        try:
            run_example("trace_mlp.py")
        finally:
            get_tracer().clear()
        out = capsys.readouterr().out
        assert "brgemm calls" in out
        assert "top passes" in out
        assert "brgemm reconciliation" in out
        assert "schema check: ok" in out
        assert path.exists()

    def test_executor_speedup(self, capsys):
        run_example("executor_speedup.py")
        out = capsys.readouterr().out
        assert "interpreter" in out
        assert "bit-identical" in out

    def test_all_examples_exist(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "dlrm_mlp_inference.py",
            "bert_attention.py",
            "custom_machine.py",
            "cnn_layer.py",
            "serving_mlp.py",
            "serving_batched.py",
            "autotune_matmul.py",
            "trace_mlp.py",
            "executor_speedup.py",
        } <= names
