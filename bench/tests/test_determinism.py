"""The benchmark's own guarantees: the seed fixes the inputs and every
exact count, another seed changes them, and a wrong output is counted."""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench_run
from bench.spans import NullRecorder
from bench.workloads import WORKLOADS

OPS = 50


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_plan(name):
    workload = WORKLOADS[name]
    def plan(seed):
        return json.dumps(workload.plan(seed, OPS), sort_keys=True)

    assert plan(7) == plan(7)
    assert plan(8) != plan(7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [-7, 2**32, 98765432109876])
def test_any_integer_is_a_seed(name, seed):
    """numpy takes 32-bit seeds only; ``--seed`` is not limited to them."""
    workload = WORKLOADS[name]
    ops = 10
    state = workload.setup(workload.plan(seed, ops))
    try:
        timed = workload.run(state, ops, NullRecorder())
    finally:
        state.close()
    assert timed.attempted == ops and timed.failed == 0


def test_sweep_shapes_do_not_depend_on_the_seed():
    def shapes(seed):
        specs = WORKLOADS["coldstart_sweep"].plan(seed, OPS)["specs"]
        return sorted(
            (tuple(s["dims"]), s["batch"], s["int8"]) for s in specs
        )

    assert shapes(1) == shapes(2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_is_a_failed_op(name):
    workload = WORKLOADS[name]
    ops = 10
    state = workload.setup(workload.plan(3, ops))
    try:
        clean = workload.run(state, ops, NullRecorder())
        corrupted = workload.run(
            state,
            ops,
            NullRecorder(),
            tamper=lambda outputs: {
                key: value * 1.5 + 1.0 for key, value in outputs.items()
            },
        )
    finally:
        state.close()
    assert clean.attempted == ops and clean.failed == 0
    assert corrupted.failed == ops and sum(corrupted.correct) == 0


def _traced_quick(seed):
    spec = bench_run.load_spec()
    result = bench_run.run_child(
        "serve_sharded", seed, spec["run_seconds"], trace=1, quick=True
    )
    assert result["problems"] == [], result["problems"]
    assert result["correct"]
    return result


def test_exact_counts_repeat_and_nothing_is_left_behind():
    first, second = _traced_quick(5), _traced_quick(5)
    assert first["attempted"] == second["attempted"]
    for name in bench_run.EXACT_COUNTS:
        assert (
            first["metrics"][name]["value"] == second["metrics"][name]["value"]
        ), name
    assert first["metrics"]["runtime.brgemm_calls"]["value"] > 0
    assert first["metrics"]["service.cache.compiles"]["value"] == 2
    assert first["leaks"] == {"children": [], "segments": []}


def test_a_run_without_the_program_fails(tmp_path):
    """Only BENCHMARK.json and bench/: non-zero exit, no result line."""
    shutil.copy(bench_run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        bench_run.BENCH_DIR,
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mlp_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
