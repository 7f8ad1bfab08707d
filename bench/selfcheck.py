#!/usr/bin/env python3
"""A/A check: the suite twice on the same tree, in alternating order.

    python3 bench/selfcheck.py [--seed N] [--out bench/results/baseline.json]

Two sets of runs, A and B, interleaved (A forwards, B backwards, three
times over with seeds N, N+1, N+2), then one traced pass each.  Fails
(exit 1) if the A and B medians of any end-to-end metric of any workload
differ by more than the bound ``BENCHMARK.json`` gives it, or if an
exact count differs between the two traced passes.  The output, with
host provenance, is the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List

import run as bench_run


#: Runs per set and workload; the sets' medians are compared.
REPEATS = 3


def provenance(seed: int) -> Dict[str, Any]:
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=bench_run.ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "pinned_thread_env": {name: "1" for name in bench_run.PINNED_THREADS},
        "git_sha": sha,
        "seed": seed,
    }


def one_pass(names: List[str], seed: int, seconds: float, trace: int):
    results = {}
    for name in names:
        print(f"-- {name} (trace {trace})", flush=True)
        result = bench_run.run_child(name, seed, seconds, trace, quick=False)
        if result["problems"] or not result.get("correct"):
            raise SystemExit(f"{name}: {result['problems'] or 'incorrect'}")
        results[name] = result
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        default=os.path.join(bench_run.BENCH_DIR, "results", "baseline.json"),
    )
    args = parser.parse_args()
    spec = bench_run.load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    seconds = spec["run_seconds"]

    untraced: Dict[str, List[Dict[str, Any]]] = {"a": [], "b": []}
    for repeat in range(REPEATS):
        seed = args.seed + repeat
        untraced["a"].append(one_pass(names, seed, seconds, 0))
        untraced["b"].append(one_pass(names[::-1], seed, seconds, 0))
    passes = {
        "untraced_a": untraced["a"],
        "untraced_b": untraced["b"],
        "traced_a": one_pass(names, args.seed, seconds, 1),
        "traced_b": one_pass(names[::-1], args.seed, seconds, 1),
    }

    def median(side: str, name: str, metric: str) -> float:
        return statistics.median(
            results[name]["metrics"][metric]["value"]
            for results in untraced[side]
        )

    disagreements = []
    differences: Dict[str, Dict[str, float]] = {}
    medians: Dict[str, Dict[str, Dict[str, float]]] = {"a": {}, "b": {}}
    for name in names:
        attempted = {
            results[name]["attempted"]
            for side in untraced.values()
            for results in side
        }
        if len(attempted) != 1:
            disagreements.append(f"{name}: ops attempted differ")
        differences[name] = {}
        for metric in spec["end_to_end"]:
            a = median("a", name, metric["name"])
            b = median("b", name, metric["name"])
            share = abs(b - a) / a
            differences[name][metric["name"]] = share
            medians["a"].setdefault(name, {})[metric["name"]] = a
            medians["b"].setdefault(name, {})[metric["name"]] = b
            verdict = "ok" if share <= metric["bound"] else "DIFFERS"
            print(
                f"{name:<18}{metric['name']:<20}{a:>12.5g}{b:>12.5g}"
                f"{share:>9.2%} (bound {metric['bound']:.0%}) {verdict}"
            )
            if share > metric["bound"]:
                disagreements.append(
                    f"{name}: {metric['name']} differs by {share:.1%}"
                )
        first, second = passes["traced_a"][name], passes["traced_b"][name]
        for count in bench_run.EXACT_COUNTS:
            a = first["metrics"][count]["value"]
            b = second["metrics"][count]["value"]
            if a != b:
                disagreements.append(f"{name}: {count} {a} != {b}")

    document = {
        "provenance": provenance(args.seed),
        "agree": not disagreements,
        "disagreements": disagreements,
        "medians": medians,
        "relative_differences": differences,
        "passes": passes,
    }
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for line in disagreements:
        print(f"DISAGREE: {line}")
    print(f"wrote {os.path.relpath(args.out)}; agree = {not disagreements}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
