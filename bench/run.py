#!/usr/bin/env python3
"""The repo benchmark: one foreground command.

    python3 bench/run.py                    every workload, untraced
    python3 bench/run.py --trace            every workload, traced
    python3 bench/run.py --workload mlp_steady --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --list

Each workload runs in a child process of its own (``bench.child``), in a
new session, under a wall-clock cap.  After each child this process
checks from outside that nothing was left behind: the child's process
group is empty and ``/dev/shm`` holds no segment it created.  The exit
code is non-zero on a leak, a failed output check or a missing metric.
The last line of stdout is one JSON object: the result of the workload
named by ``--workload``, or of all workloads keyed by name.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
SOURCE = os.path.join(ROOT, "src")

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Per-layer metrics that are counts of the program's own work: the same
#: seed must reproduce them exactly, on any host.
EXACT_COUNTS = (
    "graph_ir.ops_in",
    "graph_ir.ops_out",
    "lowering.tir_functions",
    "tensor_ir.arena_bytes",
    "runtime.brgemm_calls",
    "runtime.compute_stmts",
    "runtime.pack_stmts",
    "runtime.parallel_loops",
    "runtime.barriers",
    "runtime.peak_temp_bytes",
    "service.cache.compiles",
)
#: Hard wall-clock cap on one workload child, in seconds.
CHILD_CAP_S = 170.0
#: How long a finished child's helpers (multiprocessing's resource
#: tracker) get to exit before the group counts as leaked.
GROUP_GRACE_S = 5.0


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def reap_group(pgid: int) -> bool:
    """True if the group emptied by itself; otherwise SIGKILL it."""
    deadline = time.monotonic() + GROUP_GRACE_S
    while group_alive(pgid):
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            return False
        time.sleep(0.05)
    return True


def leaked_segments(pid: int) -> List[str]:
    """Shared-memory segments a process of this id created (ring names
    carry their creator's pid) that are still linked."""
    prefix = f"repro-shard-{pid}-"
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return []
    return sorted(name for name in names if name.startswith(prefix))


def run_child(
    workload: str, seed: int, seconds: float, trace: int, quick: bool
) -> Dict[str, Any]:
    """Run one workload child to completion; never leaves it behind."""
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(
        [SOURCE, ROOT] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    command = [
        sys.executable, "-m", "bench.child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    problems: List[str] = []
    try:
        stdout, _ = child.communicate(timeout=CHILD_CAP_S)
    except subprocess.TimeoutExpired:
        problems.append(f"exceeded the {CHILD_CAP_S:.0f} s cap")
        stdout = ""
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    if not reap_group(child.pid):
        problems.append("left processes running (killed)")
    segments = leaked_segments(child.pid)
    for name in segments:
        os.unlink(os.path.join("/dev/shm", name))
    if segments:
        problems.append(f"left shared memory behind: {segments}")
    if child.returncode != 0:
        problems.append(f"exit code {child.returncode}")

    result: Dict[str, Any] = {}
    lines = stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            problems.append("printed no result")
    elif not problems:
        problems.append("printed no result")
    result.setdefault("workload", workload)
    result.setdefault("metrics", {})
    result["problems"] = problems
    return result


def check_metrics(
    result: Dict[str, Any], wanted: List[Dict[str, str]]
) -> None:
    """Every metric the spec names must be there, in its unit."""
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            result["problems"].append(f"metric {metric['name']} is missing")
        elif got["unit"] != metric["unit"]:
            result["problems"].append(
                f"metric {metric['name']} is in {got['unit']}, "
                f"spec says {metric['unit']}"
            )


def print_result(result: Dict[str, Any], wanted: List[Dict[str, str]]) -> None:
    attempted = result.get("attempted", 0)
    failed = result.get("failed", 0)
    share = failed / attempted if attempted else float("nan")
    print(f"== {result['workload']} (seed {result.get('seed')})")
    print(f"  {'ops attempted':<44}{attempted:>14} count")
    print(f"  {'failed_share':<44}{share:>14.6f} ratio  ({failed} failed)")
    medians = result.get("block_median", {})
    spread = result.get("block_iqr", {})
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            continue
        note = ""
        if metric["name"] in medians:
            note = (
                f"  (block median {medians[metric['name']]:.5g}, "
                f"IQR {spread[metric['name']]:.3g})"
            )
        print(
            f"  {metric['name']:<44}{got['value']:>14.6g} {got['unit']}{note}"
        )
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def contract_line(result: Dict[str, Any], wanted) -> Dict[str, Any]:
    """Exactly the keys the driver reads."""
    names = [metric["name"] for metric in wanted]
    return {
        "correct": bool(result.get("correct")) and not result["problems"],
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": {
            name: {
                "value": result["metrics"][name]["value"],
                "unit": result["metrics"][name]["unit"],
            }
            for name in names
            if name in result["metrics"]
        },
    }


def print_list(spec: Dict[str, Any]) -> None:
    # Imported only here: the listing needs the workloads' op rates.
    sys.path[:0] = [SOURCE, ROOT]
    from bench.workloads import WORKLOADS, op_count

    seconds = spec["run_seconds"]
    print(f"command: {' '.join(spec['command'])}   run_seconds: {seconds}")
    print("workloads:")
    for entry in spec["workloads"]:
        workload = WORKLOADS[entry["name"]]
        print(
            f"  {entry['name']:<18}{op_count(workload, seconds):>7} ops"
            f"  op = {workload.op}"
        )
        print(f"  {'':<18}why: {entry['why']}")
    print("end-to-end metrics (regression bound as share of parent median):")
    for metric in spec["end_to_end"]:
        print(
            f"  {metric['name']:<20}{metric['unit']:<6}{metric['better']:<8}"
            f"bound {metric['bound']:.0%}"
        )
    print("per-layer metrics (traced run, no bound):")
    for metric in spec["per_layer"]:
        print(f"  {metric['name']:<44}{metric['unit']:<7}{metric['better']}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one tenth of the ops: a smoke run, not for recorded numbers",
    )
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"bench: no program to measure at {SOURCE}", file=sys.stderr)
        return 2
    if args.list:
        print_list(spec)
        return 0

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = [args.workload] if args.workload else names
    results = {}
    for name in selected:
        result = run_child(
            name, args.seed, args.seconds, args.trace, args.quick
        )
        check_metrics(result, wanted)
        print_result(result, wanted)
        results[name] = contract_line(result, wanted)
    sys.stdout.flush()
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
