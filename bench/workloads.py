"""The four workloads: what is generated from the seed, what one
operation is, and how its output is checked.

Every workload has the same shape: ``plan(seed, n_ops)`` is a pure,
JSON-able description of the inputs (graph specs, request sequence);
``setup(plan)`` builds arrays, references and the program under test and
warms it; ``run(state, n_ops, recorder)`` executes the timed region.
Outputs are checked against :func:`repro.graph_ir.reference.evaluate_graph`
on the *uncompiled* source graph — the op-by-op oracle shares no pass,
lowering or executor with what it checks.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import DType, GraphBuilder
from repro.graph_ir.reference import evaluate_graph
from repro.graph_ir.symbolic import dyn
from repro.service import ModelSpec
from repro.service.session import DYNAMIC_BATCH_HINT
from repro.workloads import (
    build_mha_graph,
    build_mlp_graph,
    make_mha_inputs,
    make_mlp_inputs,
)
from repro.workloads import mlp as mlp_params

from . import adapters
from .measure import BLOCKS, Timed, block_bounds
from .spans import OP, NullRecorder
from .staged import staged_compile

Arrays = Dict[str, np.ndarray]


def subseed(seed: int, *stream: int) -> int:
    """The 32-bit seed of one input stream of a run.

    ``--seed`` may be any integer; numpy's ``RandomState`` takes only
    ``0 .. 2**32 - 1``, so every generator is seeded through here.
    """
    digest = hashlib.sha256(repr((seed, *stream)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


# -- output check -------------------------------------------------------------


def matches(outputs: Arrays, reference: Arrays, quantized: bool) -> bool:
    """Whether compiled outputs agree with the op-by-op oracle.

    f32 graphs: the tolerance of ``tests/integration``.  Quantized graphs
    cannot be exact against the f32 oracle — the int8 rewrite and the
    oracle round differently at requantization boundaries, and one flipped
    step propagates — so they are held to a near-zero median error and at
    most 1 % of elements off by more than 5 % of the output's range.
    """
    if len(outputs) != len(reference):
        return False
    for got, want in zip(outputs.values(), reference.values()):
        if got.shape != want.shape:
            return False
        if not quantized:
            if not np.allclose(got, want, rtol=1e-3, atol=1e-3):
                return False
            continue
        scale = max(float(np.abs(want).max()), 1.0)
        error = np.abs(got - want) / scale
        # Median error below 1e-3, without sorting: under half at or above.
        if (error >= 1e-3).mean() >= 0.5 or (error > 5e-2).mean() >= 0.01:
            return False
    return True


# -- whole-problem numpy references (the ceiling, not the oracle) -------------


def numpy_mlp(arrays: Arrays) -> np.ndarray:
    out = arrays["x"]
    layer = 0
    while f"w{layer}" in arrays:
        out = np.maximum(out @ arrays[f"w{layer}"], 0.0)
        layer += 1
    return out


def numpy_mha(arrays: Arrays) -> np.ndarray:
    q, k, v = arrays["q"], arrays["k"], arrays["v"]
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(q.shape[-1])
    scores = scores + arrays["mask"]
    scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return (scores / scores.sum(axis=-1, keepdims=True)) @ v


@dataclass(frozen=True)
class Subject:
    """One graph of a workload, for the per-layer probes."""

    build: Callable[[], Any]
    #: Activations and weights for one execution.
    inputs: Arrays
    #: Hand-written whole-problem numpy of the same math, on f32 copies.
    numpy_ref: Callable[[Arrays], np.ndarray]


def tampered(check: Callable, tamper: Optional[Callable]) -> Callable:
    """``check`` seeing outputs through ``tamper`` (the tests corrupt
    outputs this way to show the check counts them)."""
    if tamper is None:
        return check
    return lambda key, outputs: check(key, tamper(outputs))


# -- the sequential timed region ----------------------------------------------


def run_sequential(
    n_ops: int,
    op: Callable[[int], Arrays],
    check: Callable[[int, Arrays], bool],
    recorder,
) -> Timed:
    """Time ``op(i)`` for every i, one at a time, in equal blocks.

    An op's latency ends when ``op`` returns; the output check runs after
    it, inside the block's wall time.
    """
    timed = Timed(attempted=n_ops)
    for lo, hi in block_bounds(n_ops):
        latencies: List[float] = []
        start = time.perf_counter()
        for index in range(lo, hi):
            with recorder.span(OP, op=index):
                begin = time.perf_counter()
                try:
                    outputs = op(index)
                except Exception:
                    traceback.print_exc()
                    timed.failed += 1
                    continue
                elapsed = time.perf_counter() - begin
                with recorder.span("bench.check", op=index):
                    correct = check(index, outputs)
            if correct:
                latencies.append(elapsed * 1e3)
            else:
                timed.failed += 1
        timed.windows.append((start, time.perf_counter()))
        timed.latencies_ms.append(latencies)
        timed.correct.append(len(latencies))
    return timed


# -- steady-state execute -----------------------------------------------------


class InProcessState:
    """State of a workload that runs in the benchmark's own process."""

    def pids(self) -> List[int]:
        return [os.getpid()]

    def close(self) -> None:
        pass


@dataclass
class SteadyState(InProcessState):
    partition: Any
    activations: List[Arrays]
    references: List[Arrays]
    subjects: List[Subject]
    quantized: bool

    def close(self) -> None:
        self.partition.close()


@dataclass(frozen=True)
class Steady:
    """One compiled partition executed over rotating seeded inputs."""

    name: str
    op: str
    ops_per_second: float
    warmup: int
    model: str
    batch: int
    dtype: DType
    build_graph: Callable
    make_inputs: Callable
    numpy_ref: Callable
    #: Distinct seeded inputs, visited in turn.
    rotation: int = 8

    def plan(self, seed: int, n_ops: int) -> Dict[str, Any]:
        return {
            "workload": self.name,
            "graph": [self.model, self.dtype.value, self.batch],
            "weight_seed": subseed(seed),
            "input_seeds": [subseed(seed, i) for i in range(self.rotation)],
            "ops": n_ops,
        }

    def _build(self):
        return self.build_graph(self.model, self.batch, self.dtype)

    def setup(self, plan: Dict[str, Any]) -> SteadyState:
        partition = adapters.compile_partition(self._build())
        drawn = self.make_inputs(
            self.model, self.batch, self.dtype, seed=plan["weight_seed"]
        )
        weights = {name: drawn[name] for name in partition.weight_names}
        activations = []
        references = []
        for input_seed in plan["input_seeds"]:
            drawn = self.make_inputs(
                self.model, self.batch, self.dtype, seed=input_seed
            )
            feed = {name: drawn[name] for name in partition.input_names}
            activations.append(feed)
            references.append(
                evaluate_graph(self._build(), {**feed, **weights})
            )
        partition.execute({**activations[0], **weights})
        for index in range(self.warmup):
            partition.execute(activations[index % len(activations)])
        subject = Subject(
            build=self._build,
            inputs={**activations[0], **weights},
            numpy_ref=self.numpy_ref,
        )
        return SteadyState(
            partition=partition,
            activations=activations,
            references=references,
            subjects=[subject],
            quantized=self.dtype is not DType.f32,
        )

    def run(
        self, state: SteadyState, n_ops: int, recorder, tamper=None
    ) -> Timed:
        rotation = len(state.activations)
        execute = state.partition.execute

        def op(index: int) -> Arrays:
            with recorder.span("runtime.execute", op=index):
                return execute(state.activations[index % rotation])

        def check(index: int, outputs: Arrays) -> bool:
            return matches(
                outputs, state.references[index % rotation], state.quantized
            )

        return run_sequential(n_ops, op, tampered(check, tamper), recorder)


# -- cold start over a seeded sweep of MLP-shaped graphs ----------------------

SWEEP_DEPTHS = (2, 3, 4, 5)
SWEEP_DIMS = (13, 32, 64, 100, 128, 256, 479, 512)
SWEEP_BATCHES = (1, 4, 8, 16, 32)
#: Per depth: 6 f32 graphs and 4 int8-quantized ones (60 % / 40 %).
SWEEP_INT8 = (False, False, False, True, True) * 2


def sweep_shapes() -> List[Dict[str, Any]]:
    """The sweep's 40 graph shapes: depth x dtype laid out evenly, layer
    widths and batch drawn once from a fixed stream.

    The shapes are the same for every ``--seed``: compile time depends on
    them (by tens of percent between random draws), and runs with
    different seeds must be comparable.  The seed decides what a compiler
    could not memoise across runs anyway: the order the graphs are
    compiled in and every weight and activation value.
    """
    rng = random.Random(2024)
    shapes = []
    for depth in SWEEP_DEPTHS:
        for int8 in SWEEP_INT8:
            shapes.append(
                {
                    "dims": [rng.choice(SWEEP_DIMS) for _ in range(depth + 1)],
                    "batch": rng.choice(SWEEP_BATCHES),
                    "int8": int8,
                }
            )
    return shapes


SWEEP_GRAPHS = len(SWEEP_DEPTHS) * len(SWEEP_INT8)


def build_sweep_graph(spec: Dict[str, Any]):
    """An MLP (matmul + ReLU per layer) of the spec's dims; the int8
    variant is the framework-quantized form the workloads module uses."""
    dims, batch = spec["dims"], spec["batch"]
    b = GraphBuilder(spec["name"])
    if not spec["int8"]:
        t = b.input("x", DType.f32, (batch, dims[0]))
        for i in range(len(dims) - 1):
            w = b.constant(
                f"w{i}", dtype=DType.f32, shape=(dims[i], dims[i + 1])
            )
            t = b.relu(b.matmul(t, w))
    else:
        t = b.dequantize(
            b.input("x", DType.u8, (batch, dims[0])),
            scale=mlp_params.ACT_SCALE,
            zero_point=mlp_params.ACT_ZERO_POINT,
        )
        for i in range(len(dims) - 1):
            wq = b.constant(
                f"w{i}", dtype=DType.s8, shape=(dims[i], dims[i + 1])
            )
            w = b.dequantize(wq, scale=mlp_params.WEIGHT_SCALE)
            t = b.relu(b.matmul(t, w))
            if i < len(dims) - 2:
                q = b.quantize(
                    t,
                    scale=mlp_params.REQUANT_SCALE,
                    zero_point=mlp_params.REQUANT_ZERO_POINT,
                    dtype=DType.u8,
                )
                t = b.dequantize(
                    q,
                    scale=mlp_params.REQUANT_SCALE,
                    zero_point=mlp_params.REQUANT_ZERO_POINT,
                )
    b.output(t)
    return b.finish()


def make_sweep_inputs(spec: Dict[str, Any]) -> Arrays:
    rng = np.random.RandomState(spec["seed"])
    dims, batch = spec["dims"], spec["batch"]
    arrays: Arrays = {}
    if not spec["int8"]:
        arrays["x"] = rng.randn(batch, dims[0]).astype(np.float32)
        for i in range(len(dims) - 1):
            arrays[f"w{i}"] = (
                rng.randn(dims[i], dims[i + 1]) / np.sqrt(dims[i])
            ).astype(np.float32)
    else:
        arrays["x"] = rng.randint(0, 256, (batch, dims[0])).astype(np.uint8)
        for i in range(len(dims) - 1):
            arrays[f"w{i}"] = rng.randint(
                -127, 128, (dims[i], dims[i + 1])
            ).astype(np.int8)
    return arrays


@dataclass
class ColdStartState(InProcessState):
    specs: List[Dict[str, Any]]
    inputs: List[Arrays]
    references: List[Arrays]
    subjects: List[Subject]


@dataclass(frozen=True)
class ColdStart:
    name: str = "coldstart_sweep"
    op: str = "fresh compile_graph + first execute with weights"
    ops_per_second: float = 20.0
    #: Graphs in the sweep, compiled round-robin.
    rotation: int = SWEEP_GRAPHS

    def plan(self, seed: int, n_ops: int) -> Dict[str, Any]:
        shapes = sweep_shapes()
        random.Random(seed).shuffle(shapes)
        specs = [
            {"name": f"sweep{index}", "seed": subseed(seed, index), **shape}
            for index, shape in enumerate(shapes)
        ]
        return {"workload": self.name, "specs": specs, "ops": n_ops}

    def setup(self, plan: Dict[str, Any]) -> ColdStartState:
        specs = plan["specs"]
        inputs = [make_sweep_inputs(spec) for spec in specs]
        references = [
            evaluate_graph(build_sweep_graph(spec), arrays)
            for spec, arrays in zip(specs, inputs)
        ]
        subjects = [
            Subject(
                build=lambda spec=spec: build_sweep_graph(spec),
                inputs=arrays,
                numpy_ref=numpy_mlp,
            )
            for spec, arrays in zip(specs, inputs)
        ]
        # One untimed round: lazy imports and first-use tables are paid
        # here, so the timed rounds see the compiler's steady cost.
        for spec, arrays in zip(specs, inputs):
            adapters.compile_partition(build_sweep_graph(spec)).execute(arrays)
        return ColdStartState(specs, inputs, references, subjects)

    def run(
        self, state: ColdStartState, n_ops: int, recorder, tamper=None
    ) -> Timed:
        count = len(state.specs)
        # Built before the clock starts: a caller's graph construction is
        # not the compiler's cost, and compilation consumes its graph.
        graphs = [
            build_sweep_graph(state.specs[index % count])
            for index in range(n_ops)
        ]

        def op(index: int) -> Arrays:
            which = index % count
            graph = graphs[index]
            if recorder.enabled:
                partition = staged_compile(graph, recorder, index)
            else:
                partition = adapters.compile_partition(graph)
            with recorder.span("runtime.first_execute", op=index):
                return partition.execute(state.inputs[which])

        def check(index: int, outputs: Arrays) -> bool:
            which = index % count
            return matches(
                outputs, state.references[which], state.specs[which]["int8"]
            )

        return run_sequential(n_ops, op, tampered(check, tamper), recorder)


# -- sharded serving ----------------------------------------------------------

SERVE_MODELS = (("mlp_f32", DType.f32), ("mlp_int8", DType.s8))
SERVE_WORKLOAD = "MLP_1"
SERVE_BATCHES = (1, 2, 4, 8, 16, 32)
SERVE_BATCH_SHARES = (0.30, 0.25, 0.20, 0.13, 0.08, 0.04)
#: Distinct seeded activations per (model, batch).
SERVE_VARIANTS = 4
#: Futures the one client holds.  Eight outstanding requests (two
#: client threads of four) keep three busy processes on this host's two
#: CPUs and measured +-8 % run to run; four measure +-2 %.
WINDOW = 4
WARM_REQUESTS = 200
REQUEST_TIMEOUT_S = 30.0

Request = Tuple[int, int, int]  # (model index, batch, variant)


def closed_loop(
    submit: Callable[[Request], Any],
    requests: Sequence[Request],
    check: Callable[[Request, Arrays], bool],
    recorder,
    span_names: Tuple[str, str],
) -> Timed:
    """Closed loop: one client holding up to ``WINDOW`` futures; it sends
    its next request when its oldest completes.

    The window drains at the end of each block, so a block's wall time is
    exact; latency runs from before ``submit`` to after ``result``.
    """
    submit_name, wait_name = span_names
    timed = Timed(attempted=len(requests))
    for lo, hi in block_bounds(len(requests)):
        latencies: List[float] = []
        window: deque = deque()

        def settle() -> None:
            index, op_span, begin, future = window.popleft()
            try:
                with recorder.span(wait_name, op=index, parent=op_span):
                    outputs = future.result(timeout=REQUEST_TIMEOUT_S)
            except Exception:
                traceback.print_exc()
                timed.failed += 1
                recorder.end(op_span)
                return
            elapsed = time.perf_counter() - begin
            with recorder.span("bench.check", op=index, parent=op_span):
                correct = check(requests[index], outputs)
            recorder.end(op_span)
            if correct:
                latencies.append(elapsed * 1e3)
            else:
                timed.failed += 1

        start = time.perf_counter()
        for index in range(lo, hi):
            if len(window) >= WINDOW:
                settle()
            op_span = recorder.begin(OP, op=index)
            begin = time.perf_counter()
            try:
                with recorder.span(submit_name, op=index, parent=op_span):
                    future = submit(requests[index])
            except Exception:
                traceback.print_exc()
                timed.failed += 1
                recorder.end(op_span)
                continue
            window.append((index, op_span, begin, future))
        while window:
            settle()
        timed.windows.append((start, time.perf_counter()))
        timed.latencies_ms.append(latencies)
        timed.correct.append(len(latencies))
    return timed


@dataclass
class ServeState:
    fleet: Any
    specs: List[ModelSpec]
    #: (model index, batch, variant) -> activations / oracle outputs.
    pool: Dict[Request, Arrays]
    references: Dict[Request, Arrays]
    requests: List[Request]
    subjects: List[Subject]
    warmup_seconds: float
    close_seconds: float = 0.0

    def pids(self) -> List[int]:
        workers = [info.pid for info in self.fleet.workers().values()]
        return [os.getpid()] + workers

    def close(self) -> None:
        if self.fleet.closed:
            return
        begin = time.perf_counter()
        self.fleet.close()
        self.close_seconds = time.perf_counter() - begin

    def check(self, request: Request, outputs: Arrays) -> bool:
        quantized = SERVE_MODELS[request[0]][1] is not DType.f32
        return matches(outputs, self.references[request], quantized)

    def submit(self, request: Request):
        return self.fleet.submit(
            self.pool[request], model=SERVE_MODELS[request[0]][0]
        )


def draw_requests(seed: int, count: int) -> List[Request]:
    rng = np.random.RandomState(subseed(seed))
    models = rng.randint(0, len(SERVE_MODELS), size=count)
    batches = rng.choice(SERVE_BATCHES, size=count, p=SERVE_BATCH_SHARES)
    variants = rng.randint(0, SERVE_VARIANTS, size=count)
    return [
        (int(m), int(b), int(v)) for m, b, v in zip(models, batches, variants)
    ]


@dataclass(frozen=True)
class ServeSharded:
    name: str = "serve_sharded"
    op: str = "one request, submit() -> future.result()"
    ops_per_second: float = 425.0
    #: Requests are drawn independently; any count is a whole rotation.
    rotation: int = 1

    def plan(self, seed: int, n_ops: int) -> Dict[str, Any]:
        return {
            "workload": self.name,
            "models": [
                [name, SERVE_WORKLOAD, dtype.value]
                for name, dtype in SERVE_MODELS
            ],
            "weight_seed": subseed(seed),
            "requests": draw_requests(seed, n_ops),
            "warm_requests": draw_requests(seed + 1, WARM_REQUESTS),
            "ops": n_ops,
        }

    def setup(self, plan: Dict[str, Any]) -> ServeState:
        seed = plan["weight_seed"]
        specs = []
        pool: Dict[Request, Arrays] = {}
        references: Dict[Request, Arrays] = {}
        subjects = []
        for model_index, (name, dtype) in enumerate(SERVE_MODELS):
            drawn = make_mlp_inputs(
                SERVE_WORKLOAD, DYNAMIC_BATCH_HINT, dtype, seed=seed
            )
            hint_x = drawn.pop("x")
            weights = drawn
            specs.append(
                ModelSpec(
                    name=name,
                    workload=SERVE_WORKLOAD,
                    dtype=dtype,
                    weights=weights,
                )
            )
            for batch in SERVE_BATCHES:
                for variant in range(SERVE_VARIANTS):
                    key = (model_index, batch, variant)
                    x = make_mlp_inputs(
                        SERVE_WORKLOAD,
                        batch,
                        dtype,
                        seed=subseed(seed, batch, variant),
                    )["x"]
                    pool[key] = {"x": x}
                    references[key] = evaluate_graph(
                        build_mlp_graph(SERVE_WORKLOAD, batch, dtype),
                        {"x": x, **weights},
                    )
            subjects.append(
                Subject(
                    build=lambda dtype=dtype: build_mlp_graph(
                        SERVE_WORKLOAD,
                        dyn("B", DYNAMIC_BATCH_HINT),
                        dtype,
                    ),
                    inputs={"x": hint_x, **weights},
                    numpy_ref=numpy_mlp,
                )
            )
        fleet = adapters.sharded_session(specs)
        try:
            begin = time.perf_counter()
            fleet.warm_up()
            warmup_seconds = time.perf_counter() - begin
            state = ServeState(
                fleet=fleet,
                specs=specs,
                pool=pool,
                references=references,
                requests=plan["requests"],
                subjects=subjects,
                warmup_seconds=warmup_seconds,
            )
            warm = closed_loop(
                state.submit,
                plan["warm_requests"],
                state.check,
                NullRecorder(),
                ("", ""),
            )
            if warm.failed:
                raise RuntimeError(
                    f"{warm.failed} warm-up requests failed or were wrong"
                )
        except BaseException:
            fleet.close()
            raise
        return state

    def run(
        self, state: ServeState, n_ops: int, recorder, tamper=None
    ) -> Timed:
        return closed_loop(
            state.submit,
            state.requests[:n_ops],
            tampered(state.check, tamper),
            recorder,
            ("service.sharding.submit", "service.sharding.wait"),
        )


# -- registry -----------------------------------------------------------------


def whole(ops: float, granule: int) -> int:
    return max(1, round(ops / granule)) * granule


def op_count(workload, seconds: float, quick: bool = False) -> int:
    """Ops in the timed region: a fixed rate per workload times the run
    length, so the count (and every exact counter) repeats run to run.
    Every block holds a whole number of the workload's input rotations."""
    ops = workload.ops_per_second * seconds / (10 if quick else 1)
    return whole(ops, workload.rotation * BLOCKS)


WORKLOADS = {
    w.name: w
    for w in (
        Steady(
            name="mlp_steady",
            op="one CompiledPartition.execute of MLP_1 f32 b512",
            ops_per_second=20.0,
            warmup=20,
            model="MLP_1",
            batch=512,
            dtype=DType.f32,
            build_graph=build_mlp_graph,
            make_inputs=make_mlp_inputs,
            numpy_ref=numpy_mlp,
        ),
        Steady(
            name="mha_int8_steady",
            op="one CompiledPartition.execute of MHA_1 int8 b2",
            ops_per_second=12.5,
            warmup=10,
            model="MHA_1",
            batch=2,
            dtype=DType.s8,
            build_graph=build_mha_graph,
            make_inputs=make_mha_inputs,
            numpy_ref=numpy_mha,
        ),
        ColdStart(),
        ServeSharded(),
    )
}
