"""Single-layer timings for the traced run, each through public calls.

Each function times one layer alone, in this process, and returns a
median over several repeats so one descheduled repeat does not move it.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.crc import get
from repro.engine.cache import CompileCache
from repro.engine.microbatch import MicroBatcher
from repro.engine.planner import KIND_CRC_STREAM, Planner, WorkloadDescriptor
from repro.gf2.backend import get_backend
from repro.serve.protocol import decode_frame, encode_frame, encode_frame_parts
from repro.serve.server import AUTO_PLAN_MESSAGE_BITS, AUTO_PLAN_STREAMS

from perfbench.engine_load import build_pipeline
from perfbench.population import M, STANDARD

REPEATS = 5


def _median_time(fn: Callable[[], object], calls: int, repeats: int = REPEATS) -> float:
    """Median over ``repeats`` of the mean seconds per call of ``fn``."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def compile_build_s() -> float:
    """Median seconds to construct a ``CRCPipeline`` from a cold cache."""
    return _median_time(build_pipeline, calls=1)


def matvec_us(width: int) -> float:
    """``packed`` backend ``matvec_batch`` at the M=1024 step shape."""
    la = CompileCache().lookahead(get(STANDARD), M)
    step = np.hstack([la.A_M.to_array(), la.B_M.to_array()])
    backend = get_backend("packed")
    rng = np.random.default_rng(width)
    bits = rng.integers(0, 2, size=(step.shape[1], width), dtype=np.uint8)
    packed = backend.pack(bits)
    calls = 200 if width == 1 else 50
    return 1e6 * _median_time(lambda: backend.matvec_batch(step, packed), calls)


def microbatch_handoff_us(submits: int = 2000) -> float:
    """Median ``MicroBatcher.submit`` round trip with a no-op runner."""

    async def measure() -> List[float]:
        with ThreadPoolExecutor(max_workers=1) as executor:
            batcher = MicroBatcher(executor)
            batcher.register("noop", lambda ops: [None] * len(ops))
            batcher.start()
            samples = []
            try:
                for _ in range(submits):
                    t0 = time.perf_counter()
                    await batcher.submit("noop", None)
                    samples.append(time.perf_counter() - t0)
            finally:
                await batcher.aclose()
            return samples

    return 1e6 * statistics.median(asyncio.run(measure()))


def protocol_us(frames: Sequence[Tuple[dict, bytes]]) -> Tuple[float, float]:
    """``(encode, decode)`` microseconds per frame over the given frames."""
    encoded = [encode_frame(header, payload) for header, payload in frames]

    def encode_all() -> None:
        for header, payload in frames:
            encode_frame_parts(header, payload)

    def decode_all() -> None:
        for raw in encoded:
            decode_frame(raw)

    per_frame = 1e6 / len(frames)
    return (
        per_frame * _median_time(encode_all, calls=20),
        per_frame * _median_time(decode_all, calls=20),
    )


def planner_probe(instances: int = 3) -> Tuple[float, int]:
    """``(median probe seconds, distinct plans)`` over fresh planners.

    Each planner probes this host from scratch and plans the workload an
    unpinned server would ask for; a count above one means the default
    server's shape depends on the run.
    """
    workload = WorkloadDescriptor(
        kind=KIND_CRC_STREAM,
        standard=STANDARD,
        message_bits=AUTO_PLAN_MESSAGE_BITS,
        streams=AUTO_PLAN_STREAMS,
    )
    probe_s = []
    plans = set()
    for _ in range(instances):
        planner = Planner()
        t0 = time.perf_counter()
        planner.profile  # noqa: B018 — the property runs the probe
        probe_s.append(time.perf_counter() - t0)
        plan = planner.plan(workload)
        batch = planner.plan_serve_batch(workload)
        plans.add((plan.M, plan.workers, plan.backend,
                   batch.enabled, batch.max_batch, batch.linger_s))
    return statistics.median(probe_s), len(plans)

