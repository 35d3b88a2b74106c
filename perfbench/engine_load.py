"""In-process load on :class:`repro.engine.CRCPipeline`.

``bulk-mtu`` runs here end to end: rounds of messages go through the
public ``open`` / ``feed(pump=False)`` / ``finalize_many`` calls, with no
network and no server.  The traced run also replays each serve
workload's messages here, in the order the server issues the engine
calls, to size the engine's share of a message's time.

Traced passes time every pipeline call and, by wrapping the kernel entry
point the pipeline module calls, the GF(2) kernel inside ``pump``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import repro.engine.pipeline as pipeline_module
from repro.crc import get
from repro.engine import CRCPipeline
from repro.engine.cache import CompileCache

from perfbench.host import MeterReading
from perfbench.population import M, STANDARD, Population, Workload


def build_pipeline() -> CRCPipeline:
    """A pipeline compiled from scratch (fresh compile cache, no disk)."""
    return CRCPipeline(get(STANDARD), M, cache=CompileCache())


def first_build_s(root: Path) -> float:
    """Seconds for the first ``CRCPipeline`` construction in a fresh process.

    The child imports everything first, so only construction (compile
    included) is timed.  Build time differs by up to ~60% from one
    process to the next on the same host, which is why callers take the
    median over several children rather than repeat builds in one.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out = subprocess.run(
        [sys.executable, "-m", "perfbench.engine_load"],
        cwd=root, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


@dataclass
class PhaseTimes:
    """Seconds spent in each pipeline call of a traced pass."""

    messages: int = 0
    payload_bytes: int = 0
    blocks: int = 0
    open_s: float = 0.0
    feed_s: float = 0.0
    pump_s: float = 0.0
    kernel_s: float = 0.0
    finalize_s: float = 0.0

    @property
    def engine_s(self) -> float:
        return self.open_s + self.feed_s + self.pump_s + self.finalize_s


class KernelTimer:
    """Accumulates time spent in the pipeline's GF(2) kernel calls."""

    def __init__(self, times: PhaseTimes):
        self._times = times
        self._saved = None

    def __enter__(self) -> "KernelTimer":
        kernel = self._saved = pipeline_module.gf2_mul_packed
        times = self._times

        def timed_kernel(matrix, packed):
            t0 = time.perf_counter()
            result = kernel(matrix, packed)
            times.kernel_s += time.perf_counter() - t0
            return result

        pipeline_module.gf2_mul_packed = timed_kernel
        return self

    def __exit__(self, *_exc) -> None:
        pipeline_module.gf2_mul_packed = self._saved


@dataclass
class BulkWindow:
    """What one window of bulk rounds saw."""

    attempted: int = 0
    verified: int = 0
    failed: int = 0
    payload_bytes: int = 0
    latencies_s: List[float] = field(default_factory=list)
    times: Optional[PhaseTimes] = None
    meter: Optional[MeterReading] = None


def run_rounds(
    pipeline: CRCPipeline,
    workload: Workload,
    population: Population,
    seconds: float,
    times: Optional[PhaseTimes] = None,
    start_round: int = 0,
) -> BulkWindow:
    """Rounds of ``workload.round_size`` messages until ``seconds`` pass.

    Untraced rounds make exactly the public calls a bulk user makes.
    Traced rounds (``times`` given) add one explicit ``pump`` before
    ``finalize_many``, so block work and tail work are timed apart; the
    digests are the same either way.
    """
    window = BulkWindow(times=times)
    messages, digests = population.messages, population.digests
    size = workload.round_size
    rounds = len(messages) // size
    r = start_round
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        base = (r % rounds) * size
        r += 1
        batch = range(base, base + size)
        t0 = time.perf_counter()
        if times is None:
            ids = [pipeline.open() for _ in batch]
            for sid, i in zip(ids, batch):
                pipeline.feed(sid, messages[i], pump=False)
            results = pipeline.finalize_many(ids)
        else:
            results = _traced_round(pipeline, [messages[i] for i in batch], times)
        window.latencies_s.append(time.perf_counter() - t0)
        window.attempted += size
        for i, digest in zip(batch, results):
            if digest == digests[i]:
                window.verified += 1
                window.payload_bytes += len(messages[i])
            else:
                window.failed += 1
    return window


def _traced_round(pipeline: CRCPipeline, batch: List[bytes], times: PhaseTimes) -> List[int]:
    t0 = time.perf_counter()
    ids = [pipeline.open() for _ in batch]
    t1 = time.perf_counter()
    for sid, message in zip(ids, batch):
        pipeline.feed(sid, message, pump=False)
    t2 = time.perf_counter()
    with KernelTimer(times):
        times.blocks += pipeline.pump()
    t3 = time.perf_counter()
    results = pipeline.finalize_many(ids)
    t4 = time.perf_counter()
    times.open_s += t1 - t0
    times.feed_s += t2 - t1
    times.pump_s += t3 - t2
    times.finalize_s += t4 - t3
    times.messages += len(batch)
    times.payload_bytes += sum(len(m) for m in batch)
    return results


def replay_serve(workload: Workload, population: Population) -> tuple:
    """Replay the first ``workload.replay`` messages as the server runs them.

    Per message: ``open``; per chunk ``feed(pump=False)`` then ``pump``
    (the server's pump loop); ``finalize``.  Returns ``(times, failed)``,
    every digest checked against the oracle.
    """
    pipeline = build_pipeline()
    times = PhaseTimes()
    chunk = workload.chunk_bytes
    failed = 0
    with KernelTimer(times):
        for message, expected in zip(
            population.messages[:workload.replay],
            population.digests[:workload.replay],
        ):
            step = chunk if chunk > 0 else len(message)
            t0 = time.perf_counter()
            sid = pipeline.open()
            times.open_s += time.perf_counter() - t0
            for start in range(0, len(message), step):
                t0 = time.perf_counter()
                pipeline.feed(sid, message[start:start + step], pump=False)
                t1 = time.perf_counter()
                times.blocks += pipeline.pump()
                times.feed_s += t1 - t0
                times.pump_s += time.perf_counter() - t1
            t0 = time.perf_counter()
            digest = pipeline.finalize(sid)
            times.finalize_s += time.perf_counter() - t0
            times.messages += 1
            times.payload_bytes += len(message)
            failed += digest != expected
    return times, failed


if __name__ == "__main__":
    t0 = time.perf_counter()
    build_pipeline()
    print(time.perf_counter() - t0)
