"""The serve workloads: a pinned server child and a closed-loop client.

The server runs as its own process, ``python -m repro.cli serve
--no-auto -m 1024``, so no planner probe sizes it: batching and workers
stay at their constructor defaults.  Its environment drops every
``REPRO_*`` variable, so no inherited worker count, kernel backend,
compile-cache directory or telemetry path changes its shape.  The shape
is read back from the hello frame and the ``stats`` verb and checked
against :data:`PINNED_SHAPE`.

Load is a **closed loop**: each connection strictly alternates request
and response, so each caller sends its next message only after the
previous digest came back.  ``stats`` is read only before and after a
measured window, on a connection that is closed again before the window
starts: an open probe connection would disable the server's
single-connection fast path.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.engine.microbatch import DEFAULT_MAX_BATCH
from repro.errors import ReproError
from repro.serve import client as client_module
from repro.serve.client import ServeClient
from repro.serve.protocol import encode_frame_parts

from perfbench.host import Meter, MeterReading, peak_rss_mib
from perfbench.population import M, STANDARD, Population, Workload

HOST = "127.0.0.1"
#: The shape every serve run must report: M pinned on the command line,
#: everything else at the server's constructor defaults.
PINNED_SHAPE = {
    "M": M,
    "workers": 1,
    "batching": True,
    "max_batch": DEFAULT_MAX_BATCH,
    "linger_s": 0.0,
}
_LISTEN_LINE = re.compile(r" on [^ ]+:(\d+) ")
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 20.0


class ServerProcess:
    """One server child process, started and stopped by a :class:`Spawner`."""

    def __init__(self, root: Path):
        self._root = root
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.shape: Dict[str, object] = {}

    @property
    def pid(self) -> int:
        return self.proc.pid

    async def start(self) -> float:
        """Spawn the server; returns seconds from spawn to the hello frame.

        Also records the served shape from the hello frame and ``stats``.
        """
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self._root / "src")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--standard", STANDARD,
             "--no-auto", "-m", str(M), "--host", HOST, "--port", "0"],
            cwd=self._root, env=env, stdout=subprocess.PIPE, text=True,
        )
        line = await asyncio.wait_for(
            asyncio.to_thread(self.proc.stdout.readline), _START_TIMEOUT_S
        )
        match = _LISTEN_LINE.search(line)
        if match is None:
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.port = int(match.group(1))
        probe = await ServeClient.connect(HOST, self.port)
        setup_s = time.perf_counter() - t0
        try:
            stats = await probe.stats()
        finally:
            await probe.aclose()
        batch = stats.get("batch", {})
        self.shape = {
            "M": probe.M,
            "workers": probe.workers,
            "batching": stats["batching"],
            "max_batch": batch.get("max_batch", 0),
            "linger_s": batch.get("linger_s", 0.0),
        }
        return setup_s

    def shape_problems(self) -> List[str]:
        """Differences between the served shape and :data:`PINNED_SHAPE`."""
        return [
            f"{key}={self.shape.get(key)!r} (pinned {want!r})"
            for key, want in PINNED_SHAPE.items()
            if self.shape.get(key) != want
        ]

    async def stats(self) -> dict:
        """One ``stats`` read on a short-lived connection."""
        probe = await ServeClient.connect(HOST, self.port)
        try:
            return await probe.stats()
        finally:
            await probe.aclose()

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it hangs; always waits."""
        proc = self.proc
        if proc is None or proc.returncode is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


class Spawner:
    """Owns every server child; ``with Spawner(root)`` stops them all."""

    def __init__(self, root: Path):
        self._root = root
        self._servers: List[ServerProcess] = []

    def new(self) -> ServerProcess:
        server = ServerProcess(self._root)
        self._servers.append(server)
        return server

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *_exc) -> None:
        for server in self._servers:
            server.stop()


@dataclass
class CallTimes:
    """Per-call client latencies, kept only in traced windows."""

    open_s: List[float] = field(default_factory=list)
    feed_s: List[float] = field(default_factory=list)
    read_digest_s: List[float] = field(default_factory=list)


@dataclass
class Window:
    """What one measured window of closed-loop load saw."""

    attempted: int = 0
    verified: int = 0
    failed: int = 0
    digests_received: int = 0
    payload_bytes: int = 0
    latencies_s: List[float] = field(default_factory=list)
    calls: Optional[CallTimes] = None
    meter: Optional[MeterReading] = None
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)

    def counter_delta(self, name: str) -> int:
        return (self.stats_after["counters"][name]
                - self.stats_before["counters"][name])

    def batch_delta(self, name: str) -> int:
        return (self.stats_after.get("batch", {}).get(name, 0)
                - self.stats_before.get("batch", {}).get(name, 0))


class LoadClients:
    """The closed-loop connections, with each one's place in the population."""

    def __init__(self, workload: Workload, population: Population):
        self.workload = workload
        self.population = population
        self.clients: List[ServeClient] = []
        self._cursor: List[int] = []

    async def connect(self, port: int) -> None:
        for k in range(self.workload.connections):
            self.clients.append(await ServeClient.connect(HOST, port))
            self._cursor.append(k)

    async def aclose(self) -> None:
        for client in self.clients:
            await client.aclose()
        self.clients.clear()

    async def run(self, seconds: float, calls: Optional[CallTimes] = None) -> Window:
        """Drive every connection for ``seconds``; in-flight messages finish."""
        window = Window(calls=calls)
        deadline = time.perf_counter() + seconds
        await asyncio.gather(*(
            self._drive(k, deadline, window) for k in range(len(self.clients))
        ))
        return window

    async def _drive(self, k: int, deadline: float, window: Window) -> None:
        client = self.clients[k]
        messages, digests = self.population.messages, self.population.digests
        chunk = self.workload.chunk_bytes
        stride = len(self.clients)
        while time.perf_counter() < deadline:
            index = self._cursor[k] % len(messages)
            self._cursor[k] += stride
            message = messages[index]
            window.attempted += 1
            t0 = time.perf_counter()
            try:
                if window.calls is None:
                    digest = await client.compute(message, chunk)
                else:
                    digest = await _timed_compute(client, message, chunk, window.calls)
            except (ReproError, OSError, asyncio.IncompleteReadError) as exc:
                window.failed += 1
                if getattr(exc, "code", None) is None:
                    return  # transport failure: this connection is gone
                continue
            elapsed = time.perf_counter() - t0
            window.digests_received += 1
            if digest != digests[index]:
                window.failed += 1
                continue
            window.verified += 1
            window.payload_bytes += len(message)
            window.latencies_s.append(elapsed)


async def _timed_compute(
    client: ServeClient, message: bytes, chunk: int, calls: CallTimes
) -> int:
    """``ServeClient.compute`` with each verb timed on its own."""
    t0 = time.perf_counter()
    stream_id = await client.open_stream()
    t1 = time.perf_counter()
    calls.open_s.append(t1 - t0)
    view = memoryview(message)
    step = chunk if chunk > 0 else max(len(message), 1)
    for start in range(0, max(len(message), 1), step):
        await client.feed(stream_id, view[start:start + step])
        t2 = time.perf_counter()
        calls.feed_s.append(t2 - t1)
        t1 = t2
    digest = await client.read_digest(stream_id)
    calls.read_digest_s.append(time.perf_counter() - t1)
    return digest


async def measured_window(
    server: ServerProcess,
    load: LoadClients,
    seconds: float,
    calls: Optional[CallTimes] = None,
    tap: Optional["FrameTap"] = None,
) -> Window:
    """``stats`` before, one metered window of load, ``stats`` after.

    ``tap``, when given, counts only the load's frames, not the probes'.
    """
    before = await server.stats()
    # Let the server retire the probe connection before load resumes, so
    # a lone load connection is back on the single-connection fast path.
    await asyncio.sleep(0.05)
    meter = Meter(server.pid)
    meter.start()
    if tap is not None:
        tap.counting = True
    try:
        window = await load.run(seconds, calls)
    finally:
        if tap is not None:
            tap.counting = False
    window.meter = meter.stop()
    window.stats_before = before
    window.stats_after = await server.stats()
    return window


async def load_window(
    server: ServerProcess,
    workload: Workload,
    population: Population,
    seconds: float,
    warmup_s: float = 0.0,
    calls: Optional[CallTimes] = None,
    tap: Optional["FrameTap"] = None,
) -> Tuple[Window, Window]:
    """Open the workload's connections, warm up, measure, close.

    Returns ``(warmup, window)``.
    """
    load = LoadClients(workload, population)
    await load.connect(server.port)
    try:
        warmup = await load.run(warmup_s)
        window = await measured_window(server, load, seconds, calls, tap)
    finally:
        await load.aclose()
    return warmup, window


class FrameTap:
    """Counts every frame the client reads or writes, and its wire bytes.

    Installed by wrapping the protocol functions the client module calls,
    so the client code itself is untouched.  A connection's reader task
    is always parked inside a read, so only connections opened while the
    tap is installed read through it: open the load inside the ``with``
    block.  Frames count only while :attr:`counting` is set.  Keeps a
    sample of the frames for the protocol encode/decode timings.
    """

    SAMPLE = 64

    def __init__(self):
        self.frames = 0
        self.wire_bytes = 0
        self.samples: List[tuple] = []
        self.counting = False
        self._saved = None

    def _count(self, header: dict, payload) -> None:
        if not self.counting:
            return
        head, body = encode_frame_parts(header, payload)
        self.frames += 1
        self.wire_bytes += len(head) + len(body)
        if len(self.samples) < self.SAMPLE:
            self.samples.append((dict(header), bytes(payload)))

    def __enter__(self) -> "FrameTap":
        read_frame, write_frame = client_module.read_frame, client_module.write_frame
        self._saved = (read_frame, write_frame)

        async def tapped_read(reader, *args, **kwargs):
            header, payload = await read_frame(reader, *args, **kwargs)
            self._count(header, payload)
            return header, payload

        async def tapped_write(writer, header, payload=b""):
            self._count(header, payload)
            await write_frame(writer, header, payload)

        client_module.read_frame = tapped_read
        client_module.write_frame = tapped_write
        return self

    def __exit__(self, *_exc) -> None:
        client_module.read_frame, client_module.write_frame = self._saved
