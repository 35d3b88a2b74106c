"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-imix --seed 1 --seconds 30 --trace 0

Workloads are defined in ``perfbench/population.py``; ``BENCHMARK.json``
lists them with the metrics.  The measured time is split into
:data:`WINDOWS` equal windows and rates are reported as the median over
windows, so one window slowed by a noisy neighbour does not move the
result.  Serve workloads start one fresh server per window.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` follows every untraced window with a traced one of the
same length, then times each layer alone, and prints the per-layer
metrics and, for serve workloads, a table of where a message's time
goes.  Human-readable lines come first; the last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``correct`` is false when any digest disagrees with the oracle, any
request fails, a server's shape is not the pinned one, or a server's
digest counter disagrees with the digests the client received.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Measured windows per run; serve workloads use one server per window,
#: and each server's spawn-to-hello time is one ``setup_s`` sample.
WINDOWS = 5
#: Seconds of load on each server before its window (warms it up).
WARMUP_S = 0.5
#: Fresh processes whose first pipeline build is one ``setup_s`` sample
#: of the bulk workload.
BUILD_PROCESSES = 7


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, nowhere else."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Inherited settings would change what is measured (backend, workers,
    # cache directory, telemetry output); the benchmark runs without them.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _median_ms(samples) -> float:
    return 1e3 * statistics.median(samples) if samples else 0.0


def _rate(windows) -> float:
    """Median verified messages per second over ``windows``."""
    return statistics.median(w.verified / w.meter.wall_s for w in windows)


class Run:
    """Counts, checks and printed lines gathered over one run."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def window_s(self) -> float:
        """Each window's length; traced runs split the time between an
        untraced and a traced window per server."""
        return self.seconds / WINDOWS / (2 if self.trace else 1)

    def count(self, label: str, window, server_cpu: bool) -> None:
        """Add a window's counts and print the host context it ran in."""
        self.attempted += window.attempted
        self.failed += window.failed
        meter = window.meter
        line = (f"window {label}: {window.verified / meter.wall_s:9.2f} msgs/s, "
                f"host.steal_share={meter.steal_share:.4f} "
                f"client.cpu_share={meter.own_cpu_s / meter.wall_s:.4f}")
        if server_cpu:
            line += f" server.cpu_share={meter.server_cpu_s / meter.wall_s:.4f}"
        print(line)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def finish(self, metrics: dict) -> int:
        correct = self.failed == 0 and self.attempted > 0 and not self.problems
        for problem in self.problems:
            print(f"CHECK FAILED: {problem}")
        print(f"error_rate {self.failed / max(self.attempted, 1):.6f} "
              f"({self.failed} failed of {self.attempted} attempted)")
        for name, m in metrics.items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }))
        return 0


def _end_to_end(setups, windows, cpu_of, rss_mib, what: str) -> dict:
    """The end-to-end metrics: rates are medians over windows, latency
    percentiles are over every message (or round) of every window."""
    from repro.serve.loadgen import percentile

    latencies = [s for w in windows for s in w.latencies_s]
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"latency per {what}: {len(latencies)} samples")
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "msgs_per_s": _metric(_rate(windows), "1/s"),
        "payload_mbit_s": _metric(statistics.median(
            8 * w.payload_bytes / w.meter.wall_s / 1e6 for w in windows), "Mbit/s"),
        "latency_p50_ms": _metric(1e3 * percentile(latencies, 50), "ms"),
        "latency_p90_ms": _metric(1e3 * percentile(latencies, 90), "ms"),
        "cpu_ms_per_msg": _metric(statistics.median(
            1e3 * cpu_of(w) / max(w.verified, 1) for w in windows), "ms"),
        "peak_rss_mib": _metric(statistics.median(rss_mib), "MiB"),
    }


def _trace_overhead(untraced, traced) -> dict:
    untraced_rate, traced_rate = _rate(untraced), _rate(traced)
    overhead = 1.0 - traced_rate / untraced_rate
    print(f"tracing overhead: {100 * overhead:.1f}% of msgs_per_s "
          f"({traced_rate:.1f} traced vs {untraced_rate:.1f} untraced)")
    return {"trace.overhead_share": _metric(overhead, "share")}


def _host_metrics(run: Run, windows) -> dict:
    return {
        "client.cpu_share": _metric(statistics.median(
            w.meter.own_cpu_s / w.meter.wall_s for w in windows), "share"),
        "host.steal_share": _metric(statistics.median(
            w.meter.steal_share for w in windows), "share"),
        "error_rate": _metric(run.failed / max(run.attempted, 1), "share"),
    }


def _pipeline_metrics(times) -> dict:
    kib = times.payload_bytes / 1024
    return {
        "pipeline.open_us": _metric(1e6 * times.open_s / times.messages, "us"),
        "pipeline.feed_us_per_kib": _metric(1e6 * times.feed_s / kib, "us/KiB"),
        "pipeline.pump_us_per_block": _metric(
            1e6 * (times.pump_s - times.kernel_s) / times.blocks
            if times.blocks else 0.0, "us"),
        "pipeline.finalize_us_per_msg": _metric(
            1e6 * times.finalize_s / times.messages, "us"),
        "pipeline.blocks_per_msg": _metric(times.blocks / times.messages, "blocks/msg"),
        "gf2.kernel_share": _metric(times.kernel_s / times.engine_s, "share"),
    }


def _shared_layer_metrics() -> dict:
    """Layers every workload reports, timed alone in this process."""
    from perfbench import layers

    probe_s, distinct = layers.planner_probe()
    return {
        "microbatch.handoff_us": _metric(layers.microbatch_handoff_us(), "us"),
        "gf2.matvec_us_w1": _metric(layers.matvec_us(1), "us"),
        "gf2.matvec_us_w256": _metric(layers.matvec_us(256), "us"),
        "compile.pipeline_build_s": _metric(layers.compile_build_s(), "s"),
        "planner.probe_s": _metric(probe_s, "s"),
        "planner.distinct_plans": _metric(distinct, "count"),
    }


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
async def _serve_session(spawner, run: Run) -> dict:
    from perfbench.population import make_population
    from perfbench.serve_load import CallTimes, FrameTap, load_window

    workload = run.workload
    population = make_population(workload, run.seed)
    servers, setups = [], []
    for i in range(WINDOWS):
        server = spawner.new()
        setups.append(await server.start())
        servers.append(server)
        problems = server.shape_problems()
        run.check(not problems, f"server {i} shape differs: {', '.join(problems)}")
        print(f"server {i}: setup {setups[-1]:.4f} s, shape {server.shape}")

    session = {"population": population, "setups": setups, "untraced": [],
               "traced": [], "rss": [], "tap": FrameTap(), "calls": CallTimes()}
    for i, server in enumerate(servers):
        warmup, window = await load_window(
            server, workload, population, run.window_s, warmup_s=WARMUP_S)
        run.check(warmup.failed == 0, f"{warmup.failed} failures during warm-up")
        session["untraced"].append(window)
        run.count(f"{i}", window, server_cpu=True)
        if run.trace:
            with session["tap"] as tap:
                _, window = await load_window(
                    server, workload, population, run.window_s,
                    calls=session["calls"], tap=tap)
            session["traced"].append(window)
            run.count(f"{i} traced", window, server_cpu=True)
        session["rss"].append(server.peak_rss_mib())
        server.stop()
    for window in session["untraced"] + session["traced"]:
        delta = window.counter_delta("digests_total")
        run.check(delta == window.digests_received,
                  f"server counted {delta} digests, client received "
                  f"{window.digests_received}")
    return session


def run_serve(run: Run) -> int:
    from perfbench.serve_load import Spawner

    workload = run.workload
    print(f"workload {workload.name} seed {run.seed}: closed loop, "
          f"{workload.connections} connection(s), "
          f"{workload.chunk_bytes or 'whole'}-byte feeds, "
          f"{WINDOWS} windows of {run.window_s:g} s")
    with Spawner(ROOT) as spawner:
        session = asyncio.run(_serve_session(spawner, run))
    if not run.trace:
        return run.finish(_end_to_end(
            session["setups"], session["untraced"],
            lambda w: w.meter.server_cpu_s, session["rss"], "message"))
    return run.finish(_serve_layers(run, session))


def _serve_layers(run: Run, session: dict) -> dict:
    from perfbench import layers
    from perfbench.engine_load import replay_serve
    from repro.serve.loadgen import percentile

    untraced, traced = session["untraced"], session["traced"]
    tap, calls = session["tap"], session["calls"]
    times, replay_failed = replay_serve(run.workload, session["population"])
    run.attempted += times.messages
    run.failed += replay_failed
    encode_us, decode_us = layers.protocol_us(tap.samples)
    traced_msgs = sum(w.attempted for w in traced)
    frames_per_msg = tap.frames / traced_msgs
    messages = sum(w.verified for w in untraced)
    batches = sum(w.batch_delta("batches") for w in untraced)

    def total(counter):
        return sum(w.counter_delta(counter) for w in untraced)

    metrics = {
        "client.open_stream_ms_p50": _metric(_median_ms(calls.open_s), "ms"),
        "client.feed_ms_p50": _metric(_median_ms(calls.feed_s), "ms"),
        "client.read_digest_ms_p50": _metric(_median_ms(calls.read_digest_s), "ms"),
        "client.frames_per_msg": _metric(frames_per_msg, "frames/msg"),
        "client.wire_bytes_per_msg": _metric(tap.wire_bytes / traced_msgs, "B/msg"),
        "protocol.encode_us_per_frame": _metric(encode_us, "us"),
        "protocol.decode_us_per_frame": _metric(decode_us, "us"),
        "server.cpu_share": _metric(statistics.median(
            w.meter.server_cpu_s / w.meter.wall_s for w in untraced), "share"),
        "server.digests_delta": _metric(total("digests_total"), "count"),
        "server.backpressure_pauses": _metric(total("backpressure_pauses_total"), "count"),
        "server.errors_delta": _metric(
            total("protocol_errors_total") + total("stream_errors_total"), "count"),
        "microbatch.mean_occupancy": _metric(
            sum(w.batch_delta("ops") for w in untraced) / batches if batches else 0.0,
            "ops/round"),
        "microbatch.rounds_per_msg": _metric(batches / max(messages, 1), "rounds/msg"),
    }
    print(f"server.digests_delta {total('digests_total')} = client verified {messages}")
    metrics.update(_pipeline_metrics(times))
    metrics.update(_shared_layer_metrics())

    p50_ms = 1e3 * percentile([s for w in untraced for s in w.latencies_s], 50)
    shares = {
        "engine": 1e3 * times.engine_s / times.messages / p50_ms,
        "protocol": frames_per_msg * (encode_us + decode_us) / 1e3 / p50_ms,
    }
    shares["unattributed"] = 1.0 - shares["engine"] - shares["protocol"]
    print(f"where a message's time goes ({run.workload.name}, untraced latency "
          f"p50 {p50_ms:.3f} ms, {frames_per_msg:.2f} frames/msg):")
    print(f"  {'layer':14s} {'ms/msg':>9s} {'share':>8s}")
    for name, share in shares.items():
        print(f"  {name:14s} {share * p50_ms:9.4f} {100 * share:7.1f}%")
        metrics[f"budget.{name}_share"] = _metric(share, "share")
    metrics.update(_trace_overhead(untraced, traced))
    metrics.update(_host_metrics(run, untraced))
    return metrics


# ----------------------------------------------------------------------
# Bulk workload
# ----------------------------------------------------------------------
#: Serve-path layers that do not run in the bulk workload; its traced
#: run reports them as 0.
SERVE_ONLY = {
    "client.open_stream_ms_p50": "ms", "client.feed_ms_p50": "ms",
    "client.read_digest_ms_p50": "ms", "client.frames_per_msg": "frames/msg",
    "client.wire_bytes_per_msg": "B/msg",
    "protocol.encode_us_per_frame": "us", "protocol.decode_us_per_frame": "us",
    "server.cpu_share": "share", "server.digests_delta": "count",
    "server.backpressure_pauses": "count", "server.errors_delta": "count",
    "microbatch.mean_occupancy": "ops/round", "microbatch.rounds_per_msg": "rounds/msg",
    "budget.engine_share": "share", "budget.protocol_share": "share",
    "budget.unattributed_share": "share",
}


def run_bulk(run: Run) -> int:
    from perfbench.engine_load import (
        PhaseTimes, build_pipeline, first_build_s, run_rounds)
    from perfbench.host import Meter, peak_rss_mib
    from perfbench.population import make_population

    workload = run.workload
    print(f"workload {workload.name} seed {run.seed}: in-process, rounds of "
          f"{workload.round_size} messages, {WINDOWS} windows of {run.window_s:g} s")
    population = make_population(workload, run.seed)
    setups = [first_build_s(ROOT) for _ in range(BUILD_PROCESSES)]
    pipeline = build_pipeline()
    warmup = run_rounds(pipeline, workload, population, WARMUP_S)
    run.check(warmup.failed == 0, f"{warmup.failed} failures during warm-up")
    rounds = len(warmup.latencies_s)
    untraced, traced, times = [], [], PhaseTimes()

    def window(label, phase_times=None):
        nonlocal rounds
        meter = Meter()
        meter.start()
        result = run_rounds(pipeline, workload, population, run.window_s,
                            times=phase_times, start_round=rounds)
        result.meter = meter.stop()
        rounds += len(result.latencies_s)
        run.count(label, result, server_cpu=False)
        return result

    for i in range(WINDOWS):
        untraced.append(window(f"{i}"))
        if run.trace:
            traced.append(window(f"{i} traced", times))
    run.check(pipeline.stream_count == 0,
              f"{pipeline.stream_count} streams left open after the windows")
    if not run.trace:
        return run.finish(_end_to_end(
            setups, untraced, lambda w: w.meter.own_cpu_s,
            [peak_rss_mib(os.getpid())], f"round of {workload.round_size}"))

    print(f"not applicable to {workload.name} (reported as 0): "
          f"{', '.join(SERVE_ONLY)}")
    metrics = {name: _metric(0.0, unit) for name, unit in SERVE_ONLY.items()}
    metrics.update(_pipeline_metrics(times))
    metrics.update(_shared_layer_metrics())
    metrics.update(_trace_overhead(untraced, traced))
    metrics.update(_host_metrics(run, untraced))
    return run.finish(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.population import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    # The run, and every server it starts, stays on one CPU (see README).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Turn SIGTERM into an exception so every server child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if run.workload.kind == "serve":
        return run_serve(run)
    return run_bulk(run)


if __name__ == "__main__":
    sys.exit(main())
