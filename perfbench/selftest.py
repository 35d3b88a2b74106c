"""Self-tests of the benchmark: it must catch wrong digests and be repeatable.

Run from the repository root (about 20 seconds)::

    python3 perfbench/selftest.py

* A corrupted expected digest must count as a failure, in a serve window
  against a real server and in a bulk round, and turn ``correct`` false.
* The same seed must give the same message population and the same
  exact counts (``client.frames_per_msg``, ``pipeline.blocks_per_msg``).
* A different seed must give a different population.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench.engine_load import build_pipeline, replay_serve, run_rounds  # noqa: E402
from perfbench.population import WORKLOADS, make_population  # noqa: E402
from perfbench.serve_load import FrameTap, Spawner, load_window  # noqa: E402

WINDOW_S = 0.5


def _corrupt(population, index: int = 0):
    population.digests[index] ^= 1
    return population


async def _serve_window(workload, population, tap=None):
    """One short window against a fresh pinned server."""
    with Spawner(ROOT) as spawner:
        server = spawner.new()
        await server.start()
        with tap if tap is not None else contextlib.nullcontext():
            _, window = await load_window(server, workload, population, WINDOW_S, tap=tap)
        return window


def _finish_json(run) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.finish({})
    return json.loads(out.getvalue().splitlines()[-1])


class CorruptedDigestCounts(unittest.TestCase):
    def test_serve_window_counts_the_mismatch(self):
        workload = WORKLOADS["serve-imix"]
        population = _corrupt(make_population(workload, 1))
        window = asyncio.run(_serve_window(workload, population))
        self.assertGreaterEqual(window.failed, 1)
        self.assertEqual(window.verified + window.failed, window.attempted)
        run = bench.Run(workload, 1, WINDOW_S, trace=False)
        run.attempted, run.failed = window.attempted, window.failed
        result = _finish_json(run)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], window.failed)

    def test_bulk_round_counts_the_mismatch(self):
        workload = WORKLOADS["bulk-mtu"]
        population = _corrupt(make_population(workload, 1))
        window = run_rounds(build_pipeline(), workload, population, 0.01)
        self.assertEqual(window.failed, 1)
        self.assertEqual(window.verified, window.attempted - 1)

    def test_clean_run_is_correct(self):
        run = bench.Run(WORKLOADS["bulk-mtu"], 1, WINDOW_S, trace=False)
        run.attempted = 10
        self.assertTrue(_finish_json(run)["correct"])


class SeedsAreRepeatable(unittest.TestCase):
    def test_same_seed_same_population_and_counts(self):
        for name in ("serve-imix", "serve-jumbo-chunked", "bulk-mtu"):
            workload = WORKLOADS[name]
            first, second = make_population(workload, 7), make_population(workload, 7)
            self.assertEqual(first.fingerprint(), second.fingerprint(), name)
            self.assertEqual(first.digests, second.digests, name)
            if workload.kind == "serve":
                a, _ = replay_serve(workload, first)
                b, _ = replay_serve(workload, second)
                self.assertEqual((a.blocks, a.messages), (b.blocks, b.messages), name)

    def test_same_seed_same_frames_per_message(self):
        for name, frames in (("serve-imix", 6), ("serve-jumbo-chunked", 16)):
            workload = WORKLOADS[name]
            counts = []
            for _ in range(2):
                tap = FrameTap()
                window = asyncio.run(
                    _serve_window(workload, make_population(workload, 7), tap))
                self.assertEqual(window.failed, 0)
                counts.append(tap.frames / window.attempted)
            self.assertEqual(counts, [frames, frames], name)

    def test_different_seed_changes_population(self):
        for name, workload in WORKLOADS.items():
            self.assertNotEqual(make_population(workload, 1).fingerprint(),
                                make_population(workload, 2).fingerprint(), name)


if __name__ == "__main__":
    unittest.main()
