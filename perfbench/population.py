"""Workload definitions and their seeded message populations.

Every message and its expected digest are made here, before any clock
starts.  Expected digests come from :class:`repro.crc.TableCRC`, a
byte-table serial engine that shares none of the look-ahead pipeline,
batcher or server code the benchmark measures.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.crc import TableCRC, get
from repro.serve.loadgen import IMIX_MIX

#: The standard and look-ahead factor every workload runs: the M=1024
#: shape the serve smoke test validates.
STANDARD = "CRC-32"
M = 1024


@dataclass(frozen=True)
class Workload:
    """One named traffic mix.

    ``sizes`` is a ``((bytes, weight), ...)`` mix.  Serve workloads drive
    ``connections`` closed-loop clients, each feeding a message in
    ``chunk_bytes`` pieces (0 = one feed per message).  The bulk workload
    runs in-process, ``round_size`` messages per ``finalize_many`` round.
    ``population`` distinct messages are generated; the load cycles
    through them.
    """

    name: str
    kind: str  # "serve" or "bulk"
    sizes: Tuple[Tuple[int, int], ...]
    population: int
    connections: int = 0
    chunk_bytes: int = 0
    round_size: int = 0
    #: messages the traced run replays in-process through CRCPipeline
    replay: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # Short messages: per-message control cost dominates, and two
        # connections push every op through the micro-batcher.
        Workload("serve-imix", "serve", IMIX_MIX, population=4096,
                 connections=2, replay=2048),
        # Jumbo frames fed in MTU chunks: the engine pump and streaming
        # feed path dominate; a lone connection bypasses the batcher.
        Workload("serve-jumbo-chunked", "serve", ((9000, 1),), population=64,
                 connections=1, chunk_bytes=1500, replay=64),
        # No network: only the pipeline and the GF(2) kernel run.
        Workload("bulk-mtu", "bulk", ((1518, 1),), population=1024,
                 round_size=256),
    )
}


@dataclass
class Population:
    """Messages plus the oracle digest of each."""

    messages: List[bytes]
    digests: List[int]

    @property
    def payload_bytes(self) -> int:
        return sum(len(m) for m in self.messages)

    def fingerprint(self) -> str:
        """A hash over every message, in order (equal iff same population)."""
        h = hashlib.sha256()
        for message in self.messages:
            h.update(len(message).to_bytes(4, "big"))
            h.update(message)
        return h.hexdigest()


def make_population(workload: Workload, seed: int) -> Population:
    """The workload's messages for ``seed``; the same seed, the same bytes.

    Sizes follow the mix exactly: every run of ``sum(weights)`` messages
    holds each size as many times as its weight, in seeded order.  Any
    stretch of the load then carries the stated mix, so the seed changes
    the bytes and the order but not the amount of work.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    block = [n for n, weight in workload.sizes for _ in range(weight)]
    sizes: List[int] = []
    while len(sizes) < workload.population:
        rng.shuffle(block)
        sizes.extend(block)
    messages = [rng.randbytes(n) for n in sizes[:workload.population]]
    oracle = TableCRC(get(STANDARD))
    return Population(messages, [oracle.compute(m) for m in messages])
