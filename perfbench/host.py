"""Readings from ``/proc``: process CPU and memory, host steal time."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of every thread of ``pid``."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may hold spaces; fields resume after its ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")


def _cpu_ticks():
    with open("/proc/stat") as handle:
        values = [int(v) for v in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest is inside user)
    return sum(values[:8]), values[7]


@dataclass
class Meter:
    """CPU and wall readings over one measured window."""

    server_pid: int = 0

    def start(self) -> None:
        self._wall = time.perf_counter()
        self._own = time.process_time()
        self._server = process_cpu_s(self.server_pid) if self.server_pid else 0.0
        self._ticks = _cpu_ticks()

    def stop(self) -> "MeterReading":
        wall = time.perf_counter() - self._wall
        own = time.process_time() - self._own
        server = (
            process_cpu_s(self.server_pid) - self._server if self.server_pid else 0.0
        )
        total, steal = _cpu_ticks()
        d_total = total - self._ticks[0]
        d_steal = steal - self._ticks[1]
        return MeterReading(
            wall_s=wall,
            own_cpu_s=own,
            server_cpu_s=server,
            steal_share=d_steal / d_total if d_total > 0 else 0.0,
        )


@dataclass
class MeterReading:
    wall_s: float
    own_cpu_s: float
    server_cpu_s: float
    steal_share: float
