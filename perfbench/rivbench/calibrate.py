"""Host-speed calibration: report host timings at a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by a quarter or
more over tens of seconds (neighbouring load), which would swamp any
change a pull request makes. So every repetition is bracketed by a fixed
pure-Python reference kernel that shares no code with the program: a
small heap-driven message loop over slotted objects and dicts, the same
kind of interpreter work the simulator does. Simulator host timings are
scaled by ``kernel time / REFERENCE_KERNEL_S``, i.e. reported as they would
read on a host that runs the kernel in exactly ``REFERENCE_KERNEL_S``. The
raw figures are printed alongside.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Reference kernel time (seconds); the scale the normalized figures use.
REFERENCE_KERNEL_S = 0.060


class _Node:
    __slots__ = ("name", "count", "peers")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.peers: dict[str, int] = {}

    def deliver(self, message: tuple[str, int]) -> None:
        self.count += 1
        self.peers[message[0]] = self.peers.get(message[0], 0) + message[1]


def kernel(n: int = 60_000) -> int:
    """The reference work: ``n`` heap pushes, deliveries and dict updates."""
    nodes = [_Node(f"n{i}") for i in range(16)]
    heap: list = []
    now = 0.0
    for i in range(n):
        heapq.heappush(heap, (now + (i * 7919 % 1000) / 1000.0, i, nodes[i & 15]))
        if len(heap) > 64:
            when, j, node = heapq.heappop(heap)
            node.deliver((f"k{j & 63}", j))
            now = when
    return sum(node.count for node in nodes)


class Speedometer:
    """Times the kernel between repetitions; yields per-repetition factors."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        gc.collect()
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def slowdown(self) -> float:
        """Host slowdown over the last two samples (> 1: slower than reference)."""
        return (self.samples[-1] + self.samples[-2]) / 2 / REFERENCE_KERNEL_S
