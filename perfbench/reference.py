"""A fixed yardstick for the host's speed.

The benchmark runs on shared hosts whose CPU speed drifts by tens of
percent over minutes, and a slowdown that lasts a whole run survives
every fastest-repeat estimator.  The yardstick is a fixed piece of pure
Python, owned by the benchmark and never by the program, that the
workloads run between their own timed work.  Its fastest time in a run
says how fast the host was during that run, so a CPU-bound time is
reported scaled to the pinned yardstick speed::

    scaled = measured * REFERENCE_S / yardstick

i.e. the seconds the work would have taken on a host where the
yardstick takes :data:`REFERENCE_S` (a rate is multiplied by
``yardstick / REFERENCE_S``).  A program change moves a scaled time
exactly as it moves the measured one; a host that runs everything 20%
slower for a whole run does not.

The yardstick mixes what the program's own hot paths do: small slotted
objects grouped in dicts and sorted as tuples (the composition model),
plain integer arithmetic (geometry), and an AST round trip, a diff and
a deep copy for a wide instruction footprint.  Each kernel runs with
the cyclic garbage collector off, after a collection, so every call
does the same work.
"""

from __future__ import annotations

import ast
import copy
import difflib
import gc
import random
import time

#: The yardstick's fastest time on the host the benchmark was
#: calibrated on (a 2-vCPU Intel Xeon VM, Python 3.11): scaled times
#: are seconds on a host this fast.
REFERENCE_S = 0.070


class _Node:
    __slots__ = ("x", "y", "name", "links")

    def __init__(self, x: int, y: int, name: str) -> None:
        self.x = x
        self.y = y
        self.name = name
        self.links: list[tuple[int, int]] = []


def _objects() -> int:
    rng = random.Random(1)
    groups: dict[str, list[_Node]] = {}
    nodes: list[_Node] = []
    for i in range(20000):
        node = _Node(rng.randrange(1000), rng.randrange(1000), f"n{i % 2000}")
        nodes.append(node)
        groups.setdefault(node.name, []).append(node)
        if i % 3 == 0:
            nodes[rng.randrange(len(nodes))].links.append((node.x, node.y))
    ordered = sorted((n.x + 1, n.y * 2, n.name) for n in nodes)
    return len(ordered) + sum(len(g) for g in groups.values())


def _arithmetic() -> int:
    total = 0
    for i in range(400000):
        total += i * i % 7
    return total


_rng = random.Random(2)
_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n"
    f"    if a > {i}:\n"
    f"        return [a * k for k in range(b[0]) if k % 3]\n"
    f"    return {{'k': a, 'v': b}}\n"
    for i in range(120)
)
_TREE = ast.parse(_SOURCE)
_LINES_A = [f"line {_rng.randrange(300)} {_rng.randrange(9)}" for _ in range(700)]
_LINES_B = [x if _rng.random() < 0.8 else x + "!" for x in _LINES_A]
_NESTED = {f"k{i}": [(i, j, f"s{j}") for j in range(20)] + [{"a": i, "b": [i] * 5}]
           for i in range(300)}


def _mixed() -> None:
    for _ in range(2):
        ast.unparse(_TREE)
    difflib.SequenceMatcher(None, _LINES_A, _LINES_B).ratio()
    copy.deepcopy(_NESTED)


KERNELS = (_objects, _arithmetic, _mixed)


class Yardstick:
    """Times the yardstick's kernels each time :meth:`sample` runs; the
    fastest of each kernel over a run, summed, is the run's
    :meth:`seconds`."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []  # samples[k][kernel]

    def sample(self) -> None:
        times = []
        enabled = gc.isenabled()
        for kernel in KERNELS:
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
            finally:
                if enabled:
                    gc.enable()
        self.samples.append(times)

    def seconds(self) -> float:
        return sum(min(kernel) for kernel in zip(*self.samples))

    def scale(self, measured: float) -> float:
        """``measured`` seconds as seconds on a host running the
        yardstick in :data:`REFERENCE_S`."""
        return measured * REFERENCE_S / self.seconds()
