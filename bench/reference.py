"""A fixed reference workload that measures how fast the host runs right now.

On a shared host the same operation on the same input can take 1.8x as
long from one minute to the next, as other guests contend for the
physical cores, and the slow spells last from seconds to minutes. Raw
wall times then measure the neighbours more than the program. The
benchmark therefore times a fixed walk on the same CPU right before and
right after every timed operation, or while the CLI fit's child runs, and
reports the operation's time scaled to a host on which that walk takes
its nominal time.

The walk does the kind of work the program spends its time on: a
recursive descent of a binary tree of Python objects, with a numpy mask
per split node, as in ``partition.locate_batch``. Walking one point is
mostly interpreter work and tracks single-point queries, loads and fits;
walking a batch of points is mostly work on large arrays and tracks batch
queries, which a slow spell slows less. Tree and points are drawn here,
from a fixed seed, so no change to the program can change the walk.
"""

from __future__ import annotations

import time

import numpy as np

DEPTH = 8
DIMENSION = 2


class Reference:
    """A walk of ``points`` points whose nominal time is ``nominal_s``.

    The nominal times are about the walks' median times on the machine the
    reference figures in README.md come from (a 2.1 GHz Xeon vCPU, Python
    3.11, numpy 2.4); they set the scale of the reported times only.
    """

    def __init__(self, points: int, nominal_s: float) -> None:
        self.nominal_s = nominal_s
        rng = np.random.default_rng(0)

        def build(depth: int):
            if depth == 0:
                return None
            return (int(rng.integers(DIMENSION)), float(rng.random()),
                    build(depth - 1), build(depth - 1))

        self.root = build(DEPTH)
        self.points = rng.random((points, DIMENSION))

    def _walk(self) -> None:
        points = self.points

        def assign(node, idx: np.ndarray) -> None:
            if node is not None:
                dim, threshold, left, right = node
                go_left = points[idx, dim] < threshold
                assign(left, idx[go_left])
                assign(right, idx[~go_left])

        assign(self.root, np.arange(points.shape[0]))

    def slowdown(self, walks: int) -> float:
        """The time of ``walks`` walks over their nominal time."""
        start = time.perf_counter()
        for _ in range(walks):
            self._walk()
        return (time.perf_counter() - start) / (walks * self.nominal_s)


def timed(reference: Reference, walks: int, fn, *args):
    """Call ``fn(*args)``; its value, wall time and the slowdown around it.

    The slowdown is the mean of ``walks`` walks right before and as many
    right after the call.
    """
    before = reference.slowdown(walks)
    start = time.perf_counter()
    value = fn(*args)
    wall = time.perf_counter() - start
    after = reference.slowdown(walks)
    return value, wall, (before + after) / 2.0
