"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts with
what other tenants run: the same exam op takes 1.1 s in one minute and 2 s
in the next, with CPU time equal to wall time, so neither more samples nor
CPU time take the drift out. Two fixed kernels written here, which call no
examgraph code, are timed before and after each op (or each round of ops),
and a timing is reported as

    wall seconds x reference seconds of the kernel / kernel seconds measured

that is, as the time the op would take on a host running the kernel in its
reference time. A change to examgraph moves the op and not the kernel, so it
moves the scaled timing by the same share as the wall time.

``graph`` mimics ranking and generation: dict-of-floats power iteration,
sorting with tuple keys, f-strings and JSON. ``table`` mimics the item
statistics: builtin sums over many short int lists, a keyed sort and
indexing. Each workload maps each op to the kernel that tracks it.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
from time import perf_counter

# seconds per kernel on a fast stretch of a 2-CPU shared x86-64 host
# (Python 3.11); only fixes the scale of the reported timings
REFERENCE_S = {"graph": 0.0085, "table": 0.0100}
REPEATS = 3  # runs per kernel per calibration point; the median is kept


class Calibrator:
    """Fixed kernel inputs, built once from a fixed seed."""

    def __init__(self):
        rng = random.Random(7)
        self.nodes = [f"n{i:04d}" for i in range(1200)]
        self.edges = {n: rng.sample(self.nodes, 2) for n in self.nodes}
        self.ids = [f"p{i:04d}" for i in range(400)]
        self.rows = [[rng.randrange(2) for _ in range(480)] for _ in self.ids]

    def _graph(self) -> int:
        nodes, edges = self.nodes, self.edges
        rank = {n: 1.0 / len(nodes) for n in nodes}
        for _ in range(12):
            following = dict.fromkeys(nodes, 0.15 / len(nodes))
            for node, targets in edges.items():
                share = 0.85 * rank[node] / len(targets)
                for target in targets:
                    following[target] += share
            rank = following
        top = sorted(rank.items(), key=lambda kv: (-kv[1], kv[0]))[:200]
        text = json.dumps([{"id": k, "text": f"The {k} supports the {k[::-1]}.",
                            "w": v} for k, v in top], sort_keys=True)
        return len(json.loads(text)) + sum(len(s.split()) for s in text.split(","))

    def _table(self) -> float:
        ids, rows = self.ids, self.rows
        acc = 0.0
        for column in (0, 160, 320):
            totals = {pid: sum(row) for pid, row in zip(ids, rows)}
            ranked = sorted(ids, key=lambda pid: (-totals[pid], pid))
            by_id = dict(zip(ids, rows))
            acc += sum(by_id[pid][column] for pid in ranked[:100]) / 100
        return acc

    def measure(self) -> dict[str, float]:
        """Median seconds of each kernel now. The collector is off while a
        kernel runs, so the program's live heap does not slow it."""
        speed = {}
        for name, kernel in (("graph", self._graph), ("table", self._table)):
            times = []
            for _ in range(REPEATS):
                gc.disable()
                try:
                    start = perf_counter()
                    kernel()
                    times.append(perf_counter() - start)
                finally:
                    gc.enable()
            speed[name] = statistics.median(times)
        return speed


def scale(kernel: str, before: dict[str, float], after: dict[str, float]) -> float:
    """Factor from wall time to reference time for a timing taken between
    the calibration points ``before`` and ``after``."""
    return REFERENCE_S[kernel] / ((before[kernel] + after[kernel]) / 2)
