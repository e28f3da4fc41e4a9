"""A fixed piece of work, timed around the ops: how fast the core runs now.

On a shared host the pinned core's speed moves by tens of percent, within
seconds and between minutes, while other tenants share its caches and
memory: the same build's CPU time moved by 20-35% between runs of the
same code.  So the benchmark times this yardstick right before and after
each op and, in a ``Sampler`` thread, while it runs (for the query
workloads: between the queries of each pass), and reports the op's CPU
time scaled to a reference speed:

    reported = CPU time * REF_S[part] / (yardstick time of the part)

with the four parts combined by a geometric mean and each part's time the
median of its samples.  A change that makes the program slower slows its
ops and not the yardstick, so it still shows; a slow window of the host
slows both.  The parts use no code of the program: an interpreter loop
with a small heap (like top-k selection), dict and tuple allocation,
numpy sorting and searching, and pyarrow string splitting and counting.
Each part takes about REF_S on a quiet core of a 4-vCPU Xeon VM.
"""

from __future__ import annotations

import heapq
import math
import statistics
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

REF_S = {"heap": 0.002, "alloc": 0.002, "numpy": 0.002, "arrow": 0.002}

_rng = np.random.default_rng(0)
_INTS = _rng.integers(0, 1 << 40, 40_000)
_TEXT = pa.array([" ".join(f"w{j}" for j in _rng.integers(0, 3000, 40))
                  for _ in range(400)])


def _heap() -> None:
    top: list = []
    for i in range(7_800):
        s = (i * 2654435761) % 1000003 / 7.0
        if len(top) < 10:
            heapq.heappush(top, (s, i))
        elif s > top[0][0]:
            heapq.heapreplace(top, (s, i))


def _alloc() -> None:
    d = {f"k{i}": (i, float(i)) for i in range(3_300)}
    acc = 0
    for i in range(4_700):
        acc += i * i
    del d


def _numpy() -> None:
    a = np.sort(_INTS)
    np.searchsorted(a, _INTS[:6_500])
    np.cumsum(a % 97)


def _arrow() -> None:
    words = pc.list_flatten(pc.utf8_split_whitespace(_TEXT))
    pc.sort_indices(pc.value_counts(words).field("counts"))


PARTS = {"heap": _heap, "alloc": _alloc, "numpy": _numpy, "arrow": _arrow}


def sample() -> dict[str, float]:
    """CPU seconds of this thread for each part, run once."""
    out = {}
    for name, fn in PARTS.items():
        t = time.thread_time()
        fn()
        out[name] = time.thread_time() - t
    return out


def speed(samples: list[dict]) -> float:
    """Reference time over measured time: below 1 when the core runs
    slower than the reference."""
    return math.exp(statistics.fmean(
        math.log(REF_S[name] / statistics.median(s[name] for s in samples))
        for name in PARTS))


class Sampler(threading.Thread):
    """Takes a sample every ``every`` seconds until ``stop()``, alongside
    an op that runs in this process and in others.  ``cpu_s`` is the
    thread's own CPU time, which the op's CPU time must not include."""

    def __init__(self, every: float) -> None:
        super().__init__(daemon=True)
        self.every = every
        self.samples: list[dict] = []
        self.cpu_s = 0.0
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(self.every):
            self.samples.append(sample())
        self.cpu_s = time.thread_time()

    def stop(self) -> list[dict]:
        self._done.set()
        self.join()
        return self.samples
