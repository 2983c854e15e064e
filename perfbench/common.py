"""What run.py, worker.py and the task lists share.  Imported before
hopfwitt, so it must stay free of imports that would add to a worker's
set-up time."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

TASK_LIMIT_S = 10.0  # per-task limit; a task over it fails as "timeout"
MIN_PASSES = 3  # every run measures at least this many passes of its list

# The speed of the machine is measured by a fixed reference kernel between
# tasks, and every time the benchmark reports is scaled by REF_S / (the
# kernel's time next to it): "seconds on a machine where the kernel takes
# REF_S".  A shared vCPU's speed drifts with the host's load; REF_S is the
# kernel's time in a calm stretch of a 2.1 GHz Xeon vCPU with Python 3.11.7,
# where it read from 0.8 to 1.6 ms as the load changed.
REF_S = 1.1e-3
REF_CALLS = (3, 15)  # fewest and most kernel calls in one speed sample


def _kernel():
    """Pure-Python work of the kinds the library does: Fraction sums,
    big-integer products, dict updates and a sort."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i * i + 1)
    table: dict[int, int] = {}
    x = 1
    for _ in range(1500):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 96)
        table[x % 211] = table.get(x % 211, 0) + x
    rows = sorted(table.values())
    return acc, sum(rows[::3])


def speed_sample(span: float = 0.0) -> float:
    """One speed sample: the median wall time of a kernel call, over about
    one call per 15 ms of `span` (the task time the sample stands for),
    within REF_CALLS.  The collector is off while the kernel runs, so the
    size of the heap around it does not change its time."""
    calls = min(max(REF_CALLS[0], round(span / 0.015)), REF_CALLS[1])
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[calls // 2]


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    text: Callable[[object], str] = repr  # canonical form for the digest
