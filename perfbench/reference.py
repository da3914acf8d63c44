"""A fixed piece of work whose time tracks the speed of the machine.

On a shared host the same code ran up to 1.7x slower for minutes at a
time, while other tenants loaded the CPU. The benchmark times ``work``
between inputs and scales its end-to-end timings by ``REFERENCE_S`` over
the run's reference time, so that runs made while the host was slow and
while it was fast read alike. ``work`` uses neither circlet nor the
workload's inputs, so a change to the program's speed passes through the
scaling unchanged. Its mix follows the program's: dicts and sets of
frozensets, small-integer arithmetic, and XOR row reduction on a small
numpy uint64 matrix.
"""

from __future__ import annotations

import random
import time

import numpy as np

# The 10th percentile of the time of one call of ``work`` over a run, as
# measured on the host the bounds were set on (2 vCPUs of an Intel Xeon,
# Python 3.11.7, numpy 2.4). Scaled timings read as seconds on
# that host at that speed.
REFERENCE_S = 0.0015

_rng = random.Random(0)
_CELLS = [frozenset(_rng.sample(range(400), 6)) for _ in range(240)]
_ROWS = np.random.default_rng(0).integers(0, 2**63, size=(48, 4), dtype=np.uint64)
_ONE = np.uint64(1)


def work() -> int:
    index: dict[int, list[int]] = {}
    for i, cell in enumerate(_CELLS):
        for v in cell:
            index.setdefault(v, []).append(i)
    sizes = sorted(len(frozenset().union(*(_CELLS[j] for j in js))) for js in index.values())
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    rows = _ROWS.copy()
    for i in range(len(rows)):
        hit = (rows[:, 0] >> np.uint64(i)) & _ONE == _ONE
        hit[i] = False
        rows[hit] ^= rows[i]
    return acc + sizes[-1] + int(rows[-1, 0] & _ONE)


def times(n: int) -> list[float]:
    """Seconds taken by each of n calls of ``work``."""
    out = []
    for _ in range(n):
        start = time.perf_counter()
        work()
        out.append(time.perf_counter() - start)
    return out
