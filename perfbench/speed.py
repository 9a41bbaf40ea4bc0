"""Machine-speed reference: fixed work timed between measured calls.

On a shared box the same code runs up to ~1.9x faster or slower from one
minute to the next, as neighbours come and go.  A run's median cannot
remove drift that is slower than the run, so every timing is also scaled
by the machine speed measured next to it: a *pulse* is a fixed mix of
Python object churn, small numpy calls and small GEMMs (the mix the
program's hot paths spend their time in), and a sample taken while
pulses take ``t`` seconds is multiplied by ``NOMINAL / t``.  The result
reads as "seconds on a machine where one pulse takes 1 ms".  The pulse
is benchmark code and never calls the program, so a change to the
program cannot move it; raw timings are kept beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

#: Seconds one pulse takes on the nominal machine.
NOMINAL = 1e-3


class _Item:
    __slots__ = ("key", "cost")

    def __init__(self, key: int, cost: int) -> None:
        self.key = key
        self.cost = cost


class Reference:
    """The fixed reference work; ``pulse()`` runs it once and times it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20230417)
        self._a = rng.random((64, 288), dtype=np.float32)
        self._b = rng.random((288, 64), dtype=np.float32)
        self._c = rng.random((128, 576), dtype=np.float32)
        self._d = rng.random((576, 128), dtype=np.float32)
        self._small = [rng.random(16, dtype=np.float32) for _ in range(8)]

    def _work(self) -> None:
        table, items = {}, []
        for key in range(400):
            item = _Item(key, key * 2)
            table[key % 31] = table.get(key % 31, 0) + item.key
            items.append(item)
        items.sort(key=lambda item: -item.cost)
        for index in range(60):
            vector = np.zeros(16, dtype=np.float32)
            vector += self._small[index % 8]
            vector = vector * 2.0
            vector[3:7] = 1.0
            np.maximum(vector, 0.0, out=vector)
        for _ in range(3):
            self._a @ self._b
        self._c @ self._d

    def pulse(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    def probe(self, count: int) -> List[float]:
        return [self.pulse() for _ in range(count)]


def factor(pulses: Sequence[float]) -> float:
    """Scale that maps a raw timing taken among ``pulses`` to nominal speed."""
    return NOMINAL / statistics.median(pulses)
