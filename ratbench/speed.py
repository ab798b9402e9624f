"""Machine-speed reference: calibrates time metrics against host drift.

On a shared virtual machine the speed of a vCPU moves by tens of percent
over minutes as other tenants load the host, and every time metric moves
with it. The harness therefore interleaves a fixed reference task with the
documents, in time proportional to the documents' own (``DUTY``), and
scales every per-document time by ``REFERENCE_S / mean reference time`` of
the same run. The reported times are then in milliseconds at the machine
speed where the reference task takes ``REFERENCE_S``. The raw times are
kept in the result's context line.

The task is exact rational Gaussian elimination in plain Python, the kind
of interpreter work ratspec does, but it uses no ratspec code, so a change
to the program leaves it unchanged. It allocates no reference cycles and
runs with the garbage collector paused, so the program's heap does not
change its cost either.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# reference-task time at which calibrated and raw times agree: about the
# task's mean on a 2-vCPU Xeon VM with Python 3.11.7
REFERENCE_S = 0.002
# reference time spent per second of measured work
DUTY = 0.05

_N = 7
_MATRIX = tuple(tuple(Fraction((3 * i + 5 * j * j + 1) % 11 - 5, 1 + (i * j) % 4)
                      for j in range(_N + 2)) for i in range(_N))


def reference_task() -> Fraction:
    """Reduce a fixed 7x9 rational matrix; returns a checksum entry."""
    rows = [list(r) for r in _MATRIX]
    r = 0
    for c in range(_N + 2):
        pivot = next((i for i in range(r, _N) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(_N):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows[0][-1]


EXPECTED = reference_task()


class Reference:
    """Collects reference-task timings over one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, seconds: float) -> None:
        """Run the task for about `seconds` (at least once), timing each."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            end = time.perf_counter() + seconds
            while True:
                t0 = time.perf_counter()
                value = reference_task()
                t1 = time.perf_counter()
                if value != EXPECTED:
                    raise AssertionError("reference task gave a wrong result")
                self.samples.append(t1 - t0)
                if t1 >= end:
                    break
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """Factor that converts a raw time of this run to a calibrated one."""
        return REFERENCE_S / statistics.fmean(self.samples)
