"""Interpreter-speed gauge.

The benchmark shares its machine with other work.  On a shared virtual
machine the host runs this process at a speed that flips between states
about 1.5x apart, each lasting from tenths of a second to minutes.  The
gauge times a fixed pure-Python workload, a tick every few hundredths of a
second between the benchmark's measurements.  A time measured between two
ticks is scaled by ``NOMINAL_S`` over the mean gauge time of those ticks,
so it reads as the time on a machine where the gauge takes ``NOMINAL_S``
(about what it takes on a 2-core Xeon VM when the host runs it at full
speed).  Host drift moves the gauge and the library alike and cancels; a
change to the library does not move the gauge.

Ticks are timed on the thread CPU clock, like the ops they scale, so
time the hypervisor gives to other guests (steal) is in neither.

The workload imitates the library's inner loops: row reduction over
127-bit integer masks, probes of a large dict, and small function calls
over lists of field elements.  Over a 150-second sample of the host's
drift, the log of each workload's op time followed the log of this gauge
with slope 0.99 to 1.12.
"""

from __future__ import annotations

from time import thread_time

NOMINAL_S = 1.0e-3

_MASK = (1 << 127) - 1
_TABLE = {(i * 2654435761) & ((1 << 40) - 1): i for i in range(20000)}
_KEYS = list(_TABLE)[:3000]
_GRID = [[(i * j) % 32 for j in range(20)] for i in range(20)]


def _reduce_and_probe() -> int:
    rows = [(i * 0x9E3779B97F4A7C15 ^ (i << 64)) & _MASK for i in range(1, 90)]
    for c in range(40):
        piv = next((r for r in rows if (r >> c) & 1), None)
        if piv is not None:
            rows = [r ^ piv if (r >> c) & 1 and r is not piv else r for r in rows]
    get = _TABLE.get
    s = 0
    for k in _KEYS:
        v = get(k ^ 1)
        if v is not None:
            s += v
    return s


def _mul(a, b):
    return (a * b) % 31


def _calls() -> int:
    acc = 0
    for row in _GRID:
        acc += sum(_mul(a, b) for a, b in zip(row, row[1:]))
        acc += len([_mul(x, 3) for x in row])
    return acc


class Gauge:
    def __init__(self):
        self.ticks: list[float] = []    # thread CPU seconds of each tick

    def tick(self):
        t0 = thread_time()
        _reduce_and_probe()
        _calls()
        _calls()
        self.ticks.append(thread_time() - t0)

    def between(self, i: int) -> float:
        """Scale factor for a time measured between ticks i and i + 1:
        multiply a time by it (divide a rate) to read it at gauge speed."""
        return 2 * NOMINAL_S / (self.ticks[i] + self.ticks[i + 1])

    def factor(self) -> float:
        """Scale factor over all ticks so far."""
        return NOMINAL_S * len(self.ticks) / sum(self.ticks)
