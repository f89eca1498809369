"""Host-speed reference: a fixed pure-Python loop timed beside every phase.

The benchmark's host is shared, and its speed swings by up to 1.8x from one
second to the next and drifts from one minute to the next. A phase timed on
its own shows that swing. So every timed phase is bracketed by two probes
of a reference loop that never changes, and the phase's wall time is scaled
by how fast the reference ran around it:

    scaled_s = wall_s * NOMINAL_S / mean(probe before, probe after)

The result reads as seconds on a host where the probe takes NOMINAL_S. The
loop uses only builtins (dicts, lists, tuples, strings, sorting), the kind
of work the interpreter does inside healflow, and none of healflow's code,
so a change to the program cannot change the yardstick. The cyclic garbage
collector is off while a probe runs, so the heap the program leaves alive
does not slow the probe.
"""

from __future__ import annotations

import gc
import time

# About one probe's wall time on a quiet 2-vCPU Intel Xeon VM with Python 3.11.7.
NOMINAL_S = 0.005

LOOP_REPEATS = 3


def _loop() -> int:
    table = {}
    for i in range(2000):
        table[f"k{i}"] = [i, str(i), (i, i * 2)]
    total = 0
    for key, value in table.items():
        total += len(key) + value[0] + len(value[1])
    return total + len(sorted(table, reverse=True))


def probe() -> float:
    """Wall seconds of one pass of the reference loop, GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(LOOP_REPEATS):
            _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Yardstick:
    """Times phases in host-speed-scaled seconds, probing between phases."""

    def __init__(self):
        self.last = probe()

    def scale(self, wall_s: float) -> float:
        """Scale a phase that ended just now; the probe after it starts the next."""
        before, self.last = self.last, probe()
        return wall_s * NOMINAL_S / ((before + self.last) / 2)
