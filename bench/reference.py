"""A fixed pure-Python kernel whose time tracks the machine's current speed.

It never touches ewhnexus and imports nothing beyond ``gc`` and ``time``, so
a set-up probe can run it before ``import ewhnexus`` without warming any
module the package needs.
"""

import gc
import time

NOMINAL_S = 0.35e-3   # the kernel's time on the baseline machine when quiet


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def reference_kernel() -> float:
    """Run the kernel once and return its time [s].

    The collector is paused, so the time does not depend on how many objects
    the caller keeps alive.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        totals = {}
        acc = 0.0
        for i in range(600):
            p = _Pair(i * 0.5, str(i % 7))
            totals[p.b] = totals.get(p.b, 0.0) + p.a
            acc += p.a * 1.0001 - len(p.b)
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
