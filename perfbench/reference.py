"""The reference kernel: a fixed piece of work timed between commands.

Its time says how fast the machine ran at that moment, so the benchmark can
divide it out of the commands' wall time (README.md says why).  The kernel
runs in the benchmark's own process, so it never adds to a command's peak
resident set size.
"""

import gc
import time

import numpy as np


def reference_s() -> float:
    """Time one fixed piece of work shaped like the program's own.

    F_{p^2}-style products of int tuples, with a dict lookup each, over a few
    MB of tuples visited out of order; then int64 numpy convolutions of a few
    hundred kB.  The working set matters: this host's slow state hurts large
    working sets most, and a kernel that fits in L1 under-corrects for it.
    It shares no code with howecurves, so no change to the program moves it.
    The cyclic garbage collector is off while it runs, as in timeit: otherwise
    its time would grow with whatever the calling process holds.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if was_enabled:
            gc.enable()


def _kernel() -> float:
    t = time.perf_counter()
    p, r, n = 433, 5, 40000
    pts = [((i * 7919) % p, (i * 104729) % p) for i in range(n)]
    table = {pt: i for i, pt in enumerate(pts)}
    x, acc = (3, 7), 0
    for i in range(n):
        y = pts[(i * 9973) % n]
        x = ((x[0] * y[0] + r * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)
        acc += table.get(x, 0)
    a = np.arange(1, 4001, dtype=np.int64)
    for _ in range(150):
        a = np.convolve(a, a[:64])[:4000] % p
    return time.perf_counter() - t
