"""A fixed kernel that measures how fast the current process runs.

On a shared host one process can run twice as fast as the next, and a
process mostly keeps its speed while it lives. ``child.py`` therefore
times one pass of this kernel in the same process right after the
operation, and ``run.py`` divides the operation's times by it. The
kernel is the benchmark's own code, so no change to pairsieve moves it.
Set-up-only processes time it too, for ``setup_s``.
"""

import math
import time

import numpy

#: Sizes of the kernel's two parts; one pass takes about 0.15 s.
LIMIT = 10_000_000
LOOP = 200_000
MODULUS = 1009
#: pi(LIMIT) plus the number of squares mod MODULUS, so a wrong pass
#: cannot go unnoticed.
RESULT = 664_579 + (MODULUS + 1) // 2
#: Median time of one pass on the machine the benchmark was calibrated
#: on (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6). A time divided
#: by its process's pass and multiplied by this reads as seconds on that
#: machine at a steady speed.
NOMINAL_S = 0.13


def _square_mod(i: int) -> int:
    return i * i % MODULUS


def one_pass() -> int:
    # strided numpy marking, and interpreted calls and dict updates: the
    # two kinds of work in pairsieve's sieves and suites
    flags = numpy.ones(LIMIT + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(LIMIT) + 1):
        if flags[p]:
            flags[p * p::p] = False
    squares: dict[int, int] = {}
    for i in range(LOOP):
        r = _square_mod(i)
        squares[r] = squares.get(r, 0) + 1
    return int(flags.sum()) + len(squares)


def seconds() -> float:
    """Wall time of one pass in this process."""
    t0 = time.perf_counter()
    result = one_pass()
    elapsed = time.perf_counter() - t0
    if result != RESULT:
        raise RuntimeError(f"reference kernel gave {result}, not {RESULT}")
    return elapsed
