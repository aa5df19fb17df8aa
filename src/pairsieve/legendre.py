"""Whole-range prime and composite counting over primes <= sqrt(n).

Three interchangeable formulations of the same inclusion-exclusion
count:

* ``"legendre"``  -- the signed floor sum over squarefree products of
  the basis primes, evaluated as Legendre's phi(x, a) recursion;
* ``"theta-sum"`` -- count integers hit by at least one basis prime
  (residue-class marking from p), then correct by the basis size;
* ``"direct-mark"`` / ``"survivor"`` -- the classical sieve: each basis
  prime marks from p^2, which leaves exactly the composites, and
  ``"survivor"`` reads the primes as what stays unmarked.

So each count has three computations that check one another: phi
(``"legendre"``), the marks from p (``"theta-sum"``) and the marks from
p^2 (``"direct-mark"`` and ``"survivor"``); the oracle module is the
fourth.

The marking methods run on the package's one residue-class marking
kernel, which ``xi``'s double sieve shares, in the same layout: the
lanes x = wj + r of a wheel w. Below ``_LANE_SWITCH`` blocks of odd x
the wheel is 2, whose one lane is the odd x = 2i + 1, each prime's
first i written by its caller; from there it is 30, the first j coming
from ``_lane_marks``, and the lanes that 3 and 5 decide are counted,
not marked, as are the x that share a factor with the wheel. In the
odd layout a block starts as the odd half of the wheel, tiled if need
be: the marks of 3, 5, 7, 11 and 13 over one period of 30030 integers;
one line takes off the wheel primes that the basis leaves unmarked.
The wheel is a read-only module constant that phi(x, a) starts from too.
The same odd layout, marked from p^2, gives the flags of the odd primes
that ``xi``'s scans read (``_odd_prime_flags``).

All of them are validated against the oracle module in the test suite.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Iterator, Sequence

import numpy as np

from .oracle import PrimeTable, build_prime_table, is_prime_trial, primes_upto

__all__ = [
    "make_basis",
    "count_multiples",
    "varpi_p",
    "varpi_pq",
    "composite_count",
    "prime_count",
    "COMPOSITE_METHODS",
    "PRIME_METHODS",
]

COMPOSITE_METHODS = ("legendre", "theta-sum", "direct-mark")
PRIME_METHODS = ("legendre", "theta-sum", "survivor")


def _require_even(n: int, minimum: int = 4) -> None:
    if n < minimum or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= {minimum}, got {n}")


def make_basis(n: int, table: PrimeTable) -> tuple[int, ...]:
    """The basis of an even n >= 4: the ascending tuple of primes <= sqrt(n)."""
    _require_even(n)
    r = math.isqrt(n)
    if table.limit < r:
        raise ValueError(f"table covers only {table.limit}, need {r}")
    return tuple(primes_upto(table.primes, r).tolist())


def count_multiples(a: int, b: int, d: int) -> int:
    """Number of multiples of d in the inclusive interval [a, b]."""
    if d == 0:
        raise ValueError("d must be nonzero")
    if not 1 <= a <= b:
        raise ValueError(f"need 1 <= a <= b, got a={a}, b={b}")
    return b // d - (a - 1) // d


def varpi_p(n: int, p: int) -> int:
    """Multiples of prime p in [1, n] excluding p itself: floor(n/p) - 1."""
    _require_even(n)
    if p > math.isqrt(n):
        raise ValueError(f"p must be <= floor(sqrt(n)) = {math.isqrt(n)}, got {p}")
    if not is_prime_trial(p):
        raise ValueError(f"p must be prime, got {p}")
    return n // p - 1


def varpi_pq(n: int, p: int, q: int) -> int:
    """Integers in [1, n] divisible by p or q, minus the two primes.

    Symmetric in p and q: ``varpi_p`` of each, whose checks (n even,
    each a prime <= sqrt(n)) apply to both, less the floor(n/pq)
    multiples counted twice.
    """
    if p == q:
        raise ValueError("p and q must be distinct primes")
    return varpi_p(n, p) + varpi_p(n, q) - n // (p * q)


#: Positions per block of the marking kernel: odd x (x = 2i + 1 at
#: index i), or in the wheel-30 lanes the x = 30j + r of one lane. The
#: counts here take the whole periods of the odd-wheel blank that fit
#: in the odd layout. The cost of a block is Python overhead per slice
#: assignment, not memory bandwidth, so large blocks win; 2^19 to 2^21
#: were level for ``xi`` at n near 2e7 and 2^20 fastest at 1e8. Results
#: are identical for any size >= 1.
DEFAULT_BLOCK = 1 << 20

#: Blocks of odd positions from which a marking runs in the lanes of the
#: wheel 30 rather than over every odd x. Below it the short lanes cost
#: more in per-slice overhead than the lanes that 3 and 5 decide save.
#: With a list, the pair sieve broke even near 1.9 blocks for n = 30030m,
#: whose 8 lanes prime to 30 all mark (10% slower at 1.5), near 1 block
#: for n divisible by 3 alone and below 0.5 for n = 2q, with 3 lanes to
#: mark; the marked count, with 8, near 0.5 blocks. One even n in 15 is
#: divisible by 15.
_LANE_SWITCH = 1.5


def _wheel(positions: int, block_size: int) -> int:
    """The wheel whose lanes lay out ``positions`` odd x: 30 from
    ``_LANE_SWITCH`` blocks of them on, else 2, the one lane of every odd x."""
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    return 30 if positions >= _LANE_SWITCH * block_size else 2


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


#: ``_INVERSES_30[v]`` = v^-1 (mod 30) for v prime to 30, else 0.
_INVERSES_30 = _read_only(np.array(
    [pow(v, -1, 30) if math.gcd(v, 30) == 1 else 0 for v in range(30)], dtype=np.int64))


def _lane_marks(
    primes: Sequence[int], starts: Sequence[int]
) -> Callable[[int], tuple[Sequence[int], list[int]]]:
    """The kernel's marks in each lane x = 30j + r, as a function of r:
    ``primes`` and, for each p and x0 of ``primes`` and ``starts``, the j
    of the first x >= x0 with x = x0 (mod p), x = x0 + p((r - x0)p^-1 mod 30).

    The arrays of p, x0 and p^-1 mod 30 are built once, here; each lane
    then costs one int64 expression and one ``tolist``, and its primes are
    ``primes`` itself. The products stay below x0 * 29, so every x0 must
    satisfy x0 * 29 < 2^63.
    """
    p = np.array(primes, dtype=np.int64)
    x0 = np.array(starts, dtype=np.int64)
    inverse = _INVERSES_30[p % 30]
    x0_inverse = x0 * inverse % 30

    def marks(r: int) -> tuple[Sequence[int], list[int]]:
        return primes, ((p * ((r * inverse - x0_inverse) % 30) + x0 - r) // 30).tolist()

    return marks


#: The value every slice of the kernel is set to: a read-only 0-d array,
#: which numpy assigns without first converting a Python bool.
_MARK = _read_only(np.array(True))


def _mark_blocks(
    lo: int,
    hi: int,
    passes: Sequence[tuple[Sequence[int], Sequence[int]]],
    block_size: int,
    blank: np.ndarray | None = None,
) -> Iterator[tuple[int, np.ndarray, list[int]]]:
    """The residue-class marking kernel: (start, block, counts) per block
    of ``block_size`` positions of [lo, hi], all in one reused buffer.

    A block starts as a copy of ``blank``, one block-long period of marks,
    or all False. Each pass is two parallel sequences, primes and first
    positions: each p and first marks the x >= first with x = first
    (mod p), one strided slice, and ``counts`` holds the marked count
    after each pass. Consume ``block`` before advancing.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    buf = np.empty(max(0, min(block_size, hi - lo + 1)), dtype=bool)
    for start in range(lo, hi + 1, block_size):
        block = buf[: hi + 1 - start]
        if blank is None:
            block.fill(False)
        else:
            block[:] = blank[: block.size]
        counts = []
        for primes, firsts in passes:
            for p, first in zip(primes, firsts):
                block[first - start if first >= start else (first - start) % p :: p] = _MARK
            counts.append(int(np.count_nonzero(block)))
        yield start, block, counts


#: The wheel: the first six primes, and their product, the period of their marks.
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_PERIOD = 30030


#: ``_WHEEL_MARKS[r]``: some wheel prime divides every x = r (mod 30030).
_WHEEL_MARKS = _read_only(
    next(_mark_blocks(0, _PERIOD - 1, ((_WHEEL_PRIMES, (0,) * 6),), _PERIOD))[1])
#: ``_WHEEL_PHI[r]`` = phi(r, 6), the unmarked x in [1, r]; 5760 per period.
_WHEEL_PHI = _read_only(np.cumsum(~_WHEEL_MARKS, dtype=np.int32))
_WHEEL_TOTIENT = int(_WHEEL_PHI[-1])
#: ``_ODD_WHEEL_MARKS[i]``: some wheel prime divides x = 2i + 1, for i
#: modulo 15015, the period in odd indices.
_ODD_WHEEL_MARKS = _read_only(_WHEEL_MARKS[1::2].copy())


def _phi(x: int, a: int, primes: Sequence[int]) -> int:
    """Legendre's phi(x, a): the y in [1, x] that none of ``primes[:a]`` divides.

    From a = 6 on, unrolled as phi(x, 6) - sum over 6 <= i < a of
    phi(x // primes[i], i), with phi(x, 6) read off the wheel. Once
    x // primes[i] < primes[i], every later term is 1 (0 once the prime
    exceeds x), so the rest of the sum is counted at once. Each level
    divides x by at least 17: the depth is at most log_17 x. Python ints
    throughout, so x has no upper limit.
    """
    if a < len(_WHEEL_PRIMES):
        if a == 0:
            return x
        return _phi(x, a - 1, primes) - _phi(x // primes[a - 1], a - 1, primes)
    q, r = divmod(x, _PERIOD)
    total = q * _WHEEL_TOTIENT + _WHEEL_PHI.item(r)
    for i in range(len(_WHEEL_PRIMES), a):
        p = primes[i]
        y = x // p
        if y < p:
            return total - (bisect_right(primes, x, i, a) - i)
        total -= _phi(y, i, primes)
    return total


def _odd_blank(n: int) -> np.ndarray:
    """The blank block of a marking over the odd x <= n, in odd indices:
    the odd-wheel marks, tiled up to the whole periods of ``DEFAULT_BLOCK``
    when n spans more than one period."""
    periods = min(n // _PERIOD + 1, DEFAULT_BLOCK // _ODD_WHEEL_MARKS.size)
    return _ODD_WHEEL_MARKS if periods == 1 else np.tile(_ODD_WHEEL_MARKS, periods)


def _odd_prime_flags(n: int, primes: Sequence[int]) -> np.ndarray:
    """``flags[i]``: x = 2i + 1 is prime, for the odd x <= n; ``primes``
    are the primes <= sqrt(n), ascending from 2.

    The kernel marks the odd x in blocks of ``_odd_blank(n)``, which
    holds the multiples of 3 to 13; each prime above 13 marks from
    index p*p // 2, every p-th index after it. The unmarked x are then 1
    and the primes other than the wheel's, so 1 is cleared and the wheel
    primes <= n are set back.
    """
    flags = np.empty((n + 1) // 2, dtype=bool)
    blank = _odd_blank(n)
    marked = primes[len(_WHEEL_PRIMES):]
    marks = (marked, [p * p // 2 for p in marked])
    for start, block, _ in _mark_blocks(0, flags.size - 1, (marks,), blank.size, blank):
        np.logical_not(block, out=flags[start : start + block.size])
    flags[0] = False
    flags[[q // 2 for q in _WHEEL_PRIMES[1:] if q <= n]] = True
    return flags


def _marked_count(n: int, primes: tuple[int, ...], from_squares: bool = False) -> int:
    """Number of x in [1, n] that the basis ``primes`` of n mark.

    Each prime p marks its multiples; with ``from_squares`` it marks them
    from x0 = p*p on, which leaves exactly the composites <= n, else from
    x0 = p. The kernel marks the lanes x = wj + r prime to the wheel w
    (``_wheel``), and the x sharing a factor with w are n less the lanes'
    sizes. For w = 2 the one lane is the odd x: each block starts as the
    odd-wheel marks, tiled when n spans more than one period, and each
    prime above 13 marks from index x0 // 2, x0 being odd. For w = 30 the
    8 lanes start unmarked, and each prime above 5 marks from the j that
    ``_lane_marks`` gives. The wheel marks each of its primes q <= n,
    which the basis leaves unmarked when q > sqrt(n) or with
    ``from_squares``: those q are taken off. No other x is marked by the
    wheel alone: a multiple kq <= n, k > 1, of a q > sqrt(n) has
    k < sqrt(n), so a basis prime divides it.
    """
    wheel = _wheel(n // 2, DEFAULT_BLOCK)
    presieved = _WHEEL_PRIMES if wheel == 2 else _WHEEL_PRIMES[:3]
    marked = primes[len(presieved):]
    starts = [p * p for p in marked] if from_squares else marked
    if wheel == 2:  # each block starts as the odd-wheel marks of 3 to 13
        blank = _odd_blank(n)
        block_size = blank.size
        lanes = [(1, (marked, [x0 // 2 for x0 in starts]))]
    else:  # the lanes prime to 30 start unmarked
        blank, block_size = None, DEFAULT_BLOCK
        lane = _lane_marks(marked, starts)
        lanes = ((r, lane(r)) for r in (1, 7, 11, 13, 17, 19, 23, 29))
    unmarked = 0
    for r, marks in lanes:
        for _, block, (count,) in _mark_blocks(0, (n - r) // wheel, (marks,), block_size, blank):
            unmarked += block.size - count
        block = None  # the lane's buffer goes before the next lane makes its own
    r = 0 if from_squares else math.isqrt(n)  # the basis marks the wheel primes <= r
    return n - unmarked - bisect_right(presieved, n) + bisect_right(presieved, r)


def _basis_for(n: int, table: PrimeTable | None) -> tuple[int, ...]:
    if table is None:
        table = build_prime_table(max(math.isqrt(n), 2))
    return make_basis(n, table)


def composite_count(n: int, method: str = "legendre", table: PrimeTable | None = None) -> int:
    """Number of composites in [4, n] for even n >= 4.

    ``"legendre"`` and ``"theta-sum"`` are n - 1 less that method's
    prime count; ``"direct-mark"`` marks composites outright, each basis
    prime from its square. The three agree identically. ``table`` must
    cover floor(sqrt(n)); without one, a table is built for this call.
    """
    _require_even(n)
    if method not in COMPOSITE_METHODS:
        raise ValueError(f"method must be one of {COMPOSITE_METHODS}, got {method!r}")
    if method != "direct-mark":
        return n - 1 - prime_count(n, method, table)
    return _marked_count(n, _basis_for(n, table), from_squares=True)


def prime_count(n: int, method: str = "legendre", table: PrimeTable | None = None) -> int:
    """Number of primes <= n for even n >= 4.

    With l the basis size, ``"legendre"`` is phi(n, l) + l - 1 (phi
    counts 1 and the primes above sqrt(n)); ``"theta-sum"`` is
    n - 1 - divisible + l, from the x in [1, n] that some basis prime
    divides; ``"survivor"`` is n - 1 - composites, from the x that some
    basis prime marks from its square, as ``"direct-mark"`` marks them.
    ``table`` must cover floor(sqrt(n)); without one, a table is built
    for this call.
    """
    _require_even(n)
    if method not in PRIME_METHODS:
        raise ValueError(f"method must be one of {PRIME_METHODS}, got {method!r}")
    primes = _basis_for(n, table)
    if method == "legendre":
        return _phi(n, len(primes), primes) + len(primes) - 1
    if method == "survivor":
        return n - 1 - _marked_count(n, primes, from_squares=True)
    return n - 1 - _marked_count(n, primes) + len(primes)
