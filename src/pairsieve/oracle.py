"""Classical ground-truth primality machinery.

Everything here is deliberately simple and auditable: a plain
Eratosthenes bitmap, trial division, and brute-force enumeration of
Goldbach prime pairs. The rest of the package is validated against
these two independent oracles; nothing here depends on the sieve
formulas it is used to check.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrimeTable",
    "build_prime_table",
    "pi_oracle",
    "primes_upto",
    "is_prime_trial",
    "goldbach_pairs_oracle",
]


@dataclass(frozen=True)
class PrimeTable:
    """Primality bitmap plus the ordered list of primes up to ``limit``.

    Immutable after construction (the arrays are marked read-only), so a
    single table can be shared freely across threads or processes.

    Attributes
    ----------
    limit : int
        Largest integer covered by the table.
    flags : numpy.ndarray
        Boolean array of length ``limit + 1``; ``flags[k]`` is True iff
        ``k`` is prime.
    primes : numpy.ndarray
        Ascending int64 array of all primes ``<= limit``.
    """

    limit: int
    flags: np.ndarray
    primes: np.ndarray


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to ``limit`` (inclusive).

    Parameters
    ----------
    limit : int
        Upper bound, must be >= 1.

    Returns
    -------
    PrimeTable
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64)
    flags.setflags(write=False)
    primes.setflags(write=False)
    return PrimeTable(limit=limit, flags=flags, primes=primes)


def pi_oracle(table: PrimeTable, n: int) -> int:
    """Number of primes <= n, read off the table."""
    if not 1 <= n <= table.limit:
        raise ValueError(f"n must be in [1, {table.limit}], got {n}")
    return int(table.primes.searchsorted(n, side="right"))


def primes_upto(primes: np.ndarray, limit: int) -> np.ndarray:
    """The primes <= ``limit`` of an ascending prime array: a view of its
    prefix, found by binary search. The search reads a memoryview, whose
    items are Python ints, so no numpy scalar is made: about half the
    cost of ``searchsorted`` and ``int`` on a basis-sized search."""
    return primes[: bisect_right(memoryview(primes), limit)]


def is_prime_trial(n: int) -> bool:
    """Primality by trial division, independent of any sieve."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def goldbach_pairs_oracle(
    table: PrimeTable, n: int, interval: tuple[int, int]
) -> list[int]:
    """All x in ``interval`` with both x and n - x prime, by table lookup.

    Parameters
    ----------
    table : PrimeTable
        Must cover at least ``n``.
    n : int
        Even integer >= 4 being decomposed as x + (n - x).
    interval : (int, int)
        Inclusive bounds [a, b] with 1 <= a <= b <= n - 1.

    Returns
    -------
    list of int
        Ascending. Symmetric under x -> n - x whenever the interval is.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 4, got {n}")
    a, b = interval
    if not 1 <= a <= b <= n - 1:
        raise ValueError(f"interval must satisfy 1 <= a <= b <= {n - 1}, got [{a}, {b}]")
    if table.limit < n:
        raise ValueError(f"table covers only {table.limit}, need {n}")
    flags = table.flags
    hits = flags[a : b + 1] & flags[n - b : n - a + 1][::-1]
    return (hits.nonzero()[0] + a).tolist()
