"""Seeded input generator: the argv of every operation in a workload.

The program under test sees only these argument lists. Each workload is
a fixed list of operations, which a run repeats in turn. The same seed
always gives the same argv.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

WORKLOADS = ("pairs", "primecount", "selftest")


class Op(NamedTuple):
    """One CLI invocation. ``label`` names the operation inside its
    workload; samples of the same label are comparable."""

    label: str
    argv: tuple[str, ...]


def _is_prime(v: int) -> bool:
    if v < 2:
        return False
    if v % 2 == 0:
        return v == 2
    return all(v % d for d in range(3, math.isqrt(v) + 1, 2))


def _pairs(rng: random.Random) -> list[Op]:
    # n = 30030*m, m prime: 7 dividing primes, mostly hat positions. The
    # narrow range keeps the pair count, and so the cost, nearly fixed.
    n_hat = 30030 * rng.choice([m for m in range(640, 670) if _is_prime(m)])
    # n = 2q, q prime: one dividing prime, mostly tilde positions
    q = 10_000_000 - 1 - 2 * rng.randrange(25_000)
    while not _is_prime(q):
        q -= 2
    goldbach = [Op(f"goldbach-{kind}", ("goldbach", str(n), "--list", "--emit", "json"))
                for kind, n in (("hat", n_hat), ("tilde", 2 * q))]
    # criterion 6's range and per-n cost profile, about 300 n, through
    # the process pool with one CSV record per n. The step 2*1657 walks
    # through every residue class of the primes below 1657, so each seed
    # sees the same mix of dividing primes as a scan of every even n.
    start = 10_000 + 2 * rng.randrange(1657)
    scan = Op("scan", ("scan-bound", str(start), "1000000", "--step", "3314",
                       "--emit", "csv", "--workers", "2"))
    return [*goldbach, scan]


def _primecount(rng: random.Random) -> list[Op]:
    small = 1_500_000 - 2 * rng.randrange(5_000)
    large = 30_000_000 - 2 * rng.randrange(75_000)
    return [
        Op("primecount-legendre", ("primecount", str(small), "--method", "legendre")),
        Op("primecount-theta-sum", ("primecount", str(large), "--method", "theta-sum")),
        Op("primecount-survivor", ("primecount", str(large), "--method", "survivor")),
    ]


def _selftest(rng: random.Random) -> list[Op]:
    # the suites draw their own samples from a fixed internal seed, so
    # this workload is the same for every benchmark seed
    return [Op("selftest", ("selftest", "--max-n", "2000"))]


_GENERATORS = {"pairs": _pairs, "primecount": _primecount, "selftest": _selftest}


def generate(workload: str, seed: int) -> list[Op]:
    """The operations of ``workload`` for ``seed``, in the order a run cycles through them."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
