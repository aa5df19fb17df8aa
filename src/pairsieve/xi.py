"""Interval prime-pair machinery.

An even n splits every x in [1, n-1] into the pair (x, n-x). Writing
m_p = n mod p for each prime p <= sqrt(n), the pair is free of small
factors exactly when x avoids the two residue classes {0, m_p} modulo
every such p — class 0 guards x itself, class m_p guards n - x. A
residue basis is n, an interval and those primes; m_p is n % p, which
each reader takes in its own loop over them. The double sieve marks
both classes per prime over an interval; survivors are precisely the x
with x and n - x both prime.

Positions knocked out by a prime dividing n are counted as ``hat``,
positions knocked out only by non-dividing primes as ``tilde``; the two
are disjoint by construction, so hat + tilde + survivors partitions the
interval. p = 2 divides n, so every even x is hat, counted in closed
form; the sieve marks the odd x alone, in two passes of ``legendre``'s
residue-class marking kernel: class 0 of the odd dividing primes,
counted as hat, then both classes of the others. It lays them out in the
lanes x = wj + r of a wheel w: the one lane of odd x, or, over a long
interval, the 15 odd lanes of 30, of which 3 and 5 decide whole lanes as
hat or as composite. Each position read forward and backward sums to n,
as x + (n - x) = n, so all three sets are symmetric under x -> n - x: on
a symmetric interval, the default one included, only [a, n/2] is marked
and every count doubled, less the centre n/2 when it is odd. That centre
is hat if an odd basis prime divides n, never tilde, and a survivor
otherwise. A scan's record for each n compares its survivor count with
the analytic lower bound (n - 4*sqrt(n)) / ln^2(n - sqrt(n)).

Over the default interval the survivors are exactly the prime pairs. A
scan cuts its n into spans, each counted from one table, the primes up
to the square root of its last n. hat is in closed form, Euler's product
and a Moebius sum with one strided pass per squarefree d <= sqrt(last n)
over the span's n, and tilde is the rest. Only the pairs' source depends
on the last n: up to ``_BITMAP_MAX_END``, one prime bitmap (an AND of the
kernel's odd flags with their reverse), the sieve verifying the first and
last n; above it, the sieve at every n, whose own hat checks the closed
form at each. One array check rejects a count no interval can hold. A
span's result is three int64 columns,
n, hat and prime_pairs, which is all that crosses a process boundary:
the records (``PairCounts``) are built where a caller iterates them, and
``scan-bound`` formats the columns themselves.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .legendre import (
    DEFAULT_BLOCK, _lane_marks, _mark_blocks, _odd_prime_flags, _require_even, _wheel, make_basis)
from .oracle import PrimeTable, build_prime_table

__all__ = [
    "ResidueBasis",
    "PairCounts",
    "ScanSummary",
    "default_interval",
    "make_residue_basis",
    "tilde_composite_pairs",
    "tilde_composite_pairs_ie",
    "pair_counts",
    "prime_pair_list",
    "pair_counts_and_array",
    "bound_value",
    "scan_bounds",
    "scan_columns",
    "iter_pair_counts",
]

@dataclass(frozen=True)
class ResidueBasis:
    """Sieving data for one even n: an interval and the basis of n, the
    primes <= sqrt(n) of ``legendre.make_basis``. Each prime p guards the
    classes {0, n mod p}, and each reader takes n % p in its own loop.

    ``interval`` defaults to the inclusive [ceil(sqrt(n)), n - ceil(sqrt(n))]
    but may be overridden.
    """

    n: int
    interval: tuple[int, int]
    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        a, b = self.interval
        if not 1 <= a <= b <= self.n - 1:
            raise ValueError(f"interval must satisfy 1 <= a <= b <= {self.n - 1}, got [{a}, {b}]")


@dataclass(frozen=True)
class PairCounts:
    """Partition of an interval into hat / tilde / prime-pair positions.
    The rest is derived at each read; ``bound``, ``margin`` and ``holds``,
    from ``_bound_row``, need an even n >= 26."""

    n: int
    interval: tuple[int, int]
    hat: int
    tilde: int
    prime_pairs: int

    def __post_init__(self) -> None:
        if self.hat < 0 or self.tilde < 0 or self.prime_pairs < 0:
            raise ValueError("counts must be nonnegative")
        if self.hat + self.tilde + self.prime_pairs != self.interval[1] - self.interval[0] + 1:
            raise ValueError("hat + tilde + prime_pairs must equal interval length")

    @property
    def length(self) -> int:
        return self.interval[1] - self.interval[0] + 1

    @property
    def composite_pairs(self) -> int:
        return self.hat + self.tilde

    @property
    def bound(self) -> float:
        return _bound_row(self.n, self.prime_pairs)[0]

    @property
    def margin(self) -> float:
        return _bound_row(self.n, self.prime_pairs)[1]

    @property
    def holds(self) -> bool:
        return _bound_row(self.n, self.prime_pairs)[2]


@dataclass
class ScanSummary:
    """Streaming aggregate over the records of ``scan_bounds``, or the
    rows of ``scan_columns``: the count, the violations of the bound and
    the minimum margin with its n. ``add_row`` returns a row's bound,
    margin and holds, from ``_bound_row`` as a record's, to the caller
    that formats the row."""

    count: int = 0
    violations: int = 0
    min_margin: float = math.inf
    min_margin_n: int | None = None

    def add(self, record: PairCounts) -> None:
        self.add_row(record.n, record.prime_pairs)

    def add_row(self, n: int, prime_pairs: int) -> tuple[float, float, bool]:
        """Fold in the row of n with ``prime_pairs`` pairs; return its
        ``bound_value``, margin and holds, a ``PairCounts``' own."""
        bound, margin, holds = _bound_row(n, prime_pairs)
        self.count += 1
        if not holds:
            self.violations += 1
        if margin < self.min_margin:
            self.min_margin = margin
            self.min_margin_n = n
        return bound, margin, holds


def default_interval(n: int) -> tuple[int, int]:
    """Inclusive [ceil(sqrt(n)), n - ceil(sqrt(n))]."""
    a = math.isqrt(n - 1) + 1
    return a, n - a


def make_residue_basis(
    n: int, table: PrimeTable, interval: tuple[int, int] | None = None
) -> ResidueBasis:
    """Residue basis for an even n >= 8: its interval and its primes <= sqrt(n).

    Parameters
    ----------
    n : int
        Even integer >= 8.
    table : PrimeTable
        Must cover floor(sqrt(n)).
    interval : (int, int), optional
        Inclusive override; defaults to ``default_interval(n)``.
    """
    _require_even(n, 8)  # the pair sieve's domain
    return ResidueBasis(n, interval or default_interval(n), make_basis(n, table))


# ---------------------------------------------------------------------------
# the double sieve on the marking kernel, and the hat cross-check
# ---------------------------------------------------------------------------


def _signed_divisors(primes: Sequence[int], bound: int) -> list[tuple[int, int]]:
    """(d, sign) for every squarefree product d > 1 of ``primes`` up to
    ``bound``: sign 1 for an odd number of factors, -1 for an even one."""
    terms = [(1, -1)]
    for p in primes:
        for d, s in terms[:]:
            if d * p <= bound:
                terms.append((d * p, -s))
    return terms[1:]


def _hat_inclusion_exclusion(divisors: Sequence[tuple[int, int]], a: int, b: int) -> int:
    """Positions of [a, b] divisible by some prime, from the signed
    products of those primes that ``_signed_divisors`` lists."""
    total, a = 0, a - 1
    for d, s in divisors:
        total += s * (b // d - a // d)
    return total


def _sieve(
    basis: ResidueBasis, with_list: bool = False, block_size: int = DEFAULT_BLOCK
) -> tuple[int, int, np.ndarray | None]:
    """hat, hat + tilde and, if asked, the ascending survivors over the
    interval: int32 for n < 2^31, else int64.

    The even x are all hat, by p = 2, and are counted in closed form; the
    kernel marks the odd x in the lanes x = wj + r of the wheel w
    (``legendre._wheel``). One loop over the odd basis primes takes
    m = n % p and sorts each prime once: a dividing one marks class 0,
    for hat, any other classes 0 and m, and on w = 30, 3 and 5 decide
    whole lanes instead. Only the first marks depend on the layout. For
    w = 2, one lane, the loop writes each class's first index as it
    reads the basis, c of p at x = 2i + 1 from i = (c - 1)(p + 1)/2 mod
    p, with no lane set-up per call (README). For w = 30, 15 lanes take
    their first j from ``legendre._lane_marks``. There a lane
    r = 0 (mod p) of a p | n is all hat, counted in closed form; one in
    class 0 or m of a p not dividing n is all composite, and only class 0
    of the dividing primes above 5 marks it, for its hat. Every other
    lane takes two passes: class 0 of the dividing primes, whose count is
    the lane's hat, then classes 0 and m of the others, which bring it to
    hat + tilde. The lanes' survivors are sorted into one array.

    The sets are symmetric under x -> n - x, so on a symmetric interval
    (a + b = n) only [a, n/2] is marked and each count doubled, less the
    centre n/2 when it is odd: then it is hat if an odd basis prime
    divides n, since p | n/2 exactly when p | n, and never tilde, since
    n/2 = n (mod p) means p | n/2. It survives otherwise. The marked hat
    plus the even x is re-derived by inclusion-exclusion; a disagreement
    means a broken sieve and raises.
    """
    n, (a, b) = basis.n, basis.interval
    h = n // 2
    symmetric = a + b == n
    lo, hi = a | 1, ((h if symmetric else b) - 1) | 1  # the first and last odd x marked
    wheel = _wheel((hi - lo) // 2 + 1, block_size)
    # the primes dividing n, of which 2 always is, the odd primes that
    # decide whole lanes, and the kernel's passes as parallel lists of
    # primes and classes c, or for the wheel 2 of primes and first i
    dividing, decided = [2], []
    hat_p, hat_c, other_p, other_c = [], [], [], []
    odd_lane = wheel == 2
    for p in basis.primes[1:]:
        m = n % p
        if not m:
            dividing.append(p)
        if p < 7 and not odd_lane:  # 3 and 5 decide whole lanes of the wheel 30
            decided.append((p, m))
        elif m:
            other_p += p, p
            other_c += (p // 2, (m - 1) * (p + 1) // 2 % p) if odd_lane else (0, m)
        else:
            hat_p.append(p)
            hat_c.append(p // 2 if odd_lane else 0)
    if not odd_lane:  # each lane's first j, one array expression per lane
        lane_hat, lane_other = _lane_marks(hat_p, hat_c), _lane_marks(other_p, other_c)
    hat = composite = 0
    dtype = np.int32 if n < 2**31 else np.int64
    chunks = []
    for r in range(1, wheel, 2):
        # the lane of the x = wheel*j + r in [lo, hi]: j in [j0, j1]
        j0, j1 = (lo - r + wheel - 1) // wheel, (hi - r) // wheel
        size = max(0, j1 - j0 + 1)
        if decided and any(m == 0 and r % p == 0 for p, m in decided):
            hat += size
            composite += size
            continue
        passes = [(hat_p, hat_c) if odd_lane else lane_hat(r)]
        if decided and any(r % p in (0, m) for p, m in decided):
            composite += size
            if hat_p:
                hat += sum(counts[0] for _, _, counts in _mark_blocks(j0, j1, passes, block_size))
            continue
        passes.append((other_p, other_c) if odd_lane else lane_other(r))
        for start, marked, counts in _mark_blocks(j0, j1, passes, block_size):
            hat += counts[0]
            composite += counts[-1]
            if with_list:
                x = np.logical_not(marked, out=marked).nonzero()[0].astype(dtype)
                x *= wheel
                x += wheel * start + r
                chunks.append(x)
        marked = None  # the lane's buffer goes before the next lane makes its own
    if symmetric:
        centre_hat = h % 2 == 1 and dividing[-1] > 2
        hat = 2 * hat - centre_hat
        composite = 2 * composite - centre_hat
    survivors = None
    if with_list:
        # one allocation: the marked half, sorted in place, then its
        # mirror n - x, less a surviving centre, written behind it
        half = sum(map(len, chunks))
        mirrored = half - (h % 2 == 1 and not centre_hat) if symmetric else 0
        survivors = np.empty(half + mirrored, dtype)
        if len(chunks) == 1:
            survivors[:half] = chunks[0]
        elif chunks:
            np.concatenate(chunks, out=survivors[:half])
        if not odd_lane:  # one lane is ascending already
            survivors[:half].sort()
        np.subtract(n, survivors[:mirrored][::-1], out=survivors[half:])
    evens = b // 2 - (a - 1) // 2
    hat += evens
    composite += evens
    ie = _hat_inclusion_exclusion(_signed_divisors(dividing, b), a, b)
    if hat != ie:
        raise RuntimeError(f"hat marking {hat} != inclusion-exclusion {ie} for n={n}")
    return hat, composite, survivors


def _partition(basis: ResidueBasis, hat: int, composite: int) -> PairCounts:
    a, b = basis.interval
    return PairCounts(basis.n, basis.interval, hat, composite - hat, b - a + 1 - composite)


def tilde_composite_pairs(basis: ResidueBasis) -> int:
    """Positions missed by every dividing prime but hit through some
    non-dividing prime's class 0 or class m. Marking implementation."""
    hat, composite, _ = _sieve(basis)
    return composite - hat


# ---------------------------------------------------------------------------
# exact inclusion-exclusion cross-check for the tilde count
# ---------------------------------------------------------------------------


def _inverse_table(p: int) -> np.ndarray:
    """v^-1 mod p at index v, 0 at 0: v^(p - 2) (Fermat) for all of
    ``np.arange(p)`` at once, by left-to-right square-and-multiply from
    the exponent's leading bit.
    """
    base = np.arange(p)
    inverse = base
    for bit in bin(p - 2)[3:]:
        inverse = inverse * inverse % p
        if bit == "1":
            inverse = inverse * base % p
    return inverse


def _union_count(n: int, primes: Sequence[int], a: int, b: int) -> int:
    """Exact count of x in [a, b] lying in at least one class {0, n mod p}
    of the given primes p; a prime dividing n has the one class 0.

    Signed sum over class systems, taken as one tree: the root is the
    empty system, and each prime, largest first (a basis lists them
    ascending), gives every node one child per class, the CRT of the
    node's class with it. A class with no element in [a, b] has only
    empty refinements, so its whole subtree is pruned; that keeps the
    expansion exact and small, and the large primes first prune it
    soonest.
    """
    mods = np.ones(1, dtype=np.int64)
    residues = np.zeros(1, dtype=np.int64)
    signs = np.array([-1], dtype=np.int64)  # root: empty selection
    total = 0
    for p in reversed(primes):
        m = n % p
        ext_m = mods * p
        inv_cur = _inverse_table(p)[mods % p]
        keep_m, keep_r, keep_s = [mods], [residues], [signs]
        for c in {0, m}:
            k = (c - residues) % p * inv_cur % p
            r_new = residues + mods * k
            cnt = (b - r_new) // ext_m - (a - 1 - r_new) // ext_m
            nonzero = cnt > 0
            if not nonzero.any():
                continue
            total -= int(np.sum(signs[nonzero] * cnt[nonzero]))
            keep_m.append(ext_m[nonzero])
            keep_r.append(r_new[nonzero])
            keep_s.append(-signs[nonzero])
        mods = np.concatenate(keep_m)
        residues = np.concatenate(keep_r)
        signs = np.concatenate(keep_s)
    return total


def tilde_composite_pairs_ie(basis: ResidueBasis) -> int:
    """The tilde count by exact inclusion-exclusion instead of marking.

    One signed class tree over every basis prime counts the union of
    the classes {0, n mod p} (``_union_count``), hat + tilde, since a
    dividing prime's two classes are the one class 0; hat, from the
    signed products of the dividing primes, is taken off. Agrees with
    ``tilde_composite_pairs`` identically, independent of the marking.

    The domain is n < 2^26, for a basis of ``make_residue_basis``, and
    larger n raise ``ValueError``: a node of the tree holding two or more
    x has an int64 modulus below n, one holding a single x0 a modulus
    dividing x0 (n - x0), at most n^2 / 4, and a child multiplies it by
    some p <= sqrt(n), which stays below 2^63 while n < 2^26.
    """
    n, (a, b) = basis.n, basis.interval
    if n >= 1 << 26:
        raise ValueError(f"tilde inclusion-exclusion needs n < 2^26, got {n}")
    dividing = [p for p in basis.primes if n % p == 0]
    hat = _hat_inclusion_exclusion(_signed_divisors(dividing, b), a, b)
    return _union_count(n, basis.primes, a, b) - hat


# ---------------------------------------------------------------------------
# pair counts, survivor lists, the lower bound
# ---------------------------------------------------------------------------


def pair_counts(
    n: int, table: PrimeTable, interval: tuple[int, int] | None = None
) -> PairCounts:
    """Full hat/tilde/prime-pair partition of the interval for even n >= 8.

    One segmented pass computes all three counts; the hat count is then
    re-derived by inclusion-exclusion as a consistency check.
    """
    basis = make_residue_basis(n, table, interval)
    hat, composite, _ = _sieve(basis)
    return _partition(basis, hat, composite)


def prime_pair_list(
    n: int, table: PrimeTable, interval: tuple[int, int] | None = None
) -> list[int]:
    """Ascending survivors of the double sieve: every x with x and n - x
    prime over the interval: the array half of ``pair_counts_and_array``
    as a list."""
    return pair_counts_and_array(n, table, interval)[1].tolist()


def pair_counts_and_array(
    n: int, table: PrimeTable, interval: tuple[int, int] | None = None
) -> tuple[PairCounts, np.ndarray]:
    """``pair_counts`` and the ascending survivors from a single sieve
    pass, the survivors as the sieve's int array: int32 for n < 2^31,
    else int64."""
    basis = make_residue_basis(n, table, interval)
    hat, composite, survivors = _sieve(basis, with_list=True)
    return _partition(basis, hat, composite), survivors


def bound_value(n: int) -> float:
    """(n - 4*sqrt(n)) / ln(n - sqrt(n))^2 with real square roots."""
    _require_even(n, 26)
    root = math.sqrt(n)
    return (n - 4.0 * root) / math.log(n - root) ** 2


def _bound_row(n: int, prime_pairs: int) -> tuple[float, float, bool]:
    """``bound_value(n)``, and the margin and verdict of ``prime_pairs`` against it."""
    bound = bound_value(n)
    return bound, prime_pairs - bound, prime_pairs > bound


# ---------------------------------------------------------------------------
# scanning: columns of counts per span, the sieve as the verifier;
# optionally parallel over spans, always ascending
# ---------------------------------------------------------------------------

#: Bitmap positions a span of a scan covers at least, summed over its n
#: (about n/4 per n). A span's fixed cost, its bitmap and the two sieved
#: checks, is about 13 ms near n = 1e6, against about 70 us per n of
#: bitmap work there: at 2^29 positions it is under a tenth of the span.
_SPAN_POSITIONS = 1 << 29

#: Largest last n of a span that reads its pair counts off a prime bitmap.
#: A span's bitmap holds about 1.25 bytes per integer up to its last n
#: (the odd-only flags, their reverse and an AND buffer). The marking
#: kernel builds the flags in place, with two blocks of about 1 MB
#: beside them, so the build peaks near 0.5 bytes per integer and the
#: 1.25 is the peak: 160 MiB per process at 2^27, where a 21-n scan
#: ending at 2^27 read a VmHWM of 190 MiB. A span ending above this
#: constant sieves each of its n for the pair column instead, in
#: O(sqrt(n) + block) memory, so a scan's memory stays bounded whatever its end.
_BITMAP_MAX_END = 1 << 27


def _pair_count(odd: np.ndarray, rev: np.ndarray, buf: np.ndarray, n: int, a: int) -> int:
    """The x in [a, n - a] with x and n - x prime, read off the bitmap.

    ``odd[i]`` says whether 2i + 1 is prime and ``rev`` is ``odd``
    reversed, so n - (2i + 1) is prime exactly when
    ``rev[rev.size - n // 2 + i]`` is set. Since a >= 3, no even x pairs.
    The interval is symmetric about n/2, so only x <= n/2 is read: each
    pair counts twice, but for x = n/2 itself.
    """
    h = n // 2
    i0, i1 = a // 2, (h - 1) // 2
    s = rev.size - h
    hits = np.logical_and(odd[i0 : i1 + 1], rev[i0 + s : i1 + 1 + s], out=buf[: i1 - i0 + 1])
    return 2 * int(np.count_nonzero(hits)) - int(h % 2 == 1 and odd[h // 2])


#: A span of a scan as three int64 columns: its n, ascending, and each
#: n's hat and prime-pair counts over its default interval. A pool task
#: returns one, so three arrays cross each process boundary, not a
#: record per n; tilde and the bound are derived where they are read.
Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


def _hat_column(ns: np.ndarray, rs: np.ndarray, step: int, primes: Sequence[int]) -> np.ndarray:
    """hat over the default interval [r + 1, n - r - 1] of each n of a
    span's column ``ns``, r = isqrt(n - 1) in ``rs``. For d | n, it holds
    n/d - 2(r // d) - 1 multiples of d, so Euler's product and Moebius
    inversion give hat = n - 1 - n prod(1 - 1/p) + 2 sum(mu(d) (r // d)),
    over the primes p | n and the squarefree d > 1 dividing n, all <= r.
    mu is sieved up to the last r from ``primes``, which reach it. Each d
    passes over the n = start + k*step it divides from the first n > d*d
    on, with stride d / gcd(d, step) from k = -start/step (mod the stride);
    over none if gcd(d, step) does not divide start. A d that hits no n is
    dropped at once; the passes of the others are one array expression."""
    start, count, top = int(ns[0]), len(ns), int(rs[-1])
    mu = np.ones(top + 1, dtype=np.int64)
    for p in primes:
        if p > top:
            break
        mu[::p] *= -1
        mu[::p * p] = 0
    passes = []  # (d, first k, stride) of each d dividing some n; 2 divides all
    for d in (np.flatnonzero(mu[2:]) + 2).tolist():
        g = math.gcd(d, step)
        if start % g == 0:
            stride, first = d // g, max(0, (d * d - start) // step + 1)
            k = first + (-(start // g) * pow(step // g, -1, stride) - first) % stride
            if k < count:
                passes.append((d, k, stride))
    ds, ks, strides = np.array(passes, dtype=np.int64).T
    hits = (count - 1 - ks) // strides + 1
    d = np.repeat(ds, hits)  # one entry per hit: the j-th of a d is at its k + j*stride
    k = np.repeat(ks, hits) + np.repeat(strides, hits) * (
        np.arange(len(d)) - np.repeat(hits.cumsum() - hits, hits))
    total, num, den = np.zeros(count, np.int64), np.ones(count, np.int64), np.ones(count, np.int64)
    np.add.at(total, k, mu[d] * (rs[k] // d))
    prime = np.isin(d, primes)
    np.multiply.at(den, k[prime], d[prime])
    np.multiply.at(num, k[prime], d[prime] - 1)
    return ns - 1 - ns // den * num + 2 * total


def _span_task(span: tuple[int, int, int]) -> Columns:
    """Pool task: the columns of one span, from its one prime table, the
    primes <= sqrt(last n). hat is in closed form (``_hat_column``) and
    tilde is the rest. Only the pair column's source depends on the last
    n: at most ``_BITMAP_MAX_END``, an odd-only prime bitmap up to it,
    which the marking kernel builds from the table
    (``legendre._odd_prime_flags``), and the segment sieve re-derives the
    first and last n; above it, the sieve counts every n. One array check
    raises on a count no interval can hold; then each sieved record, its
    hat check included, is compared with the columns, and a disagreement
    raises. Every count is below n, so no int64 arithmetic can overflow."""
    start, end, step = span
    small = build_prime_table(math.isqrt(end))
    primes = small.primes.tolist()
    ns = np.arange(start, end + 1, step, dtype=np.int64)
    rs = np.sqrt(ns - 1).astype(np.int64)  # isqrt(n - 1): exact, as n < 2^52
    engine = "bitmap" if end <= _BITMAP_MAX_END else "closed-form"
    if engine == "bitmap":
        odd = _odd_prime_flags(end, primes)
        rev = odd[::-1].copy()
        buf = np.empty(odd.size // 2 + 1, dtype=bool)
        pairs = np.array([_pair_count(odd, rev, buf, n, r + 1)
                          for n, r in zip(ns.tolist(), rs.tolist())], dtype=np.int64)
        checked = sorted({0, len(ns) - 1})
        sieved = [pair_counts(int(ns[i]), small) for i in checked]
    else:
        checked = range(len(ns))
        sieved = [pair_counts(n, small) for n in ns.tolist()]
        pairs = np.array([r.prime_pairs for r in sieved], dtype=np.int64)
    hats = _hat_column(ns, rs, step, primes)
    lengths = ns - 2 * rs - 1
    bad = (pairs < 0) | (hats < 0) | (hats + pairs > lengths)
    if bad.any():
        i = bad.argmax()
        raise RuntimeError(f"{engine} counts hat={hats[i]} prime_pairs={pairs[i]} impossible "
                           f"over {lengths[i]} positions for n={ns[i]}")
    for i, want in zip(checked, sieved):
        if (hats[i], pairs[i]) != (want.hat, want.prime_pairs):
            raise RuntimeError(f"{engine} counts hat={hats[i]} prime_pairs={pairs[i]} != sieved "
                               f"hat={want.hat} prime_pairs={want.prime_pairs} for n={ns[i]}")
    return ns, hats, pairs


def _spans(start: int, end: int, step: int) -> list[tuple[int, int, int]]:
    """(first n, last n, step) per span: runs of consecutive n whose bitmap
    positions reach ``_SPAN_POSITIONS``; the last may be short."""
    spans = []
    first, work = start, 0
    for n in range(start, end + 1, step):
        work += n // 4
        if work >= _SPAN_POSITIONS or n + step > end:
            spans.append((first, n, step))
            first, work = n + step, 0
    return spans


def _pool_size(workers: int) -> int:
    """Worker processes actually started for ``workers`` >= 1: more than
    one per CPU this process may run on only adds contention, so the
    request is clamped to them. The CPUs are the affinity set where the
    platform has one, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


def _validate_scan_range(start: int, end: int, step: int, minimum: int, workers: int) -> None:
    """The one check of a scan's arguments: its range, then ``workers``."""
    if start % 2 or end % 2:
        raise ValueError(f"start and end must be even, got {start}, {end}")
    if not minimum <= start <= end:
        raise ValueError(f"need {minimum} <= start <= end, got start={start}, end={end}")
    if step < 2 or step % 2:
        raise ValueError(f"step must be a positive even integer, got {step}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def scan_bounds(
    start: int, end: int, step: int = 2, *, workers: int = 1
) -> Iterator[PairCounts]:
    """``iter_pair_counts`` for start >= 26, where every record has its
    ``bound``, ``margin`` and ``holds``. The range is checked at the call,
    not at the first record, so a caller can reject it before writing.
    Use ``ScanSummary.add`` on the stream for the aggregate (minimum
    margin, violation count).
    """
    _validate_scan_range(start, end, step, minimum=26, workers=workers)
    return iter_pair_counts(start, end, step, workers=workers)


def scan_columns(
    start: int, end: int, step: int = 2, *, workers: int = 1
) -> Iterator[Columns]:
    """``scan_bounds`` as columns: per span, in ascending n, the int64
    arrays n, hat and prime_pairs of its records, whose interval is each
    n's default one. The range is checked at the call, as there.
    """
    _validate_scan_range(start, end, step, minimum=26, workers=workers)
    return _span_columns(start, end, step, workers)


def iter_pair_counts(
    start: int, end: int, step: int = 2, *, workers: int = 1
) -> Iterator[PairCounts]:
    """PairCounts for every even n in [start, end] by ``step``; minimum
    start is 8. Records come out in ascending n whatever ``workers`` is:
    parallel spans are consumed in submission order, and each span's
    records are built in this process from its columns.

    The n are cut into spans of about ``_SPAN_POSITIONS`` bitmap
    positions, each with hat in closed form and its pair counts off its
    own prime bitmap, checked by the sieve at its first and last n; a
    span whose last n exceeds ``_BITMAP_MAX_END`` sieves every n instead.
    ``workers`` < 1 raises ``ValueError`` at the first ``next``. A scan of
    fewer than two spans, or with one worker process, runs in this
    process; otherwise a pool of ``workers`` processes, clamped to the
    CPU count, takes the spans.
    """
    _validate_scan_range(start, end, step, minimum=8, workers=workers)
    for ns, hats, pairs in _span_columns(start, end, step, workers):
        for n, hat, count in zip(ns.tolist(), hats.tolist(), pairs.tolist()):
            a, b = default_interval(n)
            yield PairCounts(n, (a, b), hat, b - a + 1 - hat - count, count)


def _span_columns(start: int, end: int, step: int, workers: int) -> Iterator[Columns]:
    """The columns of each span of the scan that ``iter_pair_counts``
    describes, in ascending n."""
    spans = _spans(start, end, step)
    workers = _pool_size(workers)
    if workers == 1 or len(spans) < 2:
        yield from map(_span_task, spans)
        return
    # imported here, so that loading the package never loads multiprocessing
    from multiprocessing import Pool

    with Pool(workers) as pool:
        yield from pool.imap(_span_task, spans)
