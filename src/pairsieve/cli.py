"""Command-line surface.

Commands and the flags each one reads
-------------------------------------
primecount N    prime count by one of three interchangeable methods
                --method, --oracle-check, --emit, --out
composites N    composite count likewise
                --method, --oracle-check, --emit, --out
goldbach N      interval prime-pair partition, optionally the pair list
                --list (human or json only), --interval, --oracle-check,
                --emit, --out
scan-bound A B  stream per-n records comparing pair counts to the bound
                --step, --emit, --workers, --out
selftest        run the library's invariant suites
                --max-n, --epsilon, --out

A run is parsed by the named command's own parser, ``pairsieve <command>``.
The full tree of ``build_parser`` is built only for what only it words:
no command, an unknown command, top-level -h, and arguments left over by
the command's parser. Every help text, error and exit stays the tree's.
In a fresh process that takes ``main(["primecount", "10"])`` from 2.4 to
1.8 ms, or from 4.4 to 2.7 ms in a slower stretch of a shared host
(``BENCH_27.json``). What is left is mostly argparse's own first use:
gettext's import of locale and argparse's regex compiles.

Exit codes: 0 success, 1 verification or bound failure, 2 usage error,
out of memory, or output that cannot be written.
CSV and JSON-lines output is byte-deterministic for identical inputs,
independent of --workers.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import random
import sys
from types import MappingProxyType
from typing import IO, Iterator

import numpy as np

from . import legendre, oracle, xi
from .theta import (
    DEFAULT_EPSILON,
    ThetaMode,
    double_theta,
    float_approx,
    theta,
    theta_sin,
    theta_sin_array,
    theta_sin_shift,
    theta_sum_identity,
)

__all__ = ["build_parser", "main", "entrypoint"]

FORMATS = ("human", "csv", "json")
_EMIT = MappingProxyType(
    dict(choices=FORMATS, default="human", help="output format (default: human)"))


#: Values per piece of ``_write_ints``. Below 2^31 a value takes at most
#: 12 bytes of text (10 digits and a 2-byte separator), so a piece's
#: largest buffers (the digit matrix, its bytes and their str) hold at
#: most 96 KiB: under glibc's 128 KiB mmap threshold, so the allocator
#: reuses them from piece to piece rather than mapping them anew and
#: faulting their pages in again. At 2^16 values a repeated write of the
#: 402,320 pairs of n = 19,429,410 took 788 minor faults, at 2^13 none.
_PIECE = 1 << 13


def _write_ints(out: IO[str], values: np.ndarray, sep: str) -> None:
    """Write ``sep.join(map(str, values))`` for ascending nonnegative ints.

    An ascending array holds one contiguous run per digit count, cut here
    into pieces of at most ``_PIECE`` values. Each piece becomes a uint8
    matrix with a row per digit place, then the separator, and a column
    per value; the digits come from floor division by 10 on the smallest
    unsigned dtype that holds the piece, which numpy divides by a
    constant faster than int64. The transposed matrix is the piece's
    text, written before the next piece is built.
    """
    if not values.size:
        return
    # the powers of ten in the array's own dtype, so that the search does
    # not first copy an int32 array to int64
    powers = np.array([10**k for k in range(1, len(str(values[-1])))], values.dtype)
    cuts = values.searchsorted(powers)
    edges = sorted({*cuts.tolist(), *range(0, values.size, _PIECE), values.size})
    tail = np.frombuffer(sep.encode("ascii"), np.uint8)[:, None]
    for i, j in zip(edges, edges[1:]):
        top = int(values[j - 1])
        width = len(str(top))
        v = values[i:j].astype(np.min_scalar_type(top))
        digits = np.empty((width + len(sep), j - i), np.uint8)
        digits[width:] = tail
        for place in range(width - 1, 0, -1):
            q = v // 10
            digits[place] = v - q * 10
            v = q
        digits[0] = v
        digits[:width] += ord("0")
        text = digits.T.tobytes()
        out.write((text if j < values.size else text[:-len(sep)]).decode("ascii"))


#: Largest n that ``--oracle-check`` takes, and largest ``selftest
#: --max-n``. Its Eratosthenes table holds a flag per integer up to n and
#: the int64 primes, 1.45 bytes per integer (195 MB at 2^27, 1.4 GB at
#: 1e9), and building it peaks near 1.9. A larger n is a usage error,
#: found before any work.
_ORACLE_MAX_N = 1 << 27


#: The commands in the order that ``pairsieve -h`` lists them, each with
#: its line of that listing; ``_add_arguments`` defines what each reads.
_COMMANDS = MappingProxyType({
    "primecount": "count primes <= N",
    "composites": "count composites <= N",
    "goldbach": "interval prime-pair counts for even N",
    "scan-bound": "scan even n against the pair-count lower bound",
    "selftest": "run the invariant suites",
})


def _add_arguments(p: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """Add ``command``'s arguments and its handler to ``p``: the one
    definition that both its own parser and its place in ``build_parser``'s
    tree read."""
    if command in ("primecount", "composites"):
        p.add_argument("n", type=int)
        p.add_argument("--method", default="legendre", choices=(
            legendre.PRIME_METHODS if command == "primecount" else legendre.COMPOSITE_METHODS))
        p.add_argument("--oracle-check", action="store_true")
        p.add_argument("--emit", **_EMIT)
        p.set_defaults(func=cmd_count)
    elif command == "goldbach":
        p.add_argument("n", type=int)
        p.add_argument("--list", action="store_true", dest="list_pairs",
                       help="also print the surviving x values")
        p.add_argument("--interval", default="auto",
                       help="'auto' for [ceil(sqrt(N)), N-ceil(sqrt(N))] or A:B")
        p.add_argument("--oracle-check", action="store_true")
        p.add_argument("--emit", **_EMIT)
        p.set_defaults(func=cmd_goldbach)
    elif command == "scan-bound":
        p.add_argument("start", type=int)
        p.add_argument("end", type=int)
        p.add_argument("--step", type=int, default=2)
        p.add_argument("--emit", **_EMIT)
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for the scan (default: 1)")
        p.set_defaults(func=cmd_scan_bound)
    else:
        p.add_argument("--max-n", type=int, default=20000, dest="max_n")
        p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                       help="tolerance of the float theta semantics that the "
                            "float-exact-agreement suite compares against exact")
        p.set_defaults(func=cmd_selftest)
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write records to FILE instead of stdout")
    return p


def build_parser() -> argparse.ArgumentParser:
    """The full tree: ``pairsieve`` with a subparser per command.

    ``main`` builds it only for what only the tree can word: no command,
    an unknown command, top-level ``-h``, and arguments that the named
    command's own parser left over, which the tree rejects with its
    top-level usage line. Its six parsers cost a fresh process 0.6 to
    1.7 ms more than one command's parser."""
    parser = argparse.ArgumentParser(
        prog="pairsieve",
        description="Prime, composite and interval prime-pair counting "
                    "with verified residue sieves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, line in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=line), command)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the same namespace, output
    and exit, from one parser where ``argv[0]`` names a command: the tree
    hands that command's subparser, whose prog is ``pairsieve <command>``,
    all of ``argv[1:]``, so the command's parser alone decides every help
    text and error but that of leftover arguments."""
    if argv and argv[0] in _COMMANDS:
        command = argv[0]
        parser = _add_arguments(argparse.ArgumentParser(prog=f"pairsieve {command}"), command)
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=command))
        if not extras:
            return args
    return build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# counting commands
# ---------------------------------------------------------------------------


def cmd_count(args: argparse.Namespace, out: IO[str]) -> int:
    """``primecount`` and ``composites``: the count by ``--method``, and
    with ``--oracle-check`` the same count off the oracle's table."""
    primes = args.command == "primecount"
    count = (legendre.prime_count if primes else legendre.composite_count)(args.n, args.method)
    if args.emit == "human":
        print(count, file=out)
    elif args.emit == "csv":
        print("n,method,count", file=out)
        print(f"{args.n},{args.method},{count}", file=out)
    else:
        print(json.dumps({"n": args.n, "method": args.method, "count": count}), file=out)
    if args.oracle_check:
        pi = oracle.pi_oracle(oracle.build_prime_table(args.n), args.n)
        expected = pi if primes else args.n - pi - 1
        if count != expected:
            print(f"oracle mismatch: method {args.method} gave {count}, "
                  f"oracle gives {expected}", file=sys.stderr)
            return 1
    return 0


# ---------------------------------------------------------------------------
# goldbach
# ---------------------------------------------------------------------------


def _parse_interval(spec: str) -> tuple[int, int] | None:
    if spec == "auto":
        return None
    try:
        a_s, b_s = spec.split(":", 1)
        return int(a_s), int(b_s)
    except (ValueError, TypeError):
        raise ValueError(f"--interval must be 'auto' or A:B, got {spec!r}") from None


def cmd_goldbach(args: argparse.Namespace, out: IO[str]) -> int:
    if args.list_pairs and args.emit == "csv":
        raise ValueError("--list needs --emit human or json: the csv record has no list")
    n = args.n
    interval = _parse_interval(args.interval)
    legendre._require_even(n, 8)
    table = oracle.build_prime_table(max(math.isqrt(n), 2))
    if args.list_pairs or args.oracle_check:
        counts, pairs = xi.pair_counts_and_array(n, table, interval)
    else:
        counts, pairs = xi.pair_counts(n, table, interval), None

    a, b = counts.interval
    if args.emit == "human":
        print(f"n={n} interval=[{a},{b}] length={counts.length}", file=out)
        print(f"prime_pairs={counts.prime_pairs} composite_pairs={counts.composite_pairs} "
              f"hat={counts.hat} tilde={counts.tilde}", file=out)
        if args.list_pairs:
            out.write("x: ")
            _write_ints(out, pairs, " ")
            print(file=out)
    elif args.emit == "csv":
        print("n,a,b,interval_len,hat,tilde,composite_pairs,prime_pairs", file=out)
        print(f"{n},{a},{b},{counts.length},{counts.hat},{counts.tilde},"
              f"{counts.composite_pairs},{counts.prime_pairs}", file=out)
    else:
        record = json.dumps({
            "n": n, "a": a, "b": b, "interval_len": counts.length,
            "hat": counts.hat, "tilde": counts.tilde,
            "composite_pairs": counts.composite_pairs, "prime_pairs": counts.prime_pairs,
        })
        if args.list_pairs:
            # the same bytes as json.dumps with "x" as the record's last key
            out.write(f'{record[:-1]}, "x": [')
            _write_ints(out, pairs, ", ")
            record = "]}"
        print(record, file=out)

    if args.oracle_check:
        # the sieve keeps x when x and n - x are each 1 or a prime > isqrt(n)
        full, r = oracle.build_prime_table(n), math.isqrt(n)
        ends = [x for x in (1, n - 1) if a <= x <= b and full.flags[n - 1]]
        expected = sorted(ends + [x for x in oracle.goldbach_pairs_oracle(
            full, n, counts.interval) if r < x < n - r])
        if not np.array_equal(pairs, expected):
            print(f"oracle mismatch for n={n}: sieve found {len(pairs)} pairs, "
                  f"brute force found {len(expected)}", file=sys.stderr)
            return 1
    if pairs is not None and counts.prime_pairs != len(pairs):
        print(f"internal mismatch: count {counts.prime_pairs} != list {len(pairs)}",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# scan-bound
# ---------------------------------------------------------------------------


def cmd_scan_bound(args: argparse.Namespace, out: IO[str]) -> int:
    """The records of ``scan-bound``, formatted straight from the scan's
    columns, a span's lines in one write; each row's bound, margin and
    holds are ``ScanSummary.add_row``'s, a record's, so the bytes are a
    record's."""
    # the range is checked at the call, before the csv header, so that a
    # rejected range writes nothing
    columns = xi.scan_columns(args.start, args.end, args.step, workers=args.workers)
    summary = xi.ScanSummary()
    if args.emit == "csv":
        print("n,prime_pairs,hat,tilde,interval_len,bound,margin,holds", file=out)
    for ns, hats, pairs in columns:
        lines = []
        for n, hat, count in zip(ns.tolist(), hats.tolist(), pairs.tolist()):
            a, b = xi.default_interval(n)
            length = b - a + 1
            tilde = length - hat - count
            bound, margin, holds = summary.add_row(n, count)
            if args.emit == "human":
                lines.append(f"n={n} prime_pairs={count} hat={hat} tilde={tilde} len={length} "
                             f"bound={bound:.6g} margin={margin:.6g} "
                             f"holds={'true' if holds else 'false'}\n")
            elif args.emit == "csv":
                lines.append(f"{n},{count},{hat},{tilde},{length},{bound:.6g},{margin:.6g},"
                             f"{'true' if holds else 'false'}\n")
            else:
                lines.append(json.dumps({
                    "n": n, "prime_pairs": count, "hat": hat, "tilde": tilde,
                    "interval_len": length, "bound": bound, "margin": margin,
                    "holds": holds,
                }) + "\n")
        out.write("".join(lines))
    summary_line = (f"scanned={summary.count} violations={summary.violations} "
                    f"min_margin={summary.min_margin:.6g} at n={summary.min_margin_n}")
    print(summary_line, file=out if args.emit == "human" else sys.stderr)
    return 1 if summary.violations else 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

SUITES = ("oracle-equivalence", "partition", "symmetry", "identity", "float-exact-agreement")

#: One batch of checks: its suite, how many checks it ran, and the
#: counterexamples of those that failed.
Check = tuple[str, int, list[str]]

#: Draws per array batch of the float-exact-agreement suite; one grid row
#: is one batch too. Batches keep the arrays, and so the peak memory, small.
_BATCH = 2000


def _pair_checks(max_n: int) -> Iterator[Check]:
    """Per even n: the three prime counts and the sieved pair list against
    the oracles, and the partition: the pair count against the list's
    length. Composites + primes + 1 = n needs no check of its own: with
    the composites n - 1 less the ``"survivor"`` count, as
    ``"direct-mark"`` returns them, it holds exactly when ``survivor``
    equals ``legendre``, and each is checked against the oracle. On a
    sample of n: a separate ``prime_pair_list`` call against brute force,
    and the symmetry x -> n - x for each prime p of n's basis
    (``legendre.make_basis``), class 0 against class n % p; the pair list
    equals brute force over a symmetric interval, so it is closed under
    x -> n - x without a check. One prime table serves every count and
    sieve, and one ``pair_counts_and_array`` pass per n, whose survivors
    are made a list here.

    Each suite keeps one tally, its check count and its counterexamples
    in the order the checks ran, and is yielded once, after the last n:
    a batch per suite rather than one per check, which at ``--max-n
    2000`` would be 5,246 batches."""
    table = oracle.build_prime_table(max_n)
    sample = set(range(8, max_n + 1, 94)) | {8, 16, 100, max_n - max_n % 2}
    equivalence, partition, symmetry = [], [], []  # the counterexamples of each suite
    equivalence_checks = partition_checks = symmetry_checks = 0
    for n in range(8, max_n + 1, 2):
        expected = oracle.pi_oracle(table, n)
        for method in legendre.PRIME_METHODS:
            got = legendre.prime_count(n, method, table)
            if got != expected:
                equivalence.append(f"prime_count({n}, {method}) = {got}, oracle {expected}")
        counts, survivors = xi.pair_counts_and_array(n, table)
        pairs = survivors.tolist()
        brute = oracle.goldbach_pairs_oracle(table, n, counts.interval)
        if pairs != brute:
            equivalence.append(f"pair list at n={n} disagrees with brute force")
        if counts.prime_pairs != len(pairs):
            partition.append(f"prime_pairs {counts.prime_pairs} != list length {len(pairs)} "
                             f"at n={n}")
        equivalence_checks += len(legendre.PRIME_METHODS) + 1
        partition_checks += 1
        if n not in sample:
            continue
        # the list half of the same pass as its own public call; kept, with
        # its check count, so a traced run still records a prime_pair_list span
        if xi.prime_pair_list(n, table) != brute:
            equivalence.append(f"prime_pair_list({n}) disagrees with brute force")
        equivalence_checks += 1
        for p in legendre.make_basis(n, table):
            # class m of [1, n - 1] is the multiples of p in [1 + p - m, n - 1 + p - m]
            m = n % p
            fwd = legendre.count_multiples(1, n - 1, p)
            bwd = legendre.count_multiples(1 + p - m, n - 1 + p - m, p)
            if not (fwd == bwd and theta_sin_shift(n, m, p)):
                symmetry.append(f"divisor-count symmetry broken: n={n}, p={p}, m={m}")
            symmetry_checks += 1
    yield "oracle-equivalence", equivalence_checks, equivalence
    yield "partition", partition_checks, partition
    yield "symmetry", symmetry_checks, symmetry


def _words(rng: random.Random, k: int) -> np.ndarray:
    """k 64-bit words from the seeded ``rng`` in one call."""
    return np.frombuffer(rng.randbytes(8 * k), "<u8")


def _draw_ints(rng: random.Random, lo: int, hi: int, k: int) -> np.ndarray:
    """k ints in [lo, hi]: each word modulo hi - lo + 1, a bias below
    2^-40 for every range the suites draw from."""
    return (_words(rng, k) % np.uint64(hi - lo + 1)).astype(np.int64) + lo


def _draw_nonzero(rng: random.Random, bound: int, k: int) -> np.ndarray:
    """k nonzero ints in [-bound, bound]: draws in [0, bound) move up one."""
    v = _draw_ints(rng, -bound, bound - 1, k)
    return v + (v >= 0)


def _draw_floats(rng: random.Random, lo: float, hi: float, k: int) -> np.ndarray:
    """k floats in [lo, hi], formed as ``random.uniform`` forms them from
    a 53-bit fraction: the top bits of each word."""
    return lo + (hi - lo) * ((_words(rng, k) >> np.uint64(11)) * 2.0**-53)


def _draw_operands(rng: random.Random, k: int) -> np.ndarray:
    """k floats, each 0.0 with probability 0.1, else uniform in [-1e3, 1e3]."""
    zero = _draw_floats(rng, 0.0, 1.0, k) < 0.1
    return np.where(zero, 0.0, _draw_floats(rng, -1e3, 1e3, k))


def _identity_checks(rng: random.Random) -> Iterator[Check]:
    """The scaling identity, the product rule and the sum identity, one
    batch each, on scalar Python values drawn in bulk; then the sum
    identity's known counterexample (1, -1)."""
    draws = 2000  # per identity
    scales = _draw_floats(rng, -1e6, 1e6, draws).tolist()
    factors = _draw_nonzero(rng, 10, draws).tolist()
    powers = _draw_ints(rng, 1, 5, draws).tolist()
    yield "identity", draws, [f"scaling identity broken at m={m}, k={k}, s={s!r}"
                              for s, m, k in zip(scales, factors, powers)
                              if theta(m * s**k) != theta(s)]
    left, right = _draw_operands(rng, draws).tolist(), _draw_operands(rng, draws).tolist()
    yield "identity", draws, [f"product rule broken at a={a!r}, b={b!r}"
                              for a, b in zip(left, right)
                              if double_theta(a * b) != double_theta(a) * double_theta(b)]
    left, right = _draw_operands(rng, draws).tolist(), _draw_operands(rng, draws).tolist()
    sums = [(x, y, *theta_sum_identity(x, y)) for x, y in zip(left, right)
            if not (x + y == 0 and x != 0)]
    yield "identity", len(sums), [f"sum identity broken at x={x!r}, y={y!r}"
                                  for x, y, lhs, rhs in sums if lhs != rhs]
    lhs, rhs = theta_sum_identity(1, -1)
    yield "identity", 1, [] if lhs != rhs else ["sum identity unexpectedly held at (1, -1)"]


def _agreement(x: np.ndarray, d: np.ndarray, mode: ThetaMode) -> Check:
    """One batch of float-exact-agreement: both modes of ``theta_sin_array``
    at every (x, d), in order. At the first (x, d) the scalar ``theta_sin``
    is compared with the array results too, as part of that check, so a
    batch has at most one failure per element."""
    exact, approx = theta_sin_array(x, d), theta_sin_array(x, d, mode)
    x0, d0 = int(x[0]), int(d[0])
    if (theta_sin(x0, d0), theta_sin(x0, d0, mode)) != (exact[0], approx[0]):
        failures = [f"scalar theta_sin disagrees with the array path at x={x0}, d={d0}"]
    elif exact[0] != approx[0]:
        failures = [f"mode disagreement at x={x0}, d={d0}"]
    else:
        failures = []
    failures += [f"mode disagreement at x={x[i]}, d={d[i]}"
                 for i in (np.flatnonzero(exact[1:] != approx[1:]) + 1).tolist()]
    return "float-exact-agreement", len(x), failures


def _float_exact_checks(mode: ThetaMode, rng: random.Random, max_n: int) -> Iterator[Check]:
    """Every x in [0, 2000) against every d in 1..50, one row per d, then
    20,000 random (x, d) in batches of ``_BATCH``."""
    xs = np.arange(2000)
    for d in range(1, 51):
        yield _agreement(xs, np.full_like(xs, d), mode)
    hi = min(max_n * 50, 10**6)
    for _ in range(20000 // _BATCH):
        d, x = _draw_ints(rng, 1, 1000, _BATCH), _draw_ints(rng, 0, hi, _BATCH)
        yield _agreement(x, d, mode)


def cmd_selftest(args: argparse.Namespace, out: IO[str]) -> int:
    mode = float_approx(args.epsilon)
    if args.max_n < 100:
        raise ValueError(f"--max-n must be >= 100, got {args.max_n}")
    if args.max_n > _ORACLE_MAX_N:
        raise ValueError(f"--max-n must be <= {_ORACLE_MAX_N}, got {args.max_n}")
    rng = random.Random(20240901)
    checks = dict.fromkeys(SUITES, 0)
    failures: dict[str, list[str]] = {name: [] for name in SUITES}
    for run in (_pair_checks(args.max_n), _identity_checks(rng),
                _float_exact_checks(mode, rng, args.max_n)):
        for suite, ran, failed in run:
            checks[suite] += ran
            failures[suite] += failed
    for name in SUITES:
        status = "ok" if not failures[name] else "FAIL"
        print(f"{name}: {checks[name]} checks, {len(failures[name])} failures [{status}]",
              file=out)
        if failures[name]:
            print(f"  first counterexample: {failures[name][0]}", file=out)
    return 1 if any(failures.values()) else 0


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


class _OutFile:
    """A command's output: ``--out FILE``, or stdout where ``path`` is
    None or empty. FILE is opened for writing, and so emptied, at the first write:
    a command that rejects its arguments before writing leaves FILE as it
    was. A FILE that cannot be opened is a usage error, found here, before
    the command's work, without making or emptying FILE. A write or close
    that fails, to FILE or to stdout, is the same usage error."""

    def __init__(self, path: str | None) -> None:
        self.path = path
        self.file: IO[str] | None = None if path else sys.stdout
        if not path:
            return
        try:
            if os.path.isfile(path) or os.path.isdir(path):
                os.close(os.open(path, os.O_WRONLY))  # no O_CREAT, no O_TRUNC
            elif not os.path.exists(path):
                parent = os.path.dirname(path) or "."
                if not os.path.isdir(parent):
                    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
                if not os.access(parent, os.W_OK | os.X_OK):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            # a FIFO is left to the first write: a second open and close here
            # would end its reader's input before any record is written
        except OSError as exc:
            raise self._failed(exc) from None

    def _failed(self, exc: OSError) -> ValueError:
        return ValueError(f"cannot write {self.path or 'stdout'}: {exc.strerror}")

    def write(self, text: str) -> int:
        try:
            if self.file is None:
                self.file = open(self.path, "w", encoding="utf-8", newline="\n")
            return self.file.write(text)
        except OSError as exc:
            raise self._failed(exc) from None

    def close(self) -> None:
        """Close FILE, or flush stdout, so that a failure is raised here."""
        try:
            if not self.path:
                self.file.flush()
            elif self.file is not None:
                self.file.close()
        except OSError as exc:
            raise self._failed(exc) from None


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "oracle_check", False) and args.n > _ORACLE_MAX_N:
            raise ValueError(f"--oracle-check needs n <= {_ORACLE_MAX_N}, got {args.n}")
        out = _OutFile(args.out)
        try:
            return args.func(args, out)
        finally:  # inside the try, so that a failed close is reported
            out.close()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a failed internal cross-check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """``main`` on ``sys.argv``. Where ``main`` could not write stdout,
    the bytes it buffered would fail the interpreter's final flush, with
    an ``Exception ignored`` line and exit 120; so, as the ``signal``
    module's note on SIGPIPE does, fd 1 is pointed at ``os.devnull`` first."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
