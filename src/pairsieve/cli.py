"""Command-line surface.

Commands
--------
primecount N    prime count by one of three interchangeable methods
composites N    composite count likewise
goldbach N      interval prime-pair partition, optionally the pair list
scan-bound A B  stream per-n records comparing pair counts to the bound
selftest        run the library's invariant suites

Exit codes: 0 success, 1 verification or bound failure, 2 usage error.
CSV and JSON-lines output is byte-deterministic for identical inputs,
independent of --workers.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from typing import IO, Callable

from . import legendre, oracle, xi
from .theta import (
    DEFAULT_EPSILON,
    EXACT,
    ThetaMode,
    double_theta,
    float_approx,
    theta,
    theta_sin,
    theta_sum_identity,
)

__all__ = ["RunConfig", "build_parser", "main", "entrypoint"]

FORMATS = ("human", "csv", "json")


@dataclass
class RunConfig:
    mode: ThetaMode
    format: str
    workers: int
    out: IO[str]


def _fmt6(v: float) -> str:
    return f"{v:.6g}"


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("exact", "float"), default="exact",
                        help="theta evaluation semantics (default: exact)")
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                        help="tolerance for float mode")
    parser.add_argument("--emit", choices=FORMATS, default="human",
                        help="output format (default: human)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for scans (default: 1)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write records to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairsieve",
        description="Prime, composite and interval prime-pair counting "
                    "with verified residue sieves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("primecount", help="count primes <= N")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=legendre.PRIME_METHODS, default="legendre")
    p.add_argument("--oracle-check", action="store_true")
    _common_flags(p)
    p.set_defaults(func=cmd_primecount)

    p = sub.add_parser("composites", help="count composites <= N")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=legendre.COMPOSITE_METHODS, default="legendre")
    p.add_argument("--oracle-check", action="store_true")
    _common_flags(p)
    p.set_defaults(func=cmd_composites)

    p = sub.add_parser("goldbach", help="interval prime-pair counts for even N")
    p.add_argument("n", type=int)
    p.add_argument("--list", action="store_true", dest="list_pairs",
                   help="also print the surviving x values")
    p.add_argument("--interval", default="auto",
                   help="'auto' for [ceil(sqrt(N)), N-ceil(sqrt(N))] or A:B")
    p.add_argument("--oracle-check", action="store_true")
    _common_flags(p)
    p.set_defaults(func=cmd_goldbach)

    p = sub.add_parser("scan-bound", help="scan even n against the pair-count lower bound")
    p.add_argument("start", type=int)
    p.add_argument("end", type=int)
    p.add_argument("--step", type=int, default=2)
    _common_flags(p)
    p.set_defaults(func=cmd_scan_bound)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--max-n", type=int, default=20000, dest="max_n")
    _common_flags(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def _config_from(args: argparse.Namespace, out: IO[str]) -> RunConfig:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    if args.mode == "float":
        mode = float_approx(args.epsilon)
    else:
        mode = EXACT
    return RunConfig(mode=mode, format=args.emit, workers=args.workers, out=out)


# ---------------------------------------------------------------------------
# counting commands
# ---------------------------------------------------------------------------


def _emit_count(config: RunConfig, n: int, method: str, count: int) -> None:
    if config.format == "human":
        print(count, file=config.out)
    elif config.format == "csv":
        print("n,method,count", file=config.out)
        print(f"{n},{method},{count}", file=config.out)
    else:
        print(json.dumps({"n": n, "method": method, "count": count}), file=config.out)


def cmd_primecount(args: argparse.Namespace, config: RunConfig) -> int:
    count = legendre.prime_count(args.n, args.method)
    _emit_count(config, args.n, args.method, count)
    if args.oracle_check:
        expected = oracle.pi_oracle(oracle.build_prime_table(args.n), args.n)
        if count != expected:
            print(f"oracle mismatch: method {args.method} gave {count}, "
                  f"sieve oracle gives {expected}", file=sys.stderr)
            return 1
    return 0


def cmd_composites(args: argparse.Namespace, config: RunConfig) -> int:
    count = legendre.composite_count(args.n, args.method)
    _emit_count(config, args.n, args.method, count)
    if args.oracle_check:
        expected = args.n - oracle.pi_oracle(oracle.build_prime_table(args.n), args.n) - 1
        if count != expected:
            print(f"oracle mismatch: method {args.method} gave {count}, "
                  f"oracle gives {expected}", file=sys.stderr)
            return 1
    return 0


# ---------------------------------------------------------------------------
# goldbach
# ---------------------------------------------------------------------------


def _parse_interval(spec: str, n: int) -> tuple[int, int] | None:
    if spec == "auto":
        return None
    try:
        a_s, b_s = spec.split(":", 1)
        return int(a_s), int(b_s)
    except (ValueError, TypeError):
        raise ValueError(f"--interval must be 'auto' or A:B, got {spec!r}") from None


def cmd_goldbach(args: argparse.Namespace, config: RunConfig) -> int:
    n = args.n
    interval = _parse_interval(args.interval, n)
    table = oracle.build_prime_table(max(math.isqrt(n), 2))
    if args.list_pairs or args.oracle_check:
        counts, pairs = xi.pair_counts_and_list(n, table, interval)
    else:
        counts, pairs = xi.pair_counts(n, table, interval), None

    a, b = counts.interval
    if config.format == "human":
        print(f"n={n} interval=[{a},{b}] length={counts.length}", file=config.out)
        print(f"prime_pairs={counts.prime_pairs} composite_pairs={counts.composite_pairs} "
              f"hat={counts.hat} tilde={counts.tilde}", file=config.out)
        if args.list_pairs:
            print("x:", " ".join(str(x) for x in pairs), file=config.out)
    elif config.format == "csv":
        print("n,a,b,interval_len,hat,tilde,composite_pairs,prime_pairs", file=config.out)
        print(f"{n},{a},{b},{counts.length},{counts.hat},{counts.tilde},"
              f"{counts.composite_pairs},{counts.prime_pairs}", file=config.out)
    else:
        record: dict = {
            "n": n, "a": a, "b": b, "interval_len": counts.length,
            "hat": counts.hat, "tilde": counts.tilde,
            "composite_pairs": counts.composite_pairs, "prime_pairs": counts.prime_pairs,
        }
        if args.list_pairs:
            record["x"] = pairs
        print(json.dumps(record), file=config.out)

    if args.oracle_check:
        full = oracle.build_prime_table(n)
        expected = oracle.goldbach_pairs_oracle(full, n, counts.interval)
        if pairs != expected:
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


def cmd_scan_bound(args: argparse.Namespace, config: RunConfig) -> int:
    start, end, step = args.start, args.end, args.step
    if start < 26:
        raise ValueError(f"start must be >= 26, got {start}")
    summary = xi.ScanSummary()
    out = config.out
    if config.format == "csv":
        print("n,prime_pairs,hat,tilde,interval_len,bound,margin,holds", file=out)
    for counts in xi.iter_pair_counts(start, end, step, workers=config.workers):
        bound = xi.bound_value(counts.n)
        margin = counts.prime_pairs - bound
        holds = counts.prime_pairs > bound
        summary.add(xi.BoundReport(n=counts.n, prime_pairs=counts.prime_pairs,
                                   bound=bound, margin=margin, holds=holds))
        if config.format == "human":
            print(f"n={counts.n} prime_pairs={counts.prime_pairs} hat={counts.hat} "
                  f"tilde={counts.tilde} len={counts.length} bound={_fmt6(bound)} "
                  f"margin={_fmt6(margin)} holds={_fmt_bool(holds)}", file=out)
        elif config.format == "csv":
            print(f"{counts.n},{counts.prime_pairs},{counts.hat},{counts.tilde},"
                  f"{counts.length},{_fmt6(bound)},{_fmt6(margin)},{_fmt_bool(holds)}",
                  file=out)
        else:
            print(json.dumps({
                "n": counts.n, "prime_pairs": counts.prime_pairs, "hat": counts.hat,
                "tilde": counts.tilde, "interval_len": counts.length, "bound": bound,
                "margin": margin, "holds": holds,
            }), file=out)
    summary_line = (f"scanned={summary.count} violations={summary.violations} "
                    f"min_margin={_fmt6(summary.min_margin)} at n={summary.min_margin_n}")
    if config.format == "human":
        print(summary_line, file=out)
    else:
        print(summary_line, file=sys.stderr)
    return 1 if summary.violations else 0


# ---------------------------------------------------------------------------
# selftest suites
# ---------------------------------------------------------------------------


def _suite_oracle_equivalence(max_n: int) -> tuple[int, list[str]]:
    table = oracle.build_prime_table(max_n)
    checks, failures = 0, []
    for n in range(8, max_n + 1, 2):
        expected = oracle.pi_oracle(table, n)
        for method in legendre.PRIME_METHODS:
            checks += 1
            got = legendre.prime_count(n, method)
            if got != expected:
                failures.append(f"prime_count({n}, {method}) = {got}, oracle {expected}")
        checks += 1
        sieved = xi.prime_pair_list(n, table)
        brute = oracle.goldbach_pairs_oracle(table, n, xi.default_interval(n))
        if sieved != brute:
            failures.append(f"prime_pair_list({n}) disagrees with brute force")
    return checks, failures


def _suite_partition(max_n: int) -> tuple[int, list[str]]:
    table = oracle.build_prime_table(max(math.isqrt(max_n), 2))
    checks, failures = 0, []
    for n in range(8, max_n + 1, 2):
        checks += 1
        counts = xi.pair_counts(n, table)
        if counts.hat + counts.tilde != counts.composite_pairs or \
                counts.composite_pairs + counts.prime_pairs != counts.length:
            failures.append(f"partition broken at n={n}: {counts}")
        checks += 1
        total = legendre.composite_count(n) + legendre.prime_count(n) + 1
        if total != n:
            failures.append(f"composites + primes + 1 = {total} != {n}")
    return checks, failures


def _count_in_class(a: int, b: int, r: int, p: int) -> int:
    r %= p
    return (b - r) // p - (a - 1 - r) // p


def _suite_symmetry(max_n: int) -> tuple[int, list[str]]:
    table = oracle.build_prime_table(max_n)
    checks, failures = 0, []
    sample = sorted(set(range(8, max_n + 1, 94)) | {8, 16, 100, max_n if max_n % 2 == 0 else max_n - 1})
    for n in sample:
        if n % 2 or n < 8:
            continue
        basis = xi.make_residue_basis(n, table)
        for p, m, _ in basis.entries:
            checks += 1
            fwd = _count_in_class(1, n - 1, 0, p)
            bwd = _count_in_class(1, n - 1, n % p, p)
            if fwd != bwd:
                failures.append(f"divisor-count symmetry broken: n={n}, p={p}")
        checks += 1
        pairs = xi.prime_pair_list(n, table)
        if sorted(n - x for x in pairs) != pairs:
            failures.append(f"pair list not closed under x -> n - x at n={n}")
    return checks, failures


def _suite_identities(rng: random.Random) -> tuple[int, list[str]]:
    checks, failures = 0, []
    for _ in range(2000):
        s = rng.uniform(-1e6, 1e6)
        m = rng.choice([v for v in range(-10, 11) if v])
        k = rng.randint(1, 5)
        checks += 1
        if theta(m * s**k) != theta(s):
            failures.append(f"scaling identity broken at m={m}, k={k}, s={s!r}")
    for _ in range(2000):
        a = 0.0 if rng.random() < 0.1 else rng.uniform(-1e3, 1e3)
        b = 0.0 if rng.random() < 0.1 else rng.uniform(-1e3, 1e3)
        checks += 1
        if double_theta(a * b) != double_theta(a) * double_theta(b):
            failures.append(f"product rule broken at a={a!r}, b={b!r}")
    for _ in range(2000):
        x = 0.0 if rng.random() < 0.1 else rng.uniform(-1e3, 1e3)
        y = 0.0 if rng.random() < 0.1 else rng.uniform(-1e3, 1e3)
        if x + y == 0 and x != 0:
            continue
        checks += 1
        lhs, rhs = theta_sum_identity(x, y)
        if lhs != rhs:
            failures.append(f"sum identity broken at x={x!r}, y={y!r}")
    checks += 1
    lhs, rhs = theta_sum_identity(1, -1)
    if lhs == rhs:
        failures.append("sum identity unexpectedly held at (1, -1)")
    return checks, failures


def _suite_float_exact(epsilon: float, rng: random.Random, max_n: int) -> tuple[int, list[str]]:
    mode = float_approx(epsilon)
    checks, failures = 0, []
    for d in range(1, 51):
        for x in range(0, 2000):
            checks += 1
            if theta_sin(x, d) != theta_sin(x, d, mode):
                failures.append(f"mode disagreement at x={x}, d={d}")
    for _ in range(20000):
        d = rng.randint(1, 1000)
        x = rng.randint(0, min(max_n * 50, 10**6))
        checks += 1
        if theta_sin(x, d) != theta_sin(x, d, mode):
            failures.append(f"mode disagreement at x={x}, d={d}")
    return checks, failures


def cmd_selftest(args: argparse.Namespace, config: RunConfig) -> int:
    if args.max_n < 100:
        raise ValueError(f"--max-n must be >= 100, got {args.max_n}")
    rng = random.Random(20240901)
    epsilon = config.mode.epsilon if not config.mode.is_exact else DEFAULT_EPSILON
    suites: list[tuple[str, Callable[[], tuple[int, list[str]]]]] = [
        ("oracle-equivalence", lambda: _suite_oracle_equivalence(args.max_n)),
        ("partition", lambda: _suite_partition(args.max_n)),
        ("symmetry", lambda: _suite_symmetry(args.max_n)),
        ("identity", lambda: _suite_identities(rng)),
        ("float-exact-agreement", lambda: _suite_float_exact(epsilon, rng, args.max_n)),
    ]
    failed = False
    for name, run in suites:
        checks, failures = run()
        status = "ok" if not failures else "FAIL"
        print(f"{name}: {checks} checks, {len(failures)} failures [{status}]",
              file=config.out)
        if failures:
            failed = True
            print(f"  first counterexample: {failures[0]}", file=config.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = sys.stdout
    opened = None
    try:
        if args.out:
            opened = open(args.out, "w", encoding="utf-8", newline="\n")
            out = opened
        config = _config_from(args, out)
        return args.func(args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a failed internal cross-check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if opened is not None:
            opened.close()


def entrypoint() -> None:
    sys.exit(main())
