"""Correctness of each operation's output, judged by pairsieve's oracles.

Every check runs after the timed region. It recomputes what it can from
``pairsieve.oracle`` (Eratosthenes bitmap, brute-force pair lists) and
never from golden constants. Each function returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re

from pairsieve import oracle, xi

SCAN_HEADER = ["n", "prime_pairs", "hat", "tilde", "interval_len", "bound", "margin", "holds"]
#: Rows of each scan compared in full with the brute-force pair list.
SCAN_ORACLE_SAMPLE = 20
_SUITE_LINE = re.compile(r"^[\w-]+: (\d+) checks, (\d+) failures \[(ok|FAIL)\]$")


class Checker:
    """Holds the oracle prime table, built once for the largest n needed."""

    def __init__(self, seed: int, limit: int) -> None:
        self.rng = random.Random(seed)
        self.table = oracle.build_prime_table(max(limit, 2))

    def check(self, argv: tuple[str, ...], text: str) -> list[str]:
        command = argv[0]
        try:
            if command == "scan-bound":
                return self.scan(argv, text)
            if command == "goldbach":
                return self.goldbach(int(argv[1]), text)
            if command == "primecount":
                return self.primecount(int(argv[1]), text)
            if command == "selftest":
                return selftest(text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unparseable output: {exc!r}"]
        return [f"no check for command {command!r}"]

    def scan(self, argv: tuple[str, ...], text: str) -> list[str]:
        start, end = int(argv[1]), int(argv[2])
        step = int(argv[argv.index("--step") + 1])
        reader = csv.reader(io.StringIO(text))
        if next(reader, None) != SCAN_HEADER:
            return ["missing or wrong CSV header"]
        rows = list(reader)
        expected_ns = list(range(start, end + 1, step))
        problems = []
        if [int(r[0]) for r in rows] != expected_ns:
            problems.append("rows do not cover the requested n in order")
        for n_s, pairs_s, hat_s, tilde_s, len_s, bound_s, margin_s, holds_s in rows:
            n, pairs, hat, tilde, length = map(int, (n_s, pairs_s, hat_s, tilde_s, len_s))
            a, b = xi.default_interval(n)
            bound = xi.bound_value(n)
            if hat + tilde + pairs != length:
                problems.append(f"n={n}: hat + tilde + prime_pairs != interval_len")
            if length != b - a + 1:
                problems.append(f"n={n}: interval_len {length} != default interval {b - a + 1}")
            if (bound_s, margin_s) != (f"{bound:.6g}", f"{pairs - bound:.6g}"):
                problems.append(f"n={n}: bound or margin differs from bound_value")
            if holds_s != ("true" if pairs > bound else "false"):
                problems.append(f"n={n}: holds flag differs from prime_pairs > bound")
        for row in self.rng.sample(rows, min(SCAN_ORACLE_SAMPLE, len(rows))):
            n, pairs = int(row[0]), int(row[1])
            brute = oracle.goldbach_pairs_oracle(self.table, n, xi.default_interval(n))
            if pairs != len(brute):
                problems.append(f"n={n}: prime_pairs {pairs} != brute force {len(brute)}")
        return problems

    def goldbach(self, n: int, text: str) -> list[str]:
        record = json.loads(text)
        a, b = record["a"], record["b"]
        pairs = record["x"]
        problems = []
        if (a, b) != xi.default_interval(n):
            problems.append(f"interval [{a}, {b}] is not the default interval")
        if record["interval_len"] != b - a + 1:
            problems.append("interval_len does not match [a, b]")
        if record["hat"] + record["tilde"] != record["composite_pairs"]:
            problems.append("hat + tilde != composite_pairs")
        if record["composite_pairs"] + record["prime_pairs"] != record["interval_len"]:
            problems.append("composite_pairs + prime_pairs != interval_len")
        if record["prime_pairs"] != len(pairs):
            problems.append(f"count {record['prime_pairs']} != list length {len(pairs)}")
        if pairs != oracle.goldbach_pairs_oracle(self.table, n, (a, b)):
            problems.append("pair list differs from brute force")
        return problems

    def primecount(self, n: int, text: str) -> list[str]:
        got, expected = int(text), oracle.pi_oracle(self.table, n)
        return [] if got == expected else [f"pi({n}) = {got}, oracle {expected}"]


def selftest(text: str) -> list[str]:
    """Every suite line must report zero failures; indented lines only
    follow a failing suite."""
    suites = [line for line in text.splitlines() if not line.startswith(" ")]
    if not suites:
        return ["no suite lines"]
    problems = []
    for line in suites:
        match = _SUITE_LINE.match(line)
        if match is None:
            problems.append(f"unexpected line {line!r}")
        elif int(match[2]) or match[3] != "ok" or not int(match[1]):
            problems.append(f"suite not clean: {line!r}")
    return problems


def oracle_limit(argv: tuple[str, ...]) -> int:
    """Largest integer the oracle table must cover to check ``argv``."""
    if argv[0] == "scan-bound":
        return int(argv[2])
    if argv[0] in ("goldbach", "primecount"):
        return int(argv[1])
    return 2

