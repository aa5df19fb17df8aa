"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings as they complete.
"""

import math
import random
import time

import pytest

from pairsieve import (
    PRIME_METHODS,
    build_prime_table,
    composite_count,
    default_interval,
    double_theta,
    float_approx,
    goldbach_pairs_oracle,
    is_prime_trial,
    make_residue_basis,
    pair_counts,
    pi_oracle,
    prime_count,
    prime_pair_list,
    scan_bounds,
    theta,
    theta_sin,
    theta_sum_identity,
    tilde_composite_pairs,
    tilde_composite_pairs_ie,
    varpi_p,
    varpi_pq,
    ScanSummary,
)
from pairsieve.cli import main as cli_main


def _report(name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {status}{suffix}")
    assert not failures, f"{name}: {len(failures)} failures, first: {failures[:5]}"


def _timed(label: str, limit: float, fn, failures: list):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    if elapsed >= limit:
        failures.append(f"{label} took {elapsed:.3f}s, limit {limit}s")
    return result, elapsed


def test_criterion_1_golden_values(table_20k):
    failures = []

    def check(label, limit_s, fn, expected):
        got, _ = _timed(label, limit_s, fn, failures)
        if got != expected:
            failures.append(f"{label}: got {got!r}, expected {expected!r}")

    check("prime count 10", 1.0, lambda: prime_count(10), 4)
    check("composite count 10", 1.0, lambda: composite_count(10), 5)
    check("multiples of 3 below 10", 1.0, lambda: varpi_p(10, 3), 2)
    check("multiples of 2 or 3 below 10", 1.0, lambda: varpi_pq(10, 2, 3), 5)
    check("prime pairs of 100", 1.0,
          lambda: pair_counts(100, table_20k).prime_pairs, 10)
    check("prime pair list of 100", 1.0,
          lambda: prime_pair_list(100, table_20k),
          [11, 17, 29, 41, 47, 53, 59, 71, 83, 89])
    check("prime pairs of 1000", 1.0,
          lambda: pair_counts(1000, table_20k).prime_pairs, 48)
    # Recorded reference value. Independent enumeration (brute force over
    # [100, 9900], also criterion 2's oracle) gives 250; kept as stated so
    # the discrepancy stays visible rather than silently reconciled.
    check("prime pairs of 10000", 1.0,
          lambda: pair_counts(10000, table_20k).prime_pairs, 232)

    _report("criterion 1 (golden values)", failures)


def test_criterion_2_oracle_equivalence_sweep(table_20k):
    failures = []

    def sweep():
        for n in range(8, 20001, 2):
            expected_pi = pi_oracle(table_20k, n)
            for method in PRIME_METHODS:
                if prime_count(n, method) != expected_pi:
                    failures.append(f"prime_count({n}, {method})")
            pairs = prime_pair_list(n, table_20k)
            if pairs != goldbach_pairs_oracle(table_20k, n, default_interval(n)):
                failures.append(f"pair list vs oracle at n={n}")
            counts = pair_counts(n, table_20k)
            if counts.hat + counts.tilde != counts.composite_pairs:
                failures.append(f"hat+tilde at n={n}")
            if counts.composite_pairs + counts.prime_pairs != counts.length:
                failures.append(f"length partition at n={n}")
            if counts.prime_pairs != len(pairs):
                failures.append(f"count vs list at n={n}")
            if composite_count(n) + prime_count(n) + 1 != n:
                failures.append(f"composite+prime+1 at n={n}")
            if len(failures) > 20:
                return

    _, elapsed = _timed("sweep to 20000", 60.0, sweep, failures)
    _report("criterion 2 (oracle equivalence to 20000)", failures,
            f"{elapsed:.1f}s single-threaded")


def test_criterion_3_identity_suite():
    failures = []
    rng = random.Random(0x5EED)

    def reals(count):
        out = []
        for _ in range(count):
            r = rng.random()
            out.append(0.0 if r < 0.05 else rng.uniform(-1e6, 1e6))
        return out

    # scaling/power identity over every (m, k) for each sampled real
    for s in reals(1000):
        for m in range(-10, 11):
            if m == 0:
                continue
            for k in range(1, 6):
                if theta(m * s**k) != theta(s):
                    failures.append(f"scaling at m={m}, k={k}, s={s!r}")

    # product rule for the nonzero indicator, zeros included
    for _ in range(10**4):
        a, b = reals(2)
        if double_theta(a * b) != double_theta(a) * double_theta(b):
            failures.append(f"product rule at a={a!r}, b={b!r}")

    # sum identity under its guard
    checked = 0
    while checked < 10**4:
        x, y = reals(2)
        if x + y == 0 and x != 0:
            continue
        lhs, rhs = theta_sum_identity(x, y)
        if lhs != rhs:
            failures.append(f"sum identity at x={x!r}, y={y!r}")
        checked += 1
    lhs, rhs = theta_sum_identity(1, -1)
    if lhs == rhs:
        failures.append("counterexample (1, -1) did not violate the identity")

    _report("criterion 3 (indicator identity suite)", failures)


def test_criterion_4_float_exact_agreement():
    failures = []
    mode = float_approx(1e-8)
    start = time.perf_counter()

    for d in range(1, 101):
        for x in range(0, 100001):
            if theta_sin(x, d) != theta_sin(x, d, mode):
                failures.append(f"exhaustive disagreement at x={x}, d={d}")
                if len(failures) > 5:
                    break

    rng = random.Random(0xD1CE)
    for _ in range(10**6):
        d = rng.randint(1, 10**4)
        x = rng.randint(0, 10**7)
        if theta_sin(x, d) != theta_sin(x, d, mode):
            failures.append(f"sampled disagreement at x={x}, d={d}")

    elapsed = time.perf_counter() - start
    _report("criterion 4 (float/exact agreement)", failures, f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_tilde_cross_check(table_20k):
    failures = []

    def sweep():
        for n in range(8, 10001, 2):
            basis = make_residue_basis(n, table_20k)
            marking = tilde_composite_pairs(basis)
            expansion = tilde_composite_pairs_ie(basis)
            if marking != expansion:
                failures.append(f"n={n}: marking {marking}, expansion {expansion}")
                if len(failures) > 10:
                    return

    _, elapsed = _timed("tilde cross-check", 120.0, sweep, failures)
    _report("criterion 5 (tilde inclusion-exclusion cross-check)", failures,
            f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_bound_scan():
    failures = []
    start = time.perf_counter()

    summary = ScanSummary()
    first_violation = None
    for report in scan_bounds(10**4, 10**6, 2, workers=4):
        summary.add(report)
        if not report.holds and first_violation is None:
            first_violation = report
    if summary.violations:
        failures.append(
            f"{summary.violations} violations, first at n={first_violation.n}: "
            f"{first_violation.prime_pairs} <= {first_violation.bound:.6g}"
        )

    info = ScanSummary()
    for report in scan_bounds(26, 9998, 2):
        info.add(report)

    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        failures.append(f"scan took {elapsed:.1f}s, limit 600s")
    detail = (
        f"{elapsed:.0f}s, 4 workers; [1e4, 1e6]: min margin "
        f"{summary.min_margin:.4g} at n={summary.min_margin_n}; informational "
        f"[26, 1e4): min margin {info.min_margin:.4g} at n={info.min_margin_n}, "
        f"{info.violations} violations"
    )
    _report("criterion 6 (lower-bound scan)", failures, detail)


def test_criterion_7_large_sieve_performance():
    failures = []
    n = 10**8
    table = build_prime_table(math.isqrt(n))

    start = time.perf_counter()
    pairs = prime_pair_list(n, table)
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"sieve took {elapsed:.2f}s, limit 10s")

    rng = random.Random(0xB16)
    for x in rng.sample(pairs, 100):
        if not (is_prime_trial(x) and is_prime_trial(n - x)):
            failures.append(f"survivor {x} fails trial division")

    counts = pair_counts(n, table)
    if counts.prime_pairs != len(pairs):
        failures.append(f"count {counts.prime_pairs} != list {len(pairs)}")

    _report("criterion 7 (1e8 sieve performance)", failures,
            f"{elapsed:.2f}s, {len(pairs)} pairs")


def test_criterion_8_deterministic_csv(capsys):
    failures = []
    code1 = cli_main(["scan-bound", "1000", "2000", "--emit", "csv", "--workers", "1"])
    out1 = capsys.readouterr().out
    code8 = cli_main(["scan-bound", "1000", "2000", "--emit", "csv", "--workers", "8"])
    out8 = capsys.readouterr().out
    if code1 != 0 or code8 != 0:
        failures.append(f"exit codes {code1}, {code8}")
    if out1.encode() != out8.encode():
        failures.append("csv output differs between --workers 1 and --workers 8")
    if not out1.startswith("n,prime_pairs,hat,tilde,interval_len,bound,margin,holds\n"):
        failures.append("csv header mismatch")
    _report("criterion 8 (deterministic parallel csv)", failures)
