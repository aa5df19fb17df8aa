import argparse
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import io
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pairsieve import (
    EXACT, build_prime_table, cli, goldbach_pairs_oracle, legendre, oracle, pair_counts,
    prime_pair_list, theta_sin, theta_sin_array, xi,
)
from pairsieve.cli import FORMATS, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrimecount:
    def test_theta_sum_human(self, capsys):
        code, out, _ = run(capsys, "primecount", "10", "--method", "theta-sum")
        assert code == 0 and out == "4\n"

    def test_oracle_check_passes(self, capsys):
        code, _, err = run(capsys, "primecount", "10", "--method", "legendre",
                           "--oracle-check")
        assert code == 0 and err == ""

    def test_odd_n_rejected(self, capsys):
        code, _, err = run(capsys, "primecount", "9")
        assert code == 2 and "error" in err

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "primecount", "100", "--emit", "csv")
        assert code == 0
        assert out == "n,method,count\n100,legendre,25\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "primecount", "100", "--emit", "json")
        assert json.loads(out) == {"n": 100, "method": "legendre", "count": 25}


class TestComposites:
    def test_each_method(self, capsys):
        for method in ("legendre", "theta-sum", "direct-mark"):
            code, out, _ = run(capsys, "composites", "10", "--method", method)
            assert code == 0 and out == "5\n"

    def test_oracle_check(self, capsys):
        code, _, _ = run(capsys, "composites", "1000", "--oracle-check")
        assert code == 0


class TestGoldbach:
    def test_list_output(self, capsys):
        code, out, _ = run(capsys, "goldbach", "100", "--list")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=100 interval=[10,90] length=81"
        assert lines[1] == "prime_pairs=10 composite_pairs=71 hat=49 tilde=22"
        assert lines[2] == "x: 11 17 29 41 47 53 59 71 83 89"

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "goldbach", "1000")
        assert code == 0 and "prime_pairs=48" in out

    def test_explicit_interval_with_oracle(self, capsys):
        code, _, err = run(capsys, "goldbach", "100", "--interval", "10:90",
                           "--oracle-check")
        assert code == 0 and err == ""

    # the sieve keeps x when x and n - x are each 1 or a prime > isqrt(n):
    # 3, 5, 7 <= isqrt(n) drop out, and at n = 8, x = 1 and 7 stay
    @pytest.mark.parametrize("argv", ["16 --interval 3:13", "100 --interval 2:98 --list",
                                      "8 --interval 1:7 --list"])
    def test_wide_interval_with_oracle(self, capsys, argv):
        code, _, err = run(capsys, "goldbach", *argv.split(), "--oracle-check")
        assert code == 0 and err == ""

    def test_json_with_list(self, capsys):
        code, out, _ = run(capsys, "goldbach", "100", "--list", "--emit", "json")
        record = json.loads(out)
        assert record["prime_pairs"] == 10
        assert record["x"] == [11, 17, 29, 41, 47, 53, 59, 71, 83, 89]

    @pytest.mark.parametrize("n,spec", [(30030, "auto"), (2 * 4999, "auto"), (1000, "100:900")])
    def test_json_list_is_one_consistent_pass(self, capsys, n, spec):
        code, out, _ = run(capsys, "goldbach", str(n), "--list", "--emit", "json",
                           "--interval", spec, "--oracle-check")
        assert code == 0
        record = json.loads(out)
        table = build_prime_table(n)
        interval = None if spec == "auto" else (100, 900)
        counts = pair_counts(n, table, interval)
        assert (record["a"], record["b"]) == counts.interval
        assert (record["hat"], record["tilde"], record["prime_pairs"]) == \
            (counts.hat, counts.tilde, counts.prime_pairs)
        assert record["x"] == prime_pair_list(n, table, interval)
        assert record["x"] == goldbach_pairs_oracle(table, n, counts.interval)

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "goldbach", "100", "--emit", "csv")
        lines = out.splitlines()
        assert lines[0] == "n,a,b,interval_len,hat,tilde,composite_pairs,prime_pairs"
        assert lines[1] == "100,10,90,81,49,22,71,10"

    def test_bad_interval_spec(self, capsys):
        code, _, err = run(capsys, "goldbach", "100", "--interval", "banana")
        assert code == 2

    def test_odd_n(self, capsys):
        code, _, _ = run(capsys, "goldbach", "99")
        assert code == 2

    @pytest.mark.parametrize("n", ["-4", "7"])
    def test_n_is_checked_before_the_table(self, capsys, monkeypatch, n):
        def no_table(*args):
            raise AssertionError("a prime table was built before n was checked")
        monkeypatch.setattr(oracle, "build_prime_table", no_table)
        code, out, err = run(capsys, "goldbach", n)
        assert code == 2 and out == ""
        assert err == f"error: n must be an even integer >= 8, got {n}\n"


#: Every 10^k - 1, 10^k and 10^k + 1 up to 10^12: the ends of the digit runs.
_DIGIT_EDGES = sorted({10**k + d for k in range(13) for d in (-1, 0, 1)} - {10**12 + 1})


def _written_as(values, dtype, sep):
    out = io.StringIO()
    cli._write_ints(out, np.array(values, dtype=dtype), sep)
    return out.getvalue()


def _written(values, sep):
    return _written_as(values, np.int64, sep)


class TestWriteInts:
    @given(values=st.lists(st.one_of(st.integers(0, 10**12), st.sampled_from(_DIGIT_EDGES)),
                           max_size=200).map(sorted),
           sep=st.sampled_from([", ", " "]))
    @example(values=[], sep=", ")
    @example(values=[7], sep=" ")
    @example(values=[0], sep=", ")
    @example(values=_DIGIT_EDGES, sep=", ")
    @example(values=[5, 9, 10], sep=" ")  # the last run ends the array
    @example(values=[10**12], sep=", ")
    def test_matches_join(self, values, sep):
        assert _written(values, sep) == sep.join(map(str, values))

    @given(values=st.lists(st.integers(0, 10**6), max_size=60).map(sorted),
           sep=st.sampled_from([", ", " "]))
    def test_pieces_inside_a_run(self, values, sep):
        # runs cut into pieces of 3 values: every run ends mid-piece or on a
        # piece edge, and the array ends at a piece edge or not
        writes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_PIECE", 3)
            cli._write_ints(types.SimpleNamespace(write=writes.append),
                            np.array(values, dtype=np.int64), sep)
        assert "".join(writes) == sep.join(map(str, values))
        assert all(text.count(sep) <= 3 for text in writes)

    def test_int32_array_is_not_widened(self):
        # the sieve's survivors are int32 below 2^31: searching their digit
        # runs with int64 keys would copy all of them to int64 first
        values = np.arange(0, 2**31 - 1, 1000, dtype=np.int32)
        edges = [x for x in _DIGIT_EDGES if x < 2**31]
        assert _written_as(edges, np.int32, " ") == " ".join(map(str, edges))
        tracemalloc.start()
        cli._write_ints(types.SimpleNamespace(write=lambda text: None), values, " ")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < values.nbytes

    def test_memory_stays_bounded(self):
        # each piece's buffers stay under the allocator's mmap threshold,
        # whatever the length of the array
        values = np.arange(0, 2**31 - 1, 1000, dtype=np.int32)
        tracemalloc.start()
        cli._write_ints(types.SimpleNamespace(write=lambda text: None), values, " ")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 512 * 1024


def _expected_goldbach(n, emit, interval=None):
    """goldbach --list output as the plain json.dumps / " ".join of
    prime_pair_list would print it."""
    table = build_prime_table(max(n, 2))
    c = pair_counts(n, table, interval)
    pairs = prime_pair_list(n, table, interval)
    (a, b) = c.interval
    if emit == "human":
        return (f"n={n} interval=[{a},{b}] length={c.length}\n"
                f"prime_pairs={c.prime_pairs} composite_pairs={c.composite_pairs} "
                f"hat={c.hat} tilde={c.tilde}\n"
                f"x: {' '.join(map(str, pairs))}\n")
    return json.dumps({
        "n": n, "a": a, "b": b, "interval_len": c.length, "hat": c.hat, "tilde": c.tilde,
        "composite_pairs": c.composite_pairs, "prime_pairs": c.prime_pairs, "x": pairs,
    }) + "\n"


class TestGoldbachList:
    # n = 1000's list runs from 2-digit to 3-digit x
    @pytest.mark.parametrize("emit", ["human", "json"])
    @pytest.mark.parametrize("n", [100, 30030, 2 * 4999, 1000])
    def test_bytes_match_plain_formatting(self, capsys, n, emit):
        code, out, err = run(capsys, "goldbach", str(n), "--list", "--emit", emit)
        assert code == 0 and err == ""
        assert out == _expected_goldbach(n, emit)

    @pytest.mark.parametrize("emit", ["human", "json"])
    def test_empty_list(self, capsys, emit):
        code, out, _ = run(capsys, "goldbach", "30", "--list", "--interval", "4:6",
                           "--emit", emit)
        assert code == 0
        assert out == _expected_goldbach(30, emit, (4, 6))
        assert out.endswith("x: \n" if emit == "human" else '"x": []}\n')

    @pytest.mark.parametrize("emit", ["human", "csv", "json"])
    def test_out_file_matches_stdout(self, capsys, tmp_path, emit):
        # csv has no list form, so its case runs without --list
        listing = () if emit == "csv" else ("--list",)
        argv = ("goldbach", "30030", *listing, "--emit", emit)
        _, stdout, _ = run(capsys, *argv)
        target = tmp_path / "pairs.out"
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == stdout.encode()

    @pytest.mark.parametrize("brute", [
        lambda table, n, interval: [],
        lambda table, n, interval: goldbach_pairs_oracle(table, n, interval)[:-1] + [7],
    ])
    @pytest.mark.parametrize("listing", [(), ("--list",)])
    def test_oracle_mismatch_exits_1(self, capsys, monkeypatch, brute, listing):
        monkeypatch.setattr(oracle, "goldbach_pairs_oracle", brute)
        code, _, err = run(capsys, "goldbach", "100", *listing, "--oracle-check",
                           "--emit", "json")
        assert code == 1
        assert err.startswith("oracle mismatch for n=100") and "Traceback" not in err

    def test_count_and_list_disagree_exits_1(self, capsys, monkeypatch):
        array_call = xi.pair_counts_and_array
        monkeypatch.setattr(xi, "pair_counts_and_array",
                            lambda *args: (array_call(*args)[0], np.array([11])))
        code, _, err = run(capsys, "goldbach", "100", "--list")
        assert code == 1
        assert err.startswith("internal mismatch: count 10 != list 1")


class TestScanBound:
    def test_csv_rows(self, capsys):
        code, out, err = run(capsys, "scan-bound", "100", "104", "--step", "2",
                             "--emit", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,prime_pairs,hat,tilde,interval_len,bound,margin,holds"
        assert len(lines) == 4
        assert lines[1] == "100,10,49,22,81,2.96321,7.03679,true"
        assert all(line.endswith(",true") for line in lines[1:])
        assert "violations=0" in err

    def test_single_n_margin(self, capsys):
        code, out, _ = run(capsys, "scan-bound", "10000", "10000")
        assert code == 0
        # oracle-verified pair count 250 against bound 113.414
        assert "margin=136.586" in out

    def test_inverted_range(self, capsys):
        code, _, err = run(capsys, "scan-bound", "10", "8")
        assert code == 2

    def test_below_minimum(self, capsys):
        code, _, _ = run(capsys, "scan-bound", "24", "30")
        assert code == 2

    def test_human_summary(self, capsys):
        code, out, _ = run(capsys, "scan-bound", "100", "104")
        assert code == 0
        assert out.splitlines()[-1].startswith("scanned=3 violations=0")

    def test_csv_deterministic_across_workers(self, capsys):
        _, out1, _ = run(capsys, "scan-bound", "1000", "1200", "--emit", "csv",
                         "--workers", "1")
        _, out8, _ = run(capsys, "scan-bound", "1000", "1200", "--emit", "csv",
                         "--workers", "8")
        assert out1 == out8

    def test_bound_computed_once_per_n(self, capsys, monkeypatch):
        # the csv row and the summary both read bound, margin and holds
        calls = []
        bound_value = xi.bound_value
        monkeypatch.setattr(xi, "bound_value", lambda n: calls.append(n) or bound_value(n))
        code, out, _ = run(capsys, "scan-bound", "1000", "1200", "--emit", "csv")
        assert code == 0 and len(out.splitlines()) == 102
        assert calls == list(range(1000, 1201, 2))

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "scan-bound", "100", "100", "--emit", "json")
        record = json.loads(out.splitlines()[0])
        assert list(record) == ["n", "prime_pairs", "hat", "tilde",
                                "interval_len", "bound", "margin", "holds"]
        assert record["holds"] is True

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "scan-bound", "100", "104", "--emit", "csv",
                           "--out", str(target))
        assert code == 0 and out == ""
        lines = target.read_text().splitlines()
        assert lines[0].startswith("n,prime_pairs")
        assert len(lines) == 4


#: sha256 of stdout for each argv: a change to the bytes of any record
#: shows here. The one scan-bound --emit json holds full-precision floats
#: from the platform's libm, so on another platform that hash alone may
#: differ.
_PINNED_STDOUT = {
    "scan-bound 1000 2000 --emit csv":
        "fb2d82f2bf0e95bdd3e1fa4a6567f342b21194b4ea1d6bab2860ca253fac687e",
    "scan-bound 1000 1200":
        "84ae63fcd89094d7cf8d8fa6b54619c1016c5c43eb4b419ba04548006c0d5de7",
    "goldbach 100000 --list":
        "deb224a7b445120ad69059e600cec0b0865141dd41cfe4dbd037c404d135d100",
    "goldbach 100000 --list --emit json":
        "433be59f57884d453753e1fba03df0f05784675e485331b87e23383be928061f",
    "goldbach 1000 --emit csv":
        "87e5fd73b63867a8cac04537c07039e60fbc309a0fe2fd87a1c558bcf0d5eb6b",
    "primecount 1500000 --emit json":
        "3049feb679dd77136bff6fb3a52f14fbf161ed7225bf7de08be2467bca16ccf4",
    "composites 100000 --method direct-mark --emit csv":
        "780ab42c219514ec1d57d68cce89bc086d853dbd571ce78d4050f32fc3c265ba",
    "selftest --max-n 300":
        "3dd7d98b7d98ed3f558dc43c75c727998666e070a3c2c96b73c7578e3e7c8181",
    # counts below n = 13^2, where wheel primes lie above sqrt(n)
    "primecount 168 --method theta-sum":
        "eedb85ab90d324a555a45560d75c88cecf23721990c3b6353697d707e6465c74",
    "primecount 100 --method survivor --emit json":
        "28d3f2ff8d4da6d891987ffbc3b64ba30e3d7d2db8af9dbab9b7ffa5a1bb4c3b",
    "composites 166 --method direct-mark --emit csv":
        "d9dcd9cd35a4feac3f00338c289fcf8a85bf308e68a5f7b38abf8b687a2f40c2",
    "composites 4 --method theta-sum":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    # above the switch to the wheel-30 lanes: n = 2q, n = 30030m, a count
    # near 3e7, and an interval whose ends lie in different lanes
    "goldbach 19969562 --list --emit json":
        "e03e1a9904df5463851085d77ca94dc044dd162d75134b59fc604caffc8bbdb6",
    "goldbach 19429410 --emit csv":
        "32e0a0e76afe9a7250531e1e912ab3196463ca74b165f2e7db3dc8d46a6d0841",
    "primecount 29926584 --method survivor":
        "1d0a3dd6de29523dbc37f94cc2362f83ad0fa690261018e0844a5f469d9d7c23",
    "composites 29926584 --method direct-mark --emit json":
        "c850110fb89b9837fb86c89b382b616bf9284737d585afe7d6f9a15565a8d730",
    "goldbach 20000000 --interval 1000001:5000000 --list":
        "1a339b01f9bb7878018e1169f5820f394eeb8aeafaec1d44b6a9d1ae20f9111c",
    # a scan whose odd prime flags cross the tiled wheel blank's first
    # block edge, and the hat-heavy list of n = 30030m in full
    "scan-bound 2072000 2072400 --emit csv":
        "0e5704f2c38f282ef1c94b1cac8eb50b8a2a5b9415111bd28f839e859381f867",
    "goldbach 19429410 --list --emit json":
        "a4632c2a5ad4c7069b47be429e3c9bc35e05b5d987b7e60d0d65ea30a538654f",
    # a scan of several spans through a pool of two workers
    "scan-bound 10000 200000 --emit json --workers 2":
        "6cd528bcb2a3542b84000729d33b0c702905a0eba0b39d69f2bc8bc3b02dd715",
    # perfbench's seed-4242 operations not pinned above
    "scan-bound 12458 1000000 --step 3314 --emit csv --workers 2":
        "fdf608b9e3de2f944df9099515998b69c15f21bbe5a83fe9097777ff4b349f75",
    "primecount 1493176 --method legendre":
        "fefcfb4ce9e2edc5388f4c70e05c76eebf679c10e85cdd187b6c3bc7e0ccb928",
    "primecount 29926584 --method theta-sum":
        "1d0a3dd6de29523dbc37f94cc2362f83ad0fa690261018e0844a5f469d9d7c23",
    "selftest --max-n 2000":
        "daaeff7dd4d9feee1c1912a7057d65cfec92ebdd6df2e3802eadae971982faae",
}


@pytest.mark.parametrize("argv", list(_PINNED_STDOUT))
def test_stdout_bytes_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_STDOUT[argv]


def _scan_by_records(start, end, step, emit):
    """scan-bound's exit code, stdout and stderr, formatted record by
    record from a sieved ``PairCounts`` per n, as the command wrote them
    before it read the scan's columns."""
    table = build_prime_table(math.isqrt(end))
    summary = xi.ScanSummary()
    lines = ["n,prime_pairs,hat,tilde,interval_len,bound,margin,holds"] if emit == "csv" else []
    for r in (pair_counts(n, table) for n in range(start, end + 1, step)):
        summary.add(r)
        holds = "true" if r.holds else "false"
        if emit == "human":
            lines.append(f"n={r.n} prime_pairs={r.prime_pairs} hat={r.hat} tilde={r.tilde} "
                         f"len={r.length} bound={r.bound:.6g} margin={r.margin:.6g} "
                         f"holds={holds}")
        elif emit == "csv":
            lines.append(f"{r.n},{r.prime_pairs},{r.hat},{r.tilde},{r.length},{r.bound:.6g},"
                         f"{r.margin:.6g},{holds}")
        else:
            lines.append(json.dumps({
                "n": r.n, "prime_pairs": r.prime_pairs, "hat": r.hat, "tilde": r.tilde,
                "interval_len": r.length, "bound": r.bound, "margin": r.margin,
                "holds": r.holds}))
    summary_line = (f"scanned={summary.count} violations={summary.violations} "
                    f"min_margin={summary.min_margin:.6g} at n={summary.min_margin_n}\n")
    out = "".join(line + "\n" for line in lines)
    code = 1 if summary.violations else 0
    return (code, out + summary_line, "") if emit == "human" else (code, out, summary_line)


class TestScanColumns:
    # the command formats the scan's columns; every byte of stdout and of
    # the summary line equals a record-by-record formatting of the sieve:
    # every n of [26, 30000], steps sharing a prime with every basis (6,
    # 3314 = 2 * 1657 over perfbench's range, 30030), and several spans
    # through a pool
    @pytest.mark.parametrize("emit", FORMATS)
    @pytest.mark.parametrize("start,end,step", [(26, 30000, 2), (26, 30000, 6),
                                                (12458, 1000000, 3314), (26, 90116, 30030)])
    def test_bytes_equal_the_records(self, capsys, emit, start, end, step):
        assert run(capsys, "scan-bound", str(start), str(end), "--step", str(step),
                   "--emit", emit) == _scan_by_records(start, end, step, emit)

    @pytest.mark.parametrize("emit", FORMATS)
    def test_bytes_equal_the_records_over_a_pool(self, capsys, monkeypatch, emit):
        monkeypatch.setattr(xi, "_SPAN_POSITIONS", 1_000_000)
        assert len(xi._spans(10000, 12000, 2)) == 3
        assert run(capsys, "scan-bound", "10000", "12000", "--emit", emit, "--workers", "2") \
            == _scan_by_records(10000, 12000, 2, emit)

    # the pool's start method changes nothing: a 3-span scan gives one
    # stdout under each, the one pinned here
    def test_start_method_leaves_stdout_unchanged(self):
        code = ("import multiprocessing, sys\n"
                "multiprocessing.set_start_method(sys.argv[1])\n"
                "from pairsieve import cli, xi\n"
                "xi._SPAN_POSITIONS = 1_000_000\n"
                "assert len(xi._spans(10000, 12000, 2)) == 3\n"
                "sys.exit(cli.main(['scan-bound', '10000', '12000', '--emit', 'csv', "
                "'--workers', '2']))\n")
        for method in ("fork", "spawn", "forkserver"):
            result = subprocess.run([sys.executable, "-c", code, method], capture_output=True,
                                    timeout=120)
            assert result.returncode == 0, (method, result.stderr[-500:])
            assert hashlib.sha256(result.stdout).hexdigest() == \
                "d33711b2ea5ae75e8098585dca840d7a9e77fcf941fa0c9e26d75aa92c1585cf", method


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--max-n", "300")
        assert code == 0
        assert out.count("[ok]") == 5
        assert "identity: 6001 checks, 0 failures [ok]\n" \
               "float-exact-agreement: 120000 checks, 0 failures [ok]\n" in out

    def test_stdout_is_the_same_in_every_process(self):
        argv = [sys.executable, "-m", "pairsieve", "selftest", "--max-n", "300"]
        first, second = (subprocess.run(argv, capture_output=True, check=True).stdout
                         for _ in range(2))
        assert first == second and first.count(b"[ok]") == 5

    def test_identity_suite_counts_each_failing_draw(self, capsys, monkeypatch):
        # the sum identity's two sides always differ: each of its 2,000
        # draws fails, and the known counterexample (1, -1) passes
        monkeypatch.setattr(cli, "theta_sum_identity", lambda x, y: (0, 1))
        code, out, _ = run(capsys, "selftest", "--max-n", "100")
        assert code == 1 and out.count("[ok]") == 4
        assert re.search(r"^identity: 6001 checks, 2000 failures \[FAIL\]\n"
                         r"  first counterexample: sum identity broken at x=\S+, y=\S+$",
                         out, re.M)

    def test_partition_is_a_cross_check(self, capsys, monkeypatch):
        # with phi one too high, Legendre's prime count is one too high
        # against the oracle; composites + primes + 1 = n holds exactly when
        # survivor equals legendre, so that check is the partition's
        # cross-check, and the partition suite, which reads no phi, stays ok
        phi = legendre._phi
        monkeypatch.setattr(legendre, "_phi", lambda *args: phi(*args) + 1)
        code, out, _ = run(capsys, "selftest", "--max-n", "100")
        assert code == 1
        assert re.search(r"^oracle-equivalence: \d+ checks, [1-9]\d* failures \[FAIL\]\n"
                         r"  first counterexample: prime_count\(8, legendre\) = 5, oracle 4$",
                         out, re.M)
        assert re.search(r"^partition: \d+ checks, 0 failures \[ok\]$", out, re.M)

    def test_one_count_from_squares_per_n(self, capsys, monkeypatch):
        # per n, theta-sum marks from p and survivor from p^2, and the
        # partition reads its composites off survivor instead of marking
        # them again; one pair sieve per n, and one more for each sampled n
        # (8, 16 and 100 at --max-n 100), whose prime_pair_list sieves anew
        runs = {False: 0, True: 0, "sieve": 0}
        marked, sieve = legendre._marked_count, xi._sieve

        def counted(n, primes, from_squares=False):
            runs[from_squares] += 1
            return marked(n, primes, from_squares)

        def sieved(*args, **kwargs):
            runs["sieve"] += 1
            return sieve(*args, **kwargs)

        monkeypatch.setattr(legendre, "_marked_count", counted)
        monkeypatch.setattr(xi, "_sieve", sieved)
        code, _, _ = run(capsys, "selftest", "--max-n", "100")
        per_n = len(range(8, 101, 2))
        assert code == 0
        assert runs == {False: per_n, True: per_n, "sieve": per_n + 3}

    def test_count_from_squares_is_cross_checked(self, capsys, monkeypatch):
        # with the count marked from p^2 one too high, survivor is one too
        # low against the oracle; no other suite reads that count
        marked = legendre._marked_count
        monkeypatch.setattr(legendre, "_marked_count", lambda n, primes, from_squares=False:
                            marked(n, primes, from_squares) + from_squares)
        code, out, _ = run(capsys, "selftest", "--max-n", "100")
        assert code == 1
        assert re.search(r"^oracle-equivalence: \d+ checks, [1-9]\d* failures \[FAIL\]\n"
                         r"  first counterexample: prime_count\(8, survivor\) = 3, oracle 4$",
                         out, re.M)
        for suite in ("partition", "symmetry", "identity", "float-exact-agreement"):
            assert re.search(rf"^{suite}: \d+ checks, 0 failures \[ok\]$", out, re.M), suite

    def test_below_minimum(self, capsys):
        code, _, _ = run(capsys, "selftest", "--max-n", "50")
        assert code == 2

    def test_float_mode(self, capsys):
        code, _, _ = run(capsys, "selftest", "--max-n", "200", "--epsilon", "1e-8")
        assert code == 0

    def test_epsilon_outside_guard_rejected(self, capsys):
        code, out, err = run(capsys, "selftest", "--max-n", "100", "--epsilon", "1e-2")
        assert code == 2 and out == "" and "epsilon" in err

    def test_symmetry_fails_on_a_broken_class_count(self, capsys, monkeypatch):
        # the symmetry suite reads class n % p of each basis prime p through
        # theta_sin_shift and count_multiples; each broken alone, shifted one
        # class up or with the interval's lower end read as open, which only
        # n % p = 1 shows, fails it, while no count or sieve reads them
        shift = cli.theta_sin_shift
        broken = [(cli, "theta_sin_shift",
                   lambda x, m, d, mode=EXACT: shift(x, (m + 1) % d, d, mode)),
                  (legendre, "count_multiples", lambda a, b, d: b // d - a // d)]
        for module, name, wrong in broken:
            with monkeypatch.context() as patch:
                patch.setattr(module, name, wrong)
                code, out, _ = run(capsys, "selftest", "--max-n", "100")
            assert code == 1, name
            assert re.search(r"^oracle-equivalence: \d+ checks, 0 failures \[ok\]$", out, re.M)
            assert re.search(r"^partition: \d+ checks, 0 failures \[ok\]$", out, re.M)
            assert re.search(r"^symmetry: \d+ checks, [1-9]\d* failures \[FAIL\]$", out, re.M)


    def test_float_suite_names_a_flipped_array_element(self, capsys, monkeypatch):
        # the float array path is wrong at one (x, d) of the grid that is not
        # the first of its row, so the spot check does not see it
        def flipped(x, d, mode=EXACT):
            hits = theta_sin_array(x, d, mode)
            return hits if mode.is_exact else hits ^ ((x == 1234) & (d == 7))
        monkeypatch.setattr(cli, "theta_sin_array", flipped)
        code, out, _ = run(capsys, "selftest", "--max-n", "100")
        assert code == 1
        assert "float-exact-agreement: 120000 checks, 1 failures [FAIL]\n" \
               "  first counterexample: mode disagreement at x=1234, d=7\n" in out

    def test_float_suite_spot_checks_the_scalar_form(self, capsys, monkeypatch):
        # a wrong scalar theta_sin shows at the first element of every batch:
        # the 50 grid rows and the 10 batches of draws
        monkeypatch.setattr(cli, "theta_sin",
                            lambda x, d, mode=EXACT: 1 - theta_sin(x, d, mode))
        code, out, _ = run(capsys, "selftest", "--max-n", "100")
        assert code == 1
        assert "float-exact-agreement: 120000 checks, 60 failures [FAIL]\n  first " \
               "counterexample: scalar theta_sin disagrees with the array path at x=0, d=1\n" \
               in out
        assert out.count("[ok]") == 4

    def test_float_suite_counts_one_failure_per_element(self, capsys, monkeypatch):
        # the float array path is wrong everywhere, so the first element of
        # every batch fails both ways: against exact mode and against the
        # scalar form; it still counts once
        def flipped(x, d, mode=EXACT):
            hits = theta_sin_array(x, d, mode)
            return hits if mode.is_exact else ~hits
        monkeypatch.setattr(cli, "theta_sin_array", flipped)
        code, out, _ = run(capsys, "selftest", "--max-n", "100")
        assert code == 1
        assert "float-exact-agreement: 120000 checks, 120000 failures [FAIL]\n  first " \
               "counterexample: scalar theta_sin disagrees with the array path at x=0, d=1\n" \
               in out


class TestDraws:
    # the selftest suites' samples, drawn in bulk from one seeded rng
    @pytest.mark.parametrize("lo, hi", [(1, 5), (1, 1000), (-10, 9), (0, 5000)])
    def test_ints_reach_both_ends(self, lo, hi):
        draws = cli._draw_ints(random.Random(7), lo, hi, 200_000)
        assert draws.dtype == np.int64
        assert (draws.min(), draws.max()) == (lo, hi)

    def test_ints_in_the_widest_range(self):
        draws = cli._draw_ints(random.Random(7), 0, 10**6, 200_000)
        assert 0 <= draws.min() and draws.max() <= 10**6
        assert np.unique(draws).size > 150_000

    def test_nonzero(self):
        draws = cli._draw_nonzero(random.Random(7), 10, 20_000)
        assert set(draws.tolist()) == set(range(-10, 11)) - {0}

    @pytest.mark.parametrize("lo, hi", [(-1e6, 1e6), (-1e3, 1e3), (0.0, 1.0)])
    def test_floats_in_range(self, lo, hi):
        draws = cli._draw_floats(random.Random(7), lo, hi, 200_000)
        assert draws.dtype == np.float64
        assert lo <= draws.min() < lo + (hi - lo) * 1e-3
        assert hi - (hi - lo) * 1e-3 < draws.max() <= hi

    def test_operands(self):
        draws = cli._draw_operands(random.Random(7), 200_000)
        zero = draws == 0.0
        assert 0.09 < zero.mean() < 0.11
        assert -1e3 <= draws.min() < -999 and 999 < draws.max() <= 1e3


class TestExitCodes:
    @pytest.mark.parametrize("argv", [("goldbach", "100"), ("goldbach", "100", "--list"),
                                      ("scan-bound", "100", "104")])
    def test_failed_cross_check_exits_1(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(xi, "_hat_inclusion_exclusion", lambda *args: -1)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: hat marking") and "Traceback" not in err

    def test_hat_one_off_exits_1(self, capsys, monkeypatch):
        hat = pair_counts(1000, build_prime_table(31)).hat
        hat_ie = xi._hat_inclusion_exclusion
        monkeypatch.setattr(xi, "_hat_inclusion_exclusion", lambda *args: hat_ie(*args) + 1)
        code, out, err = run(capsys, "goldbach", "1000")
        assert (code, out) == (1, "")
        assert err == f"error: hat marking {hat} != inclusion-exclusion {hat + 1} for n=1000\n"

    def test_failed_bitmap_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(xi, "_pair_count", lambda *args: -1)
        code, _, err = run(capsys, "scan-bound", "1000", "1100", "--emit", "csv")
        assert code == 1
        assert err.startswith("error: bitmap counts") and "Traceback" not in err

    def test_impossible_count_inside_a_span_exits_1(self, capsys, monkeypatch):
        # n = 1050 is neither end of the span, so no sieved check sees it
        pair_count = xi._pair_count
        monkeypatch.setattr(xi, "_pair_count", lambda odd, rev, buf, n, a:
                            -1 if n == 1050 else pair_count(odd, rev, buf, n, a))
        code, _, err = run(capsys, "scan-bound", "1000", "1100", "--emit", "csv")
        assert code == 1
        assert err.startswith("error: bitmap counts") and "n=1050" in err
        assert "Traceback" not in err

    def test_negative_hat_inside_a_span_exits_1(self, capsys, monkeypatch):
        # the closed-form hat of n = 1050 alone turns negative; the sieved
        # checks at the span's ends do not see it, the span's array check does
        hat_column = xi._hat_column

        def negative_at_1050(ns, *args):
            hats = hat_column(ns, *args)
            hats[ns == 1050] = -1
            return hats
        monkeypatch.setattr(xi, "_hat_column", negative_at_1050)
        code, _, err = run(capsys, "scan-bound", "1000", "1100", "--emit", "csv")
        assert code == 1
        assert err.startswith("error: bitmap counts") and "n=1050" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["primecount", "composites"])
    def test_count_oracle_mismatch_exits_1(self, capsys, monkeypatch, command):
        monkeypatch.setattr(oracle, "pi_oracle", lambda table, n: 0)
        code, out, err = run(capsys, command, "100", "--oracle-check")
        assert code == 1 and out == ("25\n" if command == "primecount" else "74\n")
        assert err.startswith("oracle mismatch: method legendre gave")

    # an --oracle-check past the table budget is refused before any work;
    # at the budget itself the command goes on to build its table
    @pytest.mark.parametrize("command", ["primecount", "composites", "goldbach"])
    def test_oracle_check_past_the_budget_exits_2_first(self, capsys, monkeypatch, command):
        class TableBuilt(Exception):
            pass

        def no_table(*args):
            raise TableBuilt
        monkeypatch.setattr(oracle, "build_prime_table", no_table)
        monkeypatch.setattr(legendre, "build_prime_table", no_table)
        for n in (cli._ORACLE_MAX_N + 2, 10**9):
            code, out, err = run(capsys, command, str(n), "--oracle-check")
            assert code == 2 and out == ""
            assert err == f"error: --oracle-check needs n <= {cli._ORACLE_MAX_N}, got {n}\n"
        with pytest.raises(TableBuilt):
            main([command, str(cli._ORACLE_MAX_N), "--oracle-check"])

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli.xi, "_bitmap_span", out_of_memory)
        code, _, err = run(capsys, "scan-bound", "100", "104")
        assert code == 2
        assert err.startswith("error: out of memory") and "Traceback" not in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "no-such-command")[0] == 2

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_bad_workers(self, capsys):
        code, _, err = run(capsys, "scan-bound", "100", "104", "--workers", "0")
        assert code == 2 and "--workers" in err

    @pytest.mark.parametrize("argv", [
        ("primecount", "10", "--mode", "float"),
        ("composites", "10", "--epsilon", "1e-9"),
        ("goldbach", "100", "--workers", "2"),
        ("selftest", "--max-n", "100", "--emit", "csv"),
    ])
    def test_flag_the_command_does_not_read(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("listing", [("--list",), ("--list", "--oracle-check")])
    def test_list_has_no_csv_form(self, capsys, listing):
        code, out, err = run(capsys, "goldbach", "30030", *listing, "--emit", "csv")
        assert code == 2 and out == ""
        assert err.startswith("error: --list needs --emit human or json")

    @pytest.mark.parametrize("argv", [
        ("goldbach", "30030", "--list", "--emit", "csv"),
        ("selftest", "--max-n", "50"),
        ("scan-bound", "100", "98", "--emit", "csv"),
        ("scan-bound", "101", "105", "--emit", "csv"),
    ])
    def test_rejected_arguments_leave_the_out_file(self, capsys, tmp_path, argv):
        target = tmp_path / "kept.out"
        target.write_bytes(b"keep me\n")
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2 and out == "" and err.startswith("error: ")
        assert target.read_bytes() == b"keep me\n"

    def test_accepted_arguments_replace_the_out_file(self, capsys, tmp_path):
        target = tmp_path / "replaced.out"
        target.write_bytes(b"an older and longer record\n")
        code, out, _ = run(capsys, "primecount", "100", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == b"25\n"

    def test_out_file_in_a_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "f"
        code, out, err = run(capsys, "primecount", "100", "--out", str(target))
        assert code == 2 and out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_directory_as_out_file_exits_2(self, capsys, tmp_path):
        (tmp_path / "inside").write_bytes(b"keep me\n")
        code, out, err = run(capsys, "primecount", "100", "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {tmp_path}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["inside"]
        assert (tmp_path / "inside").read_bytes() == b"keep me\n"

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_out_file_is_checked_before_the_work(self, capsys, monkeypatch, tmp_path, where):
        def no_sieve(*args):
            raise AssertionError("the sieve ran before --out was checked")
        monkeypatch.setattr(xi, "pair_counts_and_array", no_sieve)
        target = tmp_path / "missing" / "f" if where == "missing directory" else tmp_path
        code, out, err = run(capsys, "goldbach", "30030", "--list", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")

    def test_the_check_makes_no_out_file(self, capsys, tmp_path):
        target = tmp_path / "new.out"
        code, _, _ = run(capsys, "goldbach", "30030", "--list", "--emit", "csv",
                         "--out", str(target))
        assert code == 2 and not target.exists()

    def test_fifo_out_file_is_opened_once(self, capsys, monkeypatch, tmp_path):
        # a reader such as cat stops at the first close of the FIFO's writer,
        # so the check before the work must not open a FIFO
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            def no_open(*args):
                raise AssertionError("the check opened the FIFO")
            monkeypatch.setattr(os, "open", no_open)
            assert run(capsys, "primecount", "100", "--out", str(fifo))[0] == 0
            assert os.read(reader, 100) == b"25\n"
        finally:
            os.close(reader)

    def test_each_command_takes_only_the_flags_it_reads(self):
        expected = {
            "primecount": {"--method", "--oracle-check", "--emit", "--out"},
            "composites": {"--method", "--oracle-check", "--emit", "--out"},
            "goldbach": {"--list", "--interval", "--oracle-check", "--emit", "--out"},
            "scan-bound": {"--step", "--emit", "--workers", "--out"},
            "selftest": {"--max-n", "--epsilon", "--out"},
        }
        (commands,) = [action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        flags = {
            name: {opt for action in sub._actions if not isinstance(action, argparse._HelpAction)
                   for opt in action.option_strings}
            for name, sub in commands.items()
        }
        assert flags == expected

    def test_console_entry_point(self, capsys):
        # main(argv=None) reads sys.argv[1:] itself; one argv per command
        for argv in (("primecount", "10"),
                     ("composites", "100", "--method", "direct-mark", "--emit", "csv"),
                     ("goldbach", "100", "--list", "--emit", "json"),
                     ("scan-bound", "100", "110", "--emit", "csv"),
                     ("selftest", "--max-n", "100")):
            proc = subprocess.run([sys.executable, "-m", "pairsieve", *argv],
                                  capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv), argv
            assert proc.returncode == 0 and proc.stdout, argv
            if argv == ("primecount", "10"):
                assert proc.stdout == "4\n"


#: argv that ``main`` must parse, word and exit on exactly as the full tree
#: of ``build_parser`` does, whether the named command's own parser or the
#: tree reads them
_USAGE_CORPUS = [
    ("-h",), ("--help",), (), ("no-such-command",),
    *[(command, "-h") for command in cli._COMMANDS],
    # another command's flag after each command
    ("primecount", "10", "--list"), ("composites", "10", "--workers", "2"),
    ("goldbach", "100", "--method", "legendre"), ("scan-bound", "100", "104", "--max-n", "5"),
    ("selftest", "--emit", "csv"),
    ("primecount", "ten"), ("selftest", "--epsilon", "small"),
    ("primecount", "10", "--method", "sieve"), ("scan-bound", "100"),
    ("goldbach", "100", "--o"), ("primecount", "10", "--foo", "--bar"),
    ("primecount", "10", "--meth", "survivor"), ("primecount", "10", "--method=survivor"),
    ("primecount", "--", "10"), ("scan-bound", "100", "--", "104"),
    ("primecount", "10", "-h"), ("-x", "primecount", "10"), ("--", "primecount", "10"),
    ("goldbach", "100", "--list", "--interval", "10:90", "--emit", "json"),
]


class TestParsing:
    @pytest.mark.parametrize("argv", _USAGE_CORPUS, ids=lambda argv: " ".join(argv) or "-")
    def test_main_parses_as_the_full_tree(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal's width
        handled = []
        for name in ("cmd_count", "cmd_goldbach", "cmd_scan_bound", "cmd_selftest"):
            monkeypatch.setattr(cli, name, lambda args, out: handled.append(args) or 0)
        try:
            expected, code = [build_parser().parse_args(list(argv))], 0
        except SystemExit as exc:
            expected, code = [], exc.code
        tree = capsys.readouterr()
        assert run(capsys, *argv) == (code, tree.out, tree.err)
        assert handled == expected

    @staticmethod
    def _parsers_made(monkeypatch):
        made = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return made

    def test_a_named_command_builds_one_parser(self, capsys, monkeypatch):
        made = self._parsers_made(monkeypatch)
        assert run(capsys, "primecount", "10") == (0, "4\n", "")
        assert made == ["pairsieve primecount"]

    def test_leftover_arguments_get_the_top_level_error(self, capsys, monkeypatch):
        made = self._parsers_made(monkeypatch)
        code, out, err = run(capsys, "primecount", "10", "--foo")
        assert code == 2 and out == ""
        assert err.startswith("usage: pairsieve [-h] {primecount,composites,")
        assert err.endswith("\npairsieve: error: unrecognized arguments: --foo\n")
        assert made == ["pairsieve primecount", "pairsieve",
                        *(f"pairsieve {command}" for command in cli._COMMANDS)]

    def test_import_builds_no_parser(self):
        # argparse's first parser imports locale through gettext; importing
        # the CLI must leave that, and every parser, to the run
        probe = ("import argparse, sys\n"
                 "made = []\n"
                 "init = argparse.ArgumentParser.__init__\n"
                 "argparse.ArgumentParser.__init__ = "
                 "lambda *args, **kwargs: made.append(1) or init(*args, **kwargs)\n"
                 "import pairsieve.cli\n"
                 "print(len(made), 'locale' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "0 False\n"
