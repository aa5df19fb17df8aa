"""Tests of the benchmark's own machinery: input generation, span
arithmetic, the output checker and the metric list in BENCHMARK.json."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

from pairsieve.cli import main as cli_main  # noqa: E402


def cli_output(capsys, *argv: str) -> str:
    assert cli_main(list(argv)) == 0
    return capsys.readouterr().out


def error_rate(argv: tuple[str, ...], outputs: list[str], limit: int) -> float:
    checker = checks.Checker(seed=7, limit=limit)
    results = []
    for text in outputs:
        op = run.OpResult("op", argv, False, Path("unused"), wall_s=1.0)
        op.problems = checker.check(argv, text)
        results.append(op)
    return run.error_rate(results)


# --- generator -------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert workloads.generate(workload, 5) == workloads.generate(workload, 5)


@pytest.mark.parametrize("workload", ["pairs", "primecount"])
def test_seed_changes_argv(workload):
    argvs = {tuple(workloads.generate(workload, seed)) for seed in range(6)}
    assert len(argvs) > 1


def test_pairs_inputs_have_the_promised_shape():
    for seed in range(5):
        (_, hat_argv), (_, tilde_argv), (_, scan_argv) = workloads.generate("pairs", seed)
        n_hat, n_tilde = int(hat_argv[1]), int(tilde_argv[1])
        assert n_hat % 30030 == 0 and workloads._is_prime(n_hat // 30030)
        assert n_tilde % 2 == 0 and workloads._is_prime(n_tilde // 2)
        assert 19_000_000 < n_hat < 2 * 10**7 and 19_900_000 < n_tilde < 2 * 10**7
        assert scan_argv[0] == "scan-bound" and 10_000 <= int(scan_argv[1]) < 10_000 + 3314


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        workloads.generate("nope", 1)


# --- span arithmetic -------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),     # overlaps a: the union [1, 6] counts once
        Span("leaf", 2.0, 3.0, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_summarize_adds_per_name():
    spans = [
        Span("main", 0.0, 10.0, -1, 0),
        Span("gen", 1.0, 2.0, 0, 0),  # two resumptions of one generator
        Span("gen", 5.0, 7.0, 0, 0),
        Span("call", 2.5, 3.0, 0, 0),
    ]
    stats = tracing.summarize(spans)
    assert stats["gen"] == (2, pytest.approx(3.0), pytest.approx(3.0))
    assert stats["main"].self_s == pytest.approx(10.0 - 3.5)


def test_traced_child_wraps_rebound_names(tmp_path):
    result = tmp_path / "result.json"
    env = {"PYTHONPATH": str(BENCH.parent / "src")}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "0", str(result), "1", "3",
         "selftest", "--max-n", "100"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert data["rc"] == 0
    names = {s[0] for s in data["trace"]["spans"]}
    # cli.theta_sin and xi.build_prime_table are re-bound names
    assert {"cli.main", "theta.theta_sin", "oracle.build_prime_table",
            "legendre.prime_count.survivor", "xi.prime_pair_list"} <= names
    assert all(s[4] == 3 for s in data["trace"]["spans"])
    assert data["trace"]["sieved"]


# --- end-to-end arithmetic -------------------------------------------------


def test_times_are_divided_by_their_own_reference_pass():
    def op(label, wall, ref, setup=0.1):
        r = run.OpResult(label, (), False, Path("unused"), wall_s=wall, setup_s=setup, ref_s=ref)
        r.cpu_parent_s = wall / 2
        return r

    results = [op("a", 1.0, 0.5), op("a", 3.0, 1.0), op("a", 1.0, 1.0), op("b", 2.0, 1.0)]
    probes = [op("setup", 0.0, 0.25, setup=0.2), op("setup", 0.0, 0.5, setup=0.2)]
    e2e = run.end_to_end(results, probes)
    assert e2e["wall_ref"][0] == pytest.approx((2 + 3 + 1) / 3 + 2)
    assert e2e["cpu_ref"][0] == pytest.approx(((2 + 3 + 1) / 3 + 2) / 2)
    assert e2e["wall_s"][0] == pytest.approx(1.0 + 2.0)
    # set-up over reference: 0.8, 0.4 (probes), 0.2, 0.1, 0.1, 0.1
    assert e2e["setup_s"][0] == pytest.approx(0.15 * reference.NOMINAL_S)
    assert e2e["setup_measured_s"][0] == pytest.approx(0.1)


def test_reference_kernel_result():
    assert reference.one_pass() == reference.RESULT


# --- checker ---------------------------------------------------------------


SCAN_ARGV = ("scan-bound", "1000", "1400", "--step", "20", "--emit", "csv")
GOLDBACH_ARGV = ("goldbach", "10000", "--list", "--emit", "json")


def test_checker_accepts_real_outputs(capsys):
    scan = cli_output(capsys, *SCAN_ARGV)
    goldbach = cli_output(capsys, *GOLDBACH_ARGV)
    assert error_rate(SCAN_ARGV, [scan], 1400) == 0
    assert error_rate(GOLDBACH_ARGV, [goldbach], 10000) == 0
    assert checks.selftest(cli_output(capsys, "selftest", "--max-n", "100")) == []


def test_checker_flags_corrupted_scan(capsys):
    clean = cli_output(capsys, *SCAN_ARGV)
    header, *rows = clean.splitlines(keepends=True)
    shifted = [header]
    for row in rows:
        # one pair moved from prime_pairs to tilde: the partition still adds up
        fields = row.split(",")
        fields[1], fields[3] = str(int(fields[1]) - 1), str(int(fields[3]) + 1)
        shifted.append(",".join(fields))
    moved = "".join(shifted)
    dropped = "".join([header] + rows[:-1])
    rate = error_rate(SCAN_ARGV, [clean, moved, dropped], 1400)
    assert rate == pytest.approx(2 / 3)


def test_checker_flags_corrupted_goldbach(capsys):
    clean = cli_output(capsys, *GOLDBACH_ARGV)
    record = json.loads(clean)
    swapped = dict(record, x=record["x"][:-1] + [record["x"][-1] + 2])
    short = dict(record, x=record["x"][1:])
    outputs = [clean, json.dumps(swapped), json.dumps(short), "not json"]
    assert error_rate(GOLDBACH_ARGV, outputs, 10000) == pytest.approx(3 / 4)


def test_checker_flags_selftest_failures():
    assert checks.selftest("partition: 10 checks, 1 failures [FAIL]\n  first counterexample: x\n")
    assert checks.selftest("")


# --- metric list -----------------------------------------------------------


def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
