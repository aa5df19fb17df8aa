"""pairsieve benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 30 --trace 0

Run from the root of a source tree. Every operation is a fresh
interpreter (``child.py``) that imports the working tree's ``src/`` and
calls ``pairsieve.cli.main`` with the argv that ``workloads.generate``
made from the seed. The workload's operations run in turn until
``--seconds`` have elapsed, each at least once, and each process then
times a fixed reference kernel (``reference.py``). After the timed
region every output is checked against ``pairsieve.oracle``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` each operation then runs once more,
traced, and the metrics are the per-layer ones derived from its spans.
The lines before it give the generated argv, an environment stamp and
every metric with its unit and sample count. See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Spawns that only measure set-up, after one uncounted warm-up spawn.
SETUP_PROBES = 5
#: Everything, checks included, must finish well inside three minutes.
BUDGET_S = 150.0

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MiB"}
#: Printed with their sample counts, but not in the result line: measured
#: seconds swing by up to 2x from one process to the next on a shared
#: host (see README.md).
PRINTED = {"wall_s": "s", "cpu_s": "s", "reference_s": "s", "setup_measured_s": "s"}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for mod, fn in tracing.TRACED:
        name = f"{mod}.{fn}"
        if name == "legendre.prime_count":
            for method in ("legendre", "theta-sum", "survivor"):
                units[f"{name}.{method}.calls"] = "count"
                units[f"{name}.{method}.self_s"] = "s"
            units[f"{name}.legendre.rss_delta_mb"] = "MiB"
        elif name == "xi.iter_pair_counts":
            units.update({f"{name}.calls": "count", f"{name}.wait_s": "s",
                          f"{name}.self_s": "s", f"{name}.records": "count"})
        else:
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
    units.update({
        "xi.positions": "count", "xi.positions_per_s": "1/s",
        "xi.class_hits": "count", "xi.class_hits_per_s": "1/s",
        "cli.bytes_out": "bytes",
        "proc.cpu_parent_s": "s", "proc.cpu_children_s": "s",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()


@dataclass
class OpResult:
    label: str
    argv: tuple[str, ...]
    traced: bool
    out_path: Path
    wall_s: float
    setup_s: float | None = None
    ref_s: float | None = None
    cpu_parent_s: float = 0.0
    cpu_children_s: float = 0.0
    maxrss_kb: int = 0
    rc: int | None = None
    error: str | None = None
    trace: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return self.cpu_parent_s + self.cpu_children_s

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Runner:
    """Spawns child interpreters inside a temporary directory and collects
    their results; owns the deadline every spawn must meet."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.deadline = time.monotonic() + BUDGET_S
        self.spawned = 0
        env = dict(os.environ, TMPDIR=str(work))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def spawn(self, label: str, argv: tuple[str, ...], traced: bool = False) -> OpResult:
        self.spawned += 1
        stem = self.work / f"op{self.spawned}"
        out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
        result_path = stem.with_suffix(".json")
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawn_t = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), repr(spawn_t), str(result_path),
                 "1" if traced else "0", str(self.spawned), *argv],
                stdout=out, stderr=err, env=self.env, cwd=self.work,
                start_new_session=True)
            code = None
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
            finally:
                if code is None:  # timed out, or this process is being stopped
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn_t
        op = OpResult(label, argv, traced, out_path, wall_s=elapsed)
        if code is None:
            op.problems.append(f"killed after {timeout:.0f} s")
        elif code != 0 or not result_path.exists():
            op.problems.append(f"benchmark child exited {code}: {_tail(err_path)}")
        else:
            data = json.loads(result_path.read_text(encoding="utf-8"))
            op.setup_s = data["setup_s"]
            for key in ("wall_s", "ref_s", "cpu_parent_s", "cpu_children_s", "maxrss_kb",
                        "rc", "error", "trace"):
                if key in data:
                    setattr(op, key, data[key])
            if op.error:
                op.problems.append(f"raised: {op.error.strip().splitlines()[-1]}")
            elif argv and op.rc != 0:
                op.problems.append(f"exit code {op.rc}: {_tail(err_path)}")
        return op

    def setup_probe(self) -> OpResult:
        op = self.spawn("setup", ())
        if op.setup_s is None:
            raise RuntimeError(f"set-up probe failed: {'; '.join(op.problems)}")
        return op

    def sample(self, ops: list[workloads.Op], seconds: float) -> list[OpResult]:
        """The operations in turn until ``seconds`` have elapsed. Each runs
        at least once; none starts that the last one's length says would
        miss the deadline."""
        results: list[OpResult] = []
        t0 = time.monotonic()
        for i in itertools.count():
            op = ops[i % len(ops)]
            s0 = time.monotonic()
            results.append(self.spawn(op.label, op.argv))
            now = time.monotonic()
            if i + 1 >= len(ops) and (now - t0 >= seconds or now + 2 * (now - s0) > self.deadline):
                return results


def _tail(path: Path, limit: int = 300) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip()
    return text[-limit:] if text else "(no stderr)"


def _by_label(results: list[OpResult]) -> dict[str, list[OpResult]]:
    groups: dict[str, list[OpResult]] = defaultdict(list)
    for r in results:
        groups[r.label].append(r)
    return groups


def end_to_end(results: list[OpResult], probes: list[OpResult]) -> dict[str, tuple[float, str]]:
    """Metric -> (value, how it was sampled). A time is one pass: the sum
    over the workload's operations of a per-operation average.

    A ``_ref`` time divides each sample by the reference kernel's time
    in the same process (see ``reference.py``) and takes the mean:
    per-operation samples are bimodal, fast and slow processes, and a
    median jumps between the modes from run to run. ``setup_s`` is the
    median set-up over every spawn, each divided the same way and put
    back into seconds at ``reference.NOMINAL_S`` per pass."""
    setups = [r for r in probes + results if r.setup_s is not None]
    groups = _by_label(results).values()
    counts = "+".join(str(len(g)) for g in groups)
    refs = [r.ref_s for r in results]

    def one_pass(sample, average=statistics.median) -> float:
        return sum(average(sample(r) for r in g) for g in groups)

    return {
        "setup_s": (statistics.median(r.setup_s / r.ref_s for r in setups) * reference.NOMINAL_S,
                    f"median of {len(setups)} set-ups at {reference.NOMINAL_S} s per reference pass"),
        "wall_ref": (one_pass(lambda r: r.wall_s / r.ref_s, statistics.fmean),
                     f"sum over {len(groups)} operations of the mean wall_s / reference_s, "
                     f"n={counts}"),
        "cpu_ref": (one_pass(lambda r: r.cpu_s / r.ref_s, statistics.fmean),
                    f"same with cpu_s, n={counts}"),
        "peak_rss_mb": (max(r.maxrss_kb for r in results) / 1024,
                        f"max peak RSS over {len(results)} operations and their workers"),
        "wall_s": (one_pass(lambda r: r.wall_s),
                   f"sum over {len(groups)} operations of per-operation medians, n={counts}"),
        "cpu_s": (one_pass(lambda r: r.cpu_s),
                  f"same, user+sys incl. waited-for children, n={counts}"),
        "reference_s": (statistics.median(refs), f"median of {len(refs)} kernel passes, "
                        "one in each operation's process"),
        "setup_measured_s": (statistics.median(r.setup_s for r in setups),
                             f"median of {len(setups)} set-ups as measured"),
    }


def error_rate(results: list[OpResult]) -> float:
    """Failed operations over attempted ones."""
    return sum(r.failed for r in results) / len(results)


def class_weight_sums(sieved: list[tuple[int, int, int]]) -> float:
    """Computed marking work: sum over sieved intervals of len * c_p / p
    for every prime p <= sqrt(n), c_p = 1 if p | n else 2."""
    if not sieved:
        return 0.0
    from pairsieve import oracle  # src/ is on sys.path only inside main()

    primes = [int(p) for p in
              oracle.build_prime_table(max(2, math.isqrt(max(n for n, _, _ in sieved)))).primes]
    per_n: dict[int, float] = {}
    total = 0.0
    for n, a, b in sieved:
        if n not in per_n:
            root = math.isqrt(n)
            per_n[n] = sum((1 if n % p == 0 else 2) / p for p in primes if p <= root)
        total += (b - a + 1) * per_n[n]
    return total


def per_layer(traced: list[OpResult], untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics summed over the traced pass's operations."""
    stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counters: dict[str, float] = defaultdict(float)
    sieved: list[tuple[int, int, int]] = []
    for op in traced:
        spans = [tracing.Span(*s) for s in op.trace.get("spans", ())]
        for name, st in tracing.summarize(spans).items():
            for i, v in enumerate(st):
                stats[name][i] += v
        for name, v in op.trace.get("counters", {}).items():
            counters[name] += v
        sieved.extend(tuple(s) for s in op.trace.get("sieved", ()))

    metrics = {name: 0.0 for name in PER_LAYER}
    for name, (calls, total, own) in stats.items():
        if name == "xi.iter_pair_counts":
            metrics[f"{name}.wait_s"] = total
        elif f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] = calls
        if f"{name}.self_s" in metrics:
            metrics[f"{name}.self_s"] = own
    for name, v in counters.items():
        if name.endswith(".rss_delta_kb"):
            name, v = name.removesuffix("_kb") + "_mb", v / 1024
        if name in metrics:
            metrics[name] = v

    sieve_s = sum(metrics[f"{n}.self_s"] for n in tracing.SIEVING)
    metrics["xi.positions"] = sum(b - a + 1 for _, a, b in sieved)
    metrics["xi.class_hits"] = class_weight_sums(sieved)
    if sieve_s > 0:
        metrics["xi.positions_per_s"] = metrics["xi.positions"] / sieve_s
        metrics["xi.class_hits_per_s"] = metrics["xi.class_hits"] / sieve_s
    metrics["cli.bytes_out"] = sum(op.out_path.stat().st_size for op in traced)
    metrics["proc.cpu_parent_s"] = sum(op.cpu_parent_s for op in traced)
    metrics["proc.cpu_children_s"] = sum(op.cpu_children_s for op in traced)
    metrics["trace.overhead_s"] = sum(op.wall_s for op in traced) - untraced_wall
    return metrics


def _loadavg() -> list[float] | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _git_sha() -> str | None:
    """HEAD's commit from the .git directory, without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {"nproc": os.cpu_count(), "git_sha": _git_sha(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_start": _loadavg()}


def check_outputs(results: list[OpResult], seed: int) -> None:
    """Attach oracle problems to every operation that ran to completion."""
    import checks  # imports pairsieve, so only once src/ is on sys.path

    done = [r for r in results if not r.problems]
    if not done:
        return
    checker = checks.Checker(seed, max(checks.oracle_limit(r.argv) for r in done))
    for r in done:
        r.problems.extend(checker.check(r.argv, r.out_path.read_text(encoding="utf-8")))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "pairsieve" / "__init__.py").is_file():
        print(f"error: no pairsieve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a stop request unwinds like an exception, so the running child
    # and the temporary directory are cleaned up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment()
    ops = workloads.generate(args.workload, args.seed)

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(work)
        runner.setup_probe()  # warm-up: bytecode caches, page cache
        probes = [runner.setup_probe() for _ in range(SETUP_PROBES)]
        results = runner.sample(ops, args.seconds)
        traced = [runner.spawn(op.label, op.argv, traced=True) for op in ops] if args.trace else []
        check_outputs(results + traced, args.seed)
        e2e = end_to_end(results, probes)
        layers = per_layer(traced, e2e["wall_s"][0]) if args.trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = _loadavg()

    everything = results + traced
    failed = [r for r in everything if r.failed]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for op in ops:
        print(f"argv {op.label}: {' '.join(op.argv)}")
    print("env " + json.dumps(env))
    for label, group in _by_label(results).items():
        print(f"wall_s samples {label}: " + " ".join(f"{r.wall_s:.4g}" for r in group))
    units = {**END_TO_END, **PRINTED}
    for name, (value, how) in e2e.items():
        print(f"{name:<16} {value:.6g} {units[name]}  ({how})")
    print(f"{'error_rate':<16} {error_rate(everything):.6g} ratio  ({len(failed)} failed of "
          f"{len(everything)} attempted)")
    for r in failed:
        print(f"FAILED {r.label}{' (traced)' if r.traced else ''}: {'; '.join(r.problems[:3])}")
    for name, value in layers.items():
        print(f"{name:<44} {value:.6g} {PER_LAYER[name]}")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failed, "attempted": len(everything),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
