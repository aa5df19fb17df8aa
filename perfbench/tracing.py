"""Spans around calls into pairsieve's public functions, and their analysis.

``instrument`` replaces every binding of the traced functions in the
loaded ``pairsieve`` modules (re-bound names such as ``cli.theta_sin``
and ``xi.build_prime_table`` included) with a wrapper that records one
span per call: name, start, end, parent span and run id. Nothing under
``src/`` is edited; the wrappers live only in the traced process.

A generator function gets one span per resumption, so its spans cover
the time its consumer is blocked in ``next()`` and nothing in between.

``summarize`` turns the spans and counters of one process into per-name
call counts, total time and self time (a span minus the part of its
interval that its children cover).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple

#: (module, function) pairs whose calls are traced.
TRACED = (
    ("oracle", "build_prime_table"),
    ("oracle", "pi_oracle"),
    ("oracle", "goldbach_pairs_oracle"),
    ("theta", "theta_sin"),
    ("legendre", "make_basis"),
    ("legendre", "prime_count"),
    ("legendre", "composite_count"),
    ("xi", "make_residue_basis"),
    ("xi", "pair_counts"),
    ("xi", "prime_pair_list"),
    ("xi", "iter_pair_counts"),
    ("xi", "bound_value"),
    ("cli", "main"),
)

#: Functions whose results are interval sieves; their (n, a, b) are kept
#: so the work they did can be counted after the run.
SIEVING = ("xi.pair_counts", "xi.prime_pair_list", "xi.iter_pair_counts")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run: int


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self, run: int) -> None:
        self.run = run
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.sieved: list[tuple[int, int, int]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "sieved": self.sieved}


def peak_rss_kb() -> int:
    """Peak RSS of this process's program image (VmHWM). ru_maxrss would
    also count the process it was forked from, which for a benchmark
    child is the benchmark itself."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _span_name(qualname: str, args: tuple, kwargs: dict) -> str:
    if qualname == "legendre.prime_count":
        method = kwargs.get("method", args[1] if len(args) > 1 else "legendre")
        return f"{qualname}.{method}"
    return qualname


def _sieved_interval(qualname: str, args: tuple, kwargs: dict, result, xi) -> tuple[int, int, int]:
    if qualname == "xi.pair_counts":
        return (result.n, *result.interval)
    n = args[0] if args else kwargs["n"]
    interval = kwargs.get("interval", args[2] if len(args) > 2 else None)
    return (n, *(interval or xi.default_interval(n)))


def _wrap_function(rec: Recorder, qualname: str, fn: Callable, xi) -> Callable:
    track_rss = qualname == "legendre.prime_count"
    sieving = qualname in SIEVING

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = _span_name(qualname, args, kwargs)
        rss0 = peak_rss_kb() if track_rss else 0
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx)
            rec.counters[f"{qualname}.errors"] += 1
            raise
        rec.close(idx)
        if track_rss:
            rec.counters[f"{name}.rss_delta_kb"] += peak_rss_kb() - rss0
        if sieving:
            rec.sieved.append(_sieved_interval(qualname, args, kwargs, result, xi))
        return result

    return wrapper


def _wrap_generator(rec: Recorder, qualname: str, fn: Callable, xi) -> Callable:
    sieving = qualname in SIEVING

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counters[f"{qualname}.calls"] += 1
        inner = fn(*args, **kwargs)
        try:
            while True:
                idx = rec.open(qualname)
                try:
                    item = next(inner)
                except StopIteration:
                    rec.close(idx)
                    return
                except BaseException:
                    rec.close(idx)
                    rec.counters[f"{qualname}.errors"] += 1
                    raise
                rec.close(idx)
                rec.counters[f"{qualname}.records"] += 1
                if sieving:
                    rec.sieved.append((item.n, *item.interval))
                yield item
        finally:
            inner.close()

    return wrapper


def instrument(rec: Recorder) -> None:
    """Wrap every binding of the ``TRACED`` functions in loaded pairsieve
    modules. Call after ``import pairsieve.cli``."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "pairsieve" or name.startswith("pairsieve.")}
    xi = modules["pairsieve.xi"]
    for mod_name, fn_name in TRACED:
        original = getattr(modules[f"pairsieve.{mod_name}"], fn_name)
        qualname = f"{mod_name}.{fn_name}"
        wrap = _wrap_generator if inspect.isgeneratorfunction(original) else _wrap_function
        wrapped = wrap(rec, qualname, original, xi)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


class NameStats(NamedTuple):
    calls: int
    total_s: float
    self_s: float


def self_times(spans: Iterable[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals
    clipped to it."""
    spans = list(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def summarize(spans: Iterable[Span]) -> dict[str, NameStats]:
    """Calls, total time and self time per span name."""
    spans = list(spans)
    stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s, own in zip(spans, self_times(spans)):
        entry = stats[s.name]
        entry[0] += 1
        entry[1] += s.end - s.start
        entry[2] += own
    return {name: NameStats(*v) for name, v in stats.items()}
