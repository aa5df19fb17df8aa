"""One pairsieve CLI invocation in a fresh interpreter, with its costs.

Usage: python3 child.py SPAWN_T RESULT_JSON TRACE RUN_ID [ARG ...]

SPAWN_T is the CLOCK_MONOTONIC reading the parent took just before it
started this process (the clock is system-wide on Linux); set-up is
measured from it to the end of ``import pairsieve``. With no ARG the
process only measures set-up. ``pairsieve.cli.main(ARG ...)`` writes to
this process's stdout, which carries nothing else. Last, the process
times one pass of the reference kernel (see ``reference``).
TRACE=1 wraps the package's public functions first (see ``tracing``).
"""

import sys
import time

import pairsieve  # noqa: F401  -- the end of this import ends set-up

_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402


def _cpu(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def _timed_main(argv: list[str]) -> dict:
    from pairsieve import cli

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    rc, error = None, None
    try:
        rc = cli.main(argv)
    except Exception:  # the parent counts it as a failed operation
        error = traceback.format_exc()
    sys.stdout.flush()
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "cpu_parent_s": _cpu(self1) - _cpu(self0),
        "cpu_children_s": _cpu(kids1) - _cpu(kids0),
        "maxrss_kb": max(tracing.peak_rss_kb(), kids1.ru_maxrss),
    }


def main() -> None:
    spawn_t, result_path, trace, run_id, *argv = sys.argv[1:]
    result: dict = {"setup_s": _IMPORTED - float(spawn_t)}
    if argv and trace == "1":
        import pairsieve.cli  # noqa: F401  -- load every module before wrapping

        recorder = tracing.Recorder(int(run_id))
        tracing.instrument(recorder)
        result.update(_timed_main(argv), trace=recorder.dump())
    elif argv:
        result.update(_timed_main(argv))
    # last, so that the kernel's array is not in the peak memory
    result["ref_s"] = reference.seconds()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
