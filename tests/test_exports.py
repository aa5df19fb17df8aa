import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pairsieve

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_exports_resolve():
    # every name a module exports exists, and the package re-exports only
    # names its source modules export
    for info in pkgutil.iter_modules(pairsieve.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pairsieve.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    tree = ast.parse(Path(pairsieve.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"pairsieve.{node.module}").__all__
            unexported = [alias.name for alias in node.names if alias.name not in exported]
            assert not unexported, (node.module, unexported)


def test_no_public_block_size_or_guard():
    # the sieve's block size and the float guard are fixed: results do not
    # depend on the one, and only the stated domain makes the other sound
    for info in pkgutil.iter_modules(pairsieve.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pairsieve.{info.name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters
            except ValueError:  # an exception class such as GuardError has none
                continue
            knobs = {"block_size", "guard"} & set(params)
            assert not knobs, (info.name, name, knobs)


def _references(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(name, enclosing top-level definition) for every name a module
    reads, as a bare name or as an attribute; ``__all__`` and the import
    lists hold strings and aliases, so they are not reads."""
    refs = []
    for node in tree.body:
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                refs.append((sub.id, owner))
            elif isinstance(sub, ast.Attribute):
                refs.append((sub.attr, owner))
    return refs


def test_every_export_has_a_caller():
    # a public name earns its place on a program path, or in the acceptance
    # suite; one that only unit tests call is a second copy of a concept
    package = Path(pairsieve.__file__).parent
    used = {name for path in package.glob("*.py")
            for name, owner in _references(ast.parse(path.read_text(encoding="utf-8")))
            if name != owner}
    acceptance = ast.parse(
        (Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    used |= {alias.name for node in ast.walk(acceptance)
             if isinstance(node, ast.ImportFrom) and node.module == "pairsieve"
             for alias in node.names}
    for info in pkgutil.iter_modules(pairsieve.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pairsieve.{info.name}")
        idle = [name for name in module.__all__ if name not in used]
        assert not idle, (info.name, idle)


def _run_clean(code: str, **extra: str) -> str:
    """stdout of ``python -c code`` in an environment with none of the
    BLAS thread variables but those given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(extra)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_thread():
    # pairsieve makes no BLAS call: numpy loads with one OpenBLAS thread,
    # and the variable that asked for it is gone again
    code = ("import os, pairsieve\n"
            "print(len(os.listdir('/proc/self/task')), 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert _run_clean(code) == "1 False\n"


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_import_keeps_a_chosen_thread_count(name):
    code = ("import os, pairsieve\n"
            f"print([os.environ.get(k) for k in {BLAS_THREAD_VARS!r}])")
    expected = [("2" if k == name else None) for k in BLAS_THREAD_VARS]
    assert _run_clean(code, **{name: "2"}) == f"{expected}\n"


def test_import_after_numpy_leaves_environment_as_it_was():
    code = ("import os\n"
            "before = dict(os.environ)\n"
            "import numpy, pairsieve\n"
            "print(dict(os.environ) == before)")
    assert _run_clean(code) == "True\n"
