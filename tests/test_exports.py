import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pairsieve


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
