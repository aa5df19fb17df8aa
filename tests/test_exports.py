import ast
import importlib
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
