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
