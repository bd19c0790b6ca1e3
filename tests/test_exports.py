"""The package's public names: `__all__`, and every name that the benchmark
in perfbench/ imports, which must resolve so that removing one fails here and
not first in a benchmark run."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import qhmeans

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _package_imports():
    """(module, name) for each `from qhmeans[...] import name` in perfbench/*.py."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qhmeans":
                found.update((node.module, alias.name) for alias in node.names)
    return found


def test_every_benchmark_import_resolves():
    imports = _package_imports()
    assert imports
    missing = sorted(
        f"{module}.{name}" for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    )
    assert missing == []


def test_all_names_the_public_objects_and_no_module():
    # importing the names binds their submodules in the package namespace too
    assert [name for name in qhmeans.__all__ if isinstance(getattr(qhmeans, name), ModuleType)] == []
    assert len(qhmeans.__all__) == len(set(qhmeans.__all__)) == 59
    namespace = {}
    exec("from qhmeans import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(qhmeans.__all__)
