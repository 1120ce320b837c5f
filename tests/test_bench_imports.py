"""Every package name that the benchmark imports still exists.

``bench/`` has its own test run, so a name that the package drops would
break the benchmark without failing this suite. The benchmark's modules are
parsed, not imported: ``bench/conftest.py`` and ``tests/conftest.py`` would
clash as two ``conftest`` modules.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def package_imports():
    """``(file, module, name)`` for each ``from gaitcadence... import name``
    in ``bench/*.py``, and ``(file, module, None)`` for each
    ``import gaitcadence...``, whose module must import."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "gaitcadence":
                    for alias in node.names:
                        yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "gaitcadence":
                        yield path.name, alias.name, None


def test_bench_imports_resolve():
    found = list(package_imports())
    assert {file for file, _, _ in found} >= {"measure.py", "traced.py"}
    missing = [f"{file}: {module}.{name}" for file, module, name in found
               if name and not hasattr(importlib.import_module(module), name)]
    assert missing == []
