"""Public names: what the benchmark scripts import, and every module's __all__."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import specwave

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ["specwave"] + [f"specwave.{info.name}" for info in pkgutil.iter_modules(specwave.__path__)]


def bench_imports():
    """(file, module, name) for every `from specwave... import name` in bench/*.py;
    name is None for a plain `import specwave...`."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "specwave":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names if a.name.split(".")[0] == "specwave"]
    return found


def test_bench_imports_found():
    assert {mod for _, mod, _ in bench_imports()} >= {"specwave.cli", "specwave.semidisc", "specwave.spectral"}


@pytest.mark.parametrize("source, module, name", bench_imports())
def test_bench_import_resolves(source, module, name):
    mod = importlib.import_module(module)
    assert name is None or hasattr(mod, name), f"{source}: {module} has no {name}"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
