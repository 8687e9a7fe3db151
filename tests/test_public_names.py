"""Public names: what the benchmark scripts import, and every module's __all__.

Two checks stand in for a linter: every name in a package module's
__all__ is used by the package or the benchmark scripts (a name only tests
call belongs in tests/oracles.py), and no package module keeps an unused
module-level import.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import specwave

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
PACKAGE = Path(specwave.__file__).resolve().parent
MODULES = ["specwave"] + [f"specwave.{info.name}" for info in pkgutil.iter_modules(specwave.__path__)]

# serialize_system is the inverse of the system file format that parse_system
# reads: it belongs with the format even though only tests write files with it.
UNUSED_PUBLIC_ALLOWED = {"serialize_system"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def bench_imports():
    """(file, module, name) for every `from specwave... import name` in bench/*.py;
    name is None for a plain `import specwave...`."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "specwave":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names if a.name.split(".")[0] == "specwave"]
    return found


def declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def used_names(node: ast.AST) -> set[str]:
    """Names a subtree reads: bare names and attribute names (imports do not count)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def defined_name(stmt: ast.stmt) -> str | None:
    """The name a top-level def, class or single assignment defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        return targets[0].id
    return None


def public_names_unused():
    """(module file, name) for every __all__ name of a package module that no
    package or bench file uses outside the name's own definition."""
    trees = {path: parse(path) for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    uses = {  # path -> (name defined by the statement, names it uses), per top-level statement
        path: [(defined_name(stmt), used_names(stmt)) for stmt in tree.body] for path, tree in trees.items()
    }
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in declared_all(trees[path]):
            used = any(
                name in names and not (other == path and owner == name)
                for other, stmts in uses.items()
                for owner, names in stmts
            )
            if not used:
                unused.append((path.name, name))
    return unused


def unused_imports(path: Path) -> list[str]:
    """Module-level imports of a file that it neither uses nor lists in __all__."""
    tree = parse(path)
    exported = set(declared_all(tree))
    used = used_names(tree)
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and bound not in exported:
                    unused.append(bound)
    return unused


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


def test_every_public_name_is_used_outside_tests():
    unused = [(source, name) for source, name in public_names_unused() if name not in UNUSED_PUBLIC_ALLOWED]
    assert not unused, "public names only tests use; move them to tests/oracles.py"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert not unused_imports(path)
