"""Public names: what the benchmark scripts import, and every module's __all__.

Four checks stand in for a linter: every name in a package module's
__all__, and every public method of a package class, is used by the
package or the benchmark scripts (a name only tests call belongs in
tests/oracles.py); every defaulted parameter of a package function is
passed by some call there (a default nothing overrides is a constant);
no package module keeps an unused module-level import; and no package
module imports an underscore name from another, so that what a module
keeps private stays its own.

The method check matches by attribute name alone: a method counts as used
when any package or bench file reads an attribute of that name, on
whatever class.  A test-only method named like a used one (a Poly.equals
beside the used PolyMatrix.equals) passes unseen.
"""

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import specwave

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
PACKAGE = Path(specwave.__file__).resolve().parent
MODULES = ["specwave"] + [f"specwave.{info.name}" for info in pkgutil.iter_modules(specwave.__path__)]


@functools.cache  # every check reads the same files; none changes a tree
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


def public_methods_unused():
    """(module file, Class.method) for every public method of a public package
    class that no package or bench file uses outside the method's own body."""
    trees = {path: parse(path) for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    names = {id(stmt): used_names(stmt) for tree in trees.values() for node in tree.body
             for stmt in [node, *(node.body if isinstance(node, ast.ClassDef) else ())]}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for meth in cls.body:
                if not isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)) or meth.name.startswith("_"):
                    continue
                others = [stmt for tree in trees.values() for stmt in tree.body if stmt is not cls]
                others += [stmt for stmt in cls.body if stmt is not meth]
                if not any(meth.name in names[id(stmt)] for stmt in others):
                    unused.append((path.name, f"{cls.name}.{meth.name}"))
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


def private_imports() -> list[tuple[str, str]]:
    """(module file, name) for every underscore name a package module imports
    from a package module, at module level or inside a function."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "specwave"):
                found += [(path.name, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


def defaulted_parameters():
    """(module file, callee name, parameter, index) for every parameter with
    a default of a function or method defined in a package module.  The
    callee name is the class's for __init__; index is the parameter's place
    among a call's positional arguments (self and cls not counted), None for
    a keyword-only parameter."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        methods = {id(stmt): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for stmt in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = id(fn) in methods and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            callee = methods[id(fn)] if bound and fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            first_default = len(positional) - len(fn.args.defaults)
            found += [(path.name, callee, a.arg, i - bound) for i, a in enumerate(positional) if i >= first_default]
            found += [(path.name, callee, a.arg, None)
                      for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
    return found


def parameters_never_passed():
    """(module file, callee.parameter) for every defaulted parameter that no
    call in a package or bench file passes, by keyword or by position.
    Calls match by the callee's bare or attribute name, as the method check
    matches methods; an unpacked argument (*args, **kwargs) counts as
    passing every parameter it could reach."""
    calls = [node for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
             for node in ast.walk(parse(path)) if isinstance(node, ast.Call)]

    def passes(call: ast.Call, name: str, param: str, index: int | None) -> bool:
        if getattr(call.func, "id", getattr(call.func, "attr", None)) != name:
            return False
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        return index is not None and (index < len(call.args) or starred)

    return [(file, f"{name}.{param}") for file, name, param, index in defaulted_parameters()
            if not any(passes(call, name, param, index) for call in calls)]


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
    assert not public_names_unused(), "public names only tests use; move them to tests/oracles.py"


def test_every_public_method_is_used_outside_tests():
    assert not public_methods_unused(), "public methods only tests use; move them to tests/oracles.py"


def test_every_defaulted_parameter_is_passed_outside_tests():
    assert not parameters_never_passed(), "defaults no command overrides; make the parameter a constant"


def test_no_private_imports_across_modules():
    assert not private_imports(), "a private name used by another module belongs to a public API"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert not unused_imports(path)
