"""The package's public surface is what runs: every public module-level name
of the library modules is used by the package itself or named in the README.

A law or helper that only the tests call belongs in ``tests/oracles.py``."""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "screamingtoes"
README = (ROOT / "README.md").read_text()

LIBRARY = ("exact", "laws", "samplers", "harness")


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Public module-level names bound by def, class or assignment, each with
    the statement that binds it."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        out.update((name, stmt) for name in names if not name.startswith("_"))
    return out


def _loaded_names(module: str, trees: dict[str, ast.Module]) -> set[str]:
    """Names of `module` that package code loads: bare names inside `module`
    or in a module that imported them from it, and ``module.name``
    attributes anywhere.  A definition's own body does not count for itself."""
    defined = _public_definitions(trees[module])
    used = set()
    for other, tree in trees.items():
        aliases = {}  # local name -> name in `module`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[-1] == module:
                aliases.update((a.asname or a.name, a.name) for a in node.names)
        if other == module:
            aliases.update((name, name) for name in defined)
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = aliases.get(node.id)
                elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                      and isinstance(node.value, ast.Name) and node.value.id == module):
                    name = node.attr
                else:
                    continue
                if name is not None and not (other == module and defined.get(name) is stmt):
                    used.add(name)
    return used


@pytest.mark.parametrize("module", LIBRARY)
def test_every_public_name_is_used_or_documented(module):
    trees = _trees()
    used = _loaded_names(module, trees)
    unused = sorted(
        name for name in _public_definitions(trees[module])
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", README)
    )
    assert unused == [], f"{module}: nothing in the package uses these and the README does not name them"


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_all_entries_exist(module):
    mod = importlib.import_module(f"screamingtoes.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_root_holds_only_the_version():
    tree = _trees()["__init__"]
    assert [type(stmt) for stmt in tree.body] == [ast.Expr, ast.Assign]
    assert [t.id for t in tree.body[1].targets] == ["__version__"]


def test_no_assert_statements():
    # python -O strips asserts, so a check in the package raises instead
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []
