"""Every module-level import is used by the module that makes it, and
every module-level private name of the package is read somewhere in it.

The package's ``__init__.py`` is left out of the import check: its imports
are the public surface, named by ``__all__`` rather than by its own code.
"""

import ast
from pathlib import Path

import pytest

import trivisit

_SRC = Path(trivisit.__file__).parent
_TESTS = Path(__file__).parent
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py") + sorted(_TESTS.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, with its line."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _annotation_names(tree: ast.Module) -> set[str]:
    """Every name in the module's string annotations."""
    names = set()
    annotations = [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    annotations += [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name))
    return names


def _named(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those in string annotations."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text())
    named = _named(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in named}
    assert unused == {}, f"{path.name}: imported but never named (line): {unused}"


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n\ndef f(x: 'tau') -> None:\n    return pi\n")
    assert {name for name in _imported(tree) if name not in _named(tree)} == {"os"}


def _module_private_names(tree: ast.Module) -> set[str]:
    """``_``-prefixed functions, classes and assignments at module level,
    dunders aside."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in out if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, with those in string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return names | _annotation_names(tree)


def _dead_private_names(modules: dict[str, ast.Module]) -> set[str]:
    """``module.name`` of each module-level private name that its module
    never reads and no module imports from it by name."""
    imported = {
        (node.module.removeprefix("trivisit").lstrip("."), a.name)
        for tree in modules.values() for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
        for a in node.names
    }
    return {
        f"{name}.{private}"
        for name, tree in modules.items()
        for private in _module_private_names(tree) - _read_names(tree)
        if (name, private) not in imported
    }


def test_no_dead_private_names_in_the_package():
    assert _dead_private_names({p.stem: ast.parse(p.read_text()) for p in _SRC.glob("*.py")}) == set()


def test_scan_sees_a_dead_private_name():
    # ``_point`` is read in ``b`` but not in ``a``, where it is dead all the
    # same; ``_orphan`` counts as read once another module imports it.
    a = ast.parse(
        "_LIMIT = 3\n_dead = 1\n__version__ = '1'\n\n"
        "def _used(x: '_Hint') -> int:\n    return x + _LIMIT\n\n"
        "class _Hint:\n    pass\n\n"
        "def _orphan():\n    return 2\n\n"
        "def _point(row):\n    return row[0]\n\n"
        "y = _used(1)\n"
    )
    b = ast.parse("def _point(args):\n    return args\n\nz = _point(1)\n")
    assert _dead_private_names({"a": a, "b": b}) == {"a._dead", "a._orphan", "a._point"}
    c = ast.parse("from .a import _orphan\n")
    assert _dead_private_names({"a": a, "b": b, "c": c}) == {"a._dead", "a._point"}
