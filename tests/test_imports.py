"""Every module-level import is used by the module that makes it.

The package's ``__init__.py`` is left out: its imports are the public
surface, named by ``__all__`` rather than by its own code.
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


def _named(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those in string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    annotations += [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text())
    named = _named(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in named}
    assert unused == {}, f"{path.name}: imported but never named (line): {unused}"


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n\ndef f(x: 'tau') -> None:\n    return pi\n")
    assert {name for name in _imported(tree) if name not in _named(tree)} == {"os"}
