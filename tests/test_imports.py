"""Every module-level import is used by the module that makes it, every
module-level private name of the package is read somewhere in it, and every
public function, class and method of the package has a reader.

The package's ``__init__.py`` is left out of the import check: its imports
are the public surface, named by ``__all__`` rather than by its own code.
"""

import ast
from pathlib import Path

import pytest

import trivisit

_SRC = Path(trivisit.__file__).parent
_TESTS = Path(__file__).parent
_PERFBENCH = _TESTS.parent / "perfbench"
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


# Public names with no reader yet, kept for the proved trade-off table and
# the region-boundary check that ROADMAP items 5 and 8 plan (see item 7).
_RESERVED = frozenset({
    "fleet_costs.h2",
    "regions.SeparatorChain.max_endpoint_gap",
    "tradeoffs.ratio_at",
})


def _public_defs(module: str, tree: ast.Module) -> dict[str, str]:
    """Qualified name (``module.name`` or ``module.Class.name``) of each
    public module-level function and class, and of each public method of
    those classes, mapped to its bare name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                out.update(
                    (f"{module}.{node.name}.{m.name}", m.name) for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_")
                )
    return out


def _reader_names(tree: ast.Module, strings: bool = False) -> set[str]:
    """Every identifier the module names: names, attributes, imported names
    and string annotations, and with ``strings`` every string constant."""
    out = _named(tree)
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def _unread_public_names(modules: dict[str, ast.Module], perf: list[ast.Module]) -> set[str]:
    """Qualified names from ``_public_defs`` that no package module and no
    benchmark module ``perf`` names; in a benchmark module a string counts,
    because its tracer names the attributes it wraps as strings.

    The check is by bare name, so it cannot see a method whose name some
    other identifier shares: a ``Parabola.gap`` method with no caller would
    pass, named by the local ``gap`` of ``TriangleKernel.r2_sides``, and so
    would a ``RegionCell.label`` property, named by every chain piece's
    ``label``."""
    named = set().union(*(_reader_names(t) for t in modules.values()), *(_reader_names(t, True) for t in perf))
    return {q for name, tree in modules.items() for q, bare in _public_defs(name, tree).items() if bare not in named}


def test_every_public_name_has_a_reader():
    modules = {p.stem: ast.parse(p.read_text()) for p in _SRC.glob("*.py") if p.name != "__init__.py"}
    perf = [ast.parse(p.read_text()) for p in sorted(_PERFBENCH.glob("*.py"))]
    defined = set().union(*(_public_defs(name, tree) for name, tree in modules.items()))
    assert _RESERVED <= defined, f"reserved but gone: {sorted(_RESERVED - defined)}"
    assert _unread_public_names(modules, perf) - _RESERVED == set()


def test_scan_sees_a_public_name_without_reader():
    # ``planted`` and ``Box.unread`` have no reader; ``Box.traced`` is named
    # only as a benchmark string and ``helper`` only by another module.
    a = ast.parse(
        "def planted():\n    return 1\n\n"
        "def helper():\n    return 2\n\n"
        "class Box:\n    def unread(self):\n        return 3\n\n"
        "    def traced(self):\n        return 4\n\n"
        "    def _private(self):\n        return 5\n\n"
        "y = Box()\n"
    )
    b = ast.parse("from .a import helper\n\nz = helper()\n")
    perf = ast.parse("WRAP = ('traced', 'planted_not')\n")
    assert _unread_public_names({"a": a, "b": b}, [perf]) == {"a.planted", "a.Box.unread"}
    assert _unread_public_names({"a": a, "b": b}, []) == {"a.planted", "a.Box.unread", "a.Box.traced"}
