"""No module of the package reaches into another module's private names:
it neither imports them nor reads them as attributes.  Every public name
has one import path: a module's ``__all__`` lists only names it defines.
Every avoider trial goes through ``avoiders.attempt``: no other module
imports the avoider table or the validator."""

import ast
from pathlib import Path

import rainbowlab

PACKAGE = Path(rainbowlab.__file__).parent


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if is_private(alias.name):
                    out.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
    return out


def foreign_private_reads(source: str) -> list[str]:
    """`obj._name` reads where the module itself never defines `_name`: no
    def or class of that name, no assignment to it, no `obj._name = ...`."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    reads = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and is_private(node.attr) and node.attr not in defined
    ]
    return [f"line {node.lineno}: .{node.attr}"
            for node in sorted(reads, key=lambda n: (n.lineno, n.col_offset))]


def reexports(source: str) -> list[str]:
    """Names in the module's ``__all__`` that no def, class or assignment at
    module level binds; an import alone does not count."""
    tree = ast.parse(source)
    bound, exported = set(), []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = ast.literal_eval(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return [name for name in exported if name not in bound]


def avoider_trial_imports(source: str) -> list[str]:
    """`AVOIDERS` or `validate` imported from the avoiders module, the two
    names a second copy of ``avoiders.attempt`` would need."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "avoiders"), (0, "rainbowlab.avoiders"))
        for alias in node.names
        if alias.name in ("AVOIDERS", "validate")
    ]


def test_detector_sees_private_imports():
    assert private_imports("from .graph import Graph, _edge_counts\n") == [
        "from .graph import _edge_counts"
    ]
    assert private_imports("from . import __version__\nfrom os import _exit\n") == []


def test_detector_sees_foreign_private_reads():
    source = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self._x = 1\n"
        "    def _helper(self, other):\n"
        "        return other._x + other._y + self._helper.__name__\n"
        "def f(a):\n"
        "    a._z = 2\n"
        "    return a._z, a.__dict__, a._y\n"
    )
    assert foreign_private_reads(source) == ["line 5: ._y", "line 8: ._y"]


def test_detector_sees_reexports():
    source = (
        "import math as m\n"
        "from .model import rng_for_trial, sample_gnp\n"
        "RED, BLUE = 0, 1\n"
        "LIMIT: int = 3\n"
        "def f():\n"
        "    local = 1\n"
        "class C:\n"
        "    pass\n"
        "__all__ = ['f', 'C', 'RED', 'BLUE', 'LIMIT', 'sample_gnp', 'm', 'local']\n"
    )
    assert reexports(source) == ["sample_gnp", "m", "local"]
    assert reexports("from .graph import Graph\n") == []


def test_detector_sees_avoider_trial_imports():
    source = (
        "from .avoiders import AVOIDERS, attempt, perturbed_cliques\n"
        "from rainbowlab.avoiders import validate as check\n"
        "from .avoider_k4 import avoid_k4\n"
        "from .colouring import validate\n"
    )
    assert avoider_trial_imports(source) == ["AVOIDERS", "validate"]
    assert avoider_trial_imports("from .avoiders import attempt\n") == []


def test_no_module_imports_private_names():
    offenders = [
        f"{path.name}: {line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in private_imports(path.read_text())
    ]
    assert not offenders, offenders


def test_no_module_reads_foreign_private_attributes():
    offenders = [
        f"{path.name}: {line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in foreign_private_reads(path.read_text())
    ]
    assert not offenders, offenders


def test_every_exported_name_is_defined_in_its_module():
    offenders = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in reexports(path.read_text())
    ]
    assert not offenders, offenders


def test_avoider_trials_go_through_attempt():
    offenders = [
        f"{path.stem}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "avoiders"
        for name in avoider_trial_imports(path.read_text())
    ]
    assert not offenders, offenders
