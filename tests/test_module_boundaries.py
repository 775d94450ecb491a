"""No module of the package imports another module's private names."""

import ast
from pathlib import Path

import rainbowlab

PACKAGE = Path(rainbowlab.__file__).parent


def private_imports(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    out.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
    return out


def test_detector_sees_private_imports():
    assert private_imports("from .graph import Graph, _edge_counts\n") == [
        "from .graph import _edge_counts"
    ]
    assert private_imports("from . import __version__\nfrom os import _exit\n") == []


def test_no_module_imports_private_names():
    offenders = [
        f"{path.name}: {line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in private_imports(path.read_text())
    ]
    assert not offenders, offenders
