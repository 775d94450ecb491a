"""No module of the package reaches into another module's private names:
it neither imports them nor reads them as attributes.  Every public name
has one import path: a module's ``__all__`` lists only names it defines.
Every public name has a reader outside the tests: code under ``src/``,
``scripts/`` or ``bench/`` reads each ``__all__`` name and each public
plain method of a class in ``__all__``, so the library carries no code
that only its tests run.  Every avoider trial goes
through ``avoiders.attempt``: no other module imports the avoider table
or the validator.  No function calls itself, except the two in
``SELF_CALLS_ALLOWED``, each with the bound that keeps it far below
Python's recursion limit: a search that nests as deep as its input is
large runs on an explicit stack."""

import ast
from pathlib import Path

import rainbowlab

PACKAGE = Path(rainbowlab.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
READER_DIRS = [ROOT / "src", ROOT / "scripts", ROOT / "bench"]


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


def is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def exported(source: str) -> list[str]:
    """The module's ``__all__``, empty when it has none."""
    return next((ast.literal_eval(node.value) for node in ast.parse(source).body
                 if is_all(node)), [])


def reexports(source: str) -> list[str]:
    """Names in the module's ``__all__`` that no def, class or assignment at
    module level binds; an import alone does not count."""
    tree = ast.parse(source)
    bound = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return [name for name in exported(source) if name not in bound]


def is_plain_method(node: ast.AST) -> bool:
    """A public method that is neither a dunder nor a property (nor one of
    its setters or deleters)."""
    property_decorators = {"property", "cached_property", "setter", "getter", "deleter"}
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and not any((d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None))
                        in property_decorators for d in node.decorator_list))


def exported_methods(source: str) -> list[tuple[str, str]]:
    """(class, method) for each public plain method of each class in the
    module's ``__all__``."""
    names = set(exported(source))
    return [(node.name, item.name)
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and node.name in names
            for item in node.body if is_plain_method(item)]


def names_read(source: str) -> set[str]:
    """Names the source reads: loaded as a name or an attribute, imported,
    or spelled out whole in a string literal (as `getattr` lookups are).
    An ``__all__`` entry does not count, nor does a read inside the def or
    class of the same name."""
    out = set()
    stack = [(ast.parse(source), frozenset())]
    while stack:
        node, inside = stack.pop()
        if is_all(node):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside |= {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in inside:
            out.add(name)
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return out


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


# Each allowed self-call, with why its depth is bounded.
SELF_CALLS_ALLOWED = {
    "tiled_k8._search.rec": "every step adds an edge, so it nests at most 91 deep "
                            "under the 14-vertex cap",
    "emergence._DinicFlow._push": "one frame per node of a shortest augmenting path, "
                                  "which alternates edge and vertex nodes: at most "
                                  "2n + 2 for a pattern of n <= 120 vertices",
}


def own_calls(fn: ast.AST):
    """The callees of the calls in a function's own body, not in the defs,
    classes or lambdas nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node.func
        stack.extend(ast.iter_child_nodes(node))


def self_calls(source: str) -> list[str]:
    """Dotted names of the functions that call themselves: by their bare
    name, or as ``self.name``/``cls.name`` in a method."""
    out = []
    stack = [(ast.parse(source), "", False)]
    while stack:
        node, prefix, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}{child.name}.", True))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any((isinstance(f, ast.Attribute) and f.attr == child.name
                        and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"))
                       if in_class else (isinstance(f, ast.Name) and f.id == child.name)
                       for f in own_calls(child)):
                    out.append(prefix + child.name)
                stack.append((child, f"{prefix}{child.name}.", False))
            else:
                stack.append((child, prefix, in_class))
    return sorted(out)


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


def test_detector_sees_reads():
    source = (
        "from .graph import Graph, clique as make_clique\n"
        "__all__ = ['recursive', 'only_listed', 'by_string', 'Graph']\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else n\n"
        "def only_listed():\n"
        "    return only_listed()\n"
        "def g(module, key):\n"
        "    getattr(module, 'by_string')()\n"
        "    module.stored = key.loaded\n"
        "    return make_clique(key)\n"
    )
    assert names_read(source) == {
        "Graph", "clique", "make_clique", "n", "getattr", "module", "by_string",
        "key", "loaded",
    }
    assert exported(source) == ["recursive", "only_listed", "by_string", "Graph"]
    assert exported("x = 1\n") == []


def test_detector_sees_exported_methods():
    source = (
        "import functools\n"
        "__all__ = ['Public']\n"
        "class Public:\n"
        "    def plain(self): ...\n"
        "    async def waits(self): ...\n"
        "    @staticmethod\n"
        "    def static(): ...\n"
        "    @functools.lru_cache\n"
        "    def cached_call(self): ...\n"
        "    @classmethod\n"
        "    def build(cls): ...\n"
        "    @property\n"
        "    def size(self): ...\n"
        "    @size.setter\n"
        "    def size(self, value): ...\n"
        "    @functools.cached_property\n"
        "    def cached(self): ...\n"
        "    def _private(self): ...\n"
        "    def __len__(self): ...\n"
        "class Hidden:\n"
        "    def plain(self): ...\n"
    )
    assert exported_methods(source) == [
        ("Public", "plain"), ("Public", "waits"), ("Public", "static"),
        ("Public", "cached_call"), ("Public", "build")]


def test_detector_sees_avoider_trial_imports():
    source = (
        "from .avoiders import AVOIDERS, attempt, perturbed_cliques\n"
        "from rainbowlab.avoiders import validate as check\n"
        "from .avoider_k4 import avoid_k4\n"
        "from .colouring import validate\n"
    )
    assert avoider_trial_imports(source) == ["AVOIDERS", "validate"]
    assert avoider_trial_imports("from .avoiders import attempt\n") == []


def test_detector_sees_self_calls():
    source = (
        "def _label_search(tris, budget):\n"
        "    def rec():\n"
        "        for mv in best:\n"
        "            if rec():\n"
        "                return True\n"
        "    return rec()\n"
        "class Flow:\n"
        "    def _push(self, u):\n"
        "        return self._push(u + 1) if u else 0\n"
        "    def get(self, key):\n"
        "        return get(key) + other.get(key)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return outer()\n"
        "    return inner\n"
    )
    assert self_calls(source) == ["Flow._push", "_label_search.rec"]
    assert self_calls("def f(n):\n    return f(n - 1) if n else 0\n") == ["f"]


def test_no_function_calls_itself_outside_the_allowlist():
    found = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in self_calls(path.read_text())
    ]
    assert sorted(found) == sorted(SELF_CALLS_ALLOWED)


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


def test_every_exported_name_has_a_reader():
    read = set().union(*(
        names_read(path.read_text())
        for folder in READER_DIRS
        for path in sorted(folder.rglob("*.py"))
    ))
    offenders = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in exported(path.read_text())
        if name not in read
    ] + [
        f"{path.stem}.{cls}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls, name in exported_methods(path.read_text())
        if name not in read
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
