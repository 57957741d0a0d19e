"""Every module-level import and private name in the package's modules is read.

No linter is a dependency, so the checks walk each module's syntax tree:
a name bound by a top-level ``import`` or ``from ... import`` must appear
as a ``Name`` somewhere in the module (an attribute chain ``np.fft.rfft``
starts at the ``Name`` ``np``).  The modules import ``annotations`` from
``__future__``, so no annotation needs quoting and none is read as a string.
``__init__.py`` only re-exports, so it is left out.

A private module-level name (a top-level ``_name`` function, class or
assignment) must be read, as a loaded ``Name``, in some module of the
package, ``__init__.py`` included: a helper that only tests read is dead
code of the package.  Names are matched across modules by spelling, which
is enough while no two modules define the same private name.
"""

import ast
import pathlib

import pytest

import l1sample

PACKAGE = sorted(pathlib.Path(l1sample.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _imported_names(tree: ast.Module) -> dict:
    """Name bound -> line, for the module's top-level imports."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _private_names(tree: ast.Module) -> dict:
    """Name bound -> line, for the module's top-level private functions,
    classes and assignments (``_name``, not ``__name__``)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            stores = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in stores for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _orphans(trees: dict) -> dict:
    """Module -> {private name: line} for the names no module reads."""
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    orphans = {}
    for module, tree in trees.items():
        unread = {n: line for n, line in _private_names(tree).items() if n not in read}
        if unread:
            orphans[module] = unread
    return orphans


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_walk_finds_an_unused_import():
    tree = ast.parse("import numpy as np\nfrom typing import Optional, Tuple\n"
                     "def f(x: Tuple) -> None:\n    return np.sum(x)\n")
    used = _used_names(tree)
    assert {n for n in _imported_names(tree) if n not in used} == {"Optional"}


def test_every_private_name_is_read_in_the_package():
    orphans = _orphans({p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE})
    assert not orphans, f"private names no module reads: {orphans}"


def test_the_walk_finds_an_orphaned_private_name():
    # _c and _Unused are read nowhere; _helper is read only from the other
    # module, and __all__ is no private name
    trees = {
        "a.py": ast.parse("_TABLE = {}\n__all__ = []\n_a, (_b, _c) = 1, (2, 3)\n"
                          "def _helper():\n    return _a + _b + len(_TABLE)\n"
                          "class _Unused:\n    pass\n"),
        "b.py": ast.parse("from a import _helper\n_LIMIT: int = 3\n"
                          "def run():\n    return _helper() < _LIMIT\n"),
    }
    assert _orphans(trees) == {"a.py": {"_c": 3, "_Unused": 6}}
