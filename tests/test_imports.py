"""Every module-level import in the package's modules is read.

No linter is a dependency, so the check walks each module's syntax tree:
a name bound by a top-level ``import`` or ``from ... import`` must appear
as a ``Name`` somewhere in the module (an attribute chain ``np.fft.rfft``
starts at the ``Name`` ``np``).  The modules import ``annotations`` from
``__future__``, so no annotation needs quoting and none is read as a string.
``__init__.py`` only re-exports, so it is left out.
"""

import ast
import pathlib

import pytest

import l1sample

MODULES = sorted(p for p in pathlib.Path(l1sample.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
