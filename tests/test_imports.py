"""Every name a kernel module imports is used in that module.

``__init__.py`` is skipped: its imports are the package's re-exports.  A name
counts as used when it appears as an identifier anywhere in the module, so a
module imported for ``module.attribute`` access is used through ``module``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gbsolve"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(source):
    """(name, line) for every imported name the source never uses."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in _imported_names(tree) if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import random\nfrom . import unipoly\nfrom .x import a, b as c\nc(a)\n"
    assert unused_imports(source) == [("random", 1), ("unipoly", 2)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
