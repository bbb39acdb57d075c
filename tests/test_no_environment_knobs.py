"""No kernel module reads the environment.

The kernel's behaviour comes from its inputs and arguments alone, so no
setting (a table bound, a cache size, a debug switch) can hide in an
environment variable.  A module breaks this by naming ``os.environ``,
``os.environb`` or ``os.getenv``, or by importing one of them from ``os``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gbsolve"
MODULES = sorted(SRC.glob("*.py"))
READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    """Line numbers at which the source reads the environment through os."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in READERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in READERS for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_every_form():
    source = (
        "import os\n"
        "a = os.environ['X']\n"
        "b = os.getenv('Y')\n"
        "from os import environ\n"
        "c = os.path.join('u', 'v')\n"
    )
    assert environment_reads(source) == [2, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text()) == []
