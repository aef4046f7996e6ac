"""Every import in the package modules and in the tests is used.

`__init__.py` is exempt: its imports are the public re-exports.  A name
counts as used when it is read anywhere in the module, including as the
base of an attribute access."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "contactlie").glob("*.py")
                 if p.name != "__init__.py") + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_unused_imports():
    source = ("import os\nimport os.path\nfrom a import b as c, d\n"
              "from e import *\nprint(d, os.sep)\n")
    assert unused_imports(source) == [(3, "c")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
