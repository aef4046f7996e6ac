"""Every import in the package modules and in the tests is used, every
public function of the package is used by the package or re-exported,
every private module-level function is used by the package, the package
imports no numpy, dataclasses or typing, only scalars.Immutable defines
__setattr__, __delattr__ and __reduce__, and the coefficient row of eta
and the matrix of d eta are built only by contact_structure.

`__init__.py` is exempt from the first check: its imports are the public
re-exports.  A name counts as used when it is read anywhere in the
module, including as the base of an attribute access."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "contactlie").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py"))
# a third-party dependency, and the modules that would slow every CLI
# process's start-up (dataclasses alone imports inspect, ast and dis)
BARRED_IMPORTS = {"numpy", "dataclasses", "typing"}
# the row of eta and the matrix of d eta are fields of ContactStructure,
# built once by contact_structure; these modules read them off it
FORM_HELPERS = {"evaluate", "form_matrix"}
NO_FORM_HELPERS = {"metric.py": {"evaluate"}, "spectral.py": FORM_HELPERS}


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


def dead_functions(sources, init_source):
    """(module, name) of every module-level function of the modules in
    sources (name -> source), public or private, that no module reads and
    that init_source does not import, that is, re-export."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, ast.FunctionDef)]
        used |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)}
    used |= {alias.name for node in ast.walk(ast.parse(init_source))
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sorted(item for item in defined if item[1] not in used)


def test_checker_finds_dead_functions():
    sources = {"a": "def f():\n    return g()\ndef g():\n    pass\n"
                    "def _h():\n    pass\nclass K:\n    def m(self):\n"
                    "        pass\n",
               "b": "from .a import f\ndef p():\n    return _s\n"
                    "def q():\n    return f\ndef r():\n    q = 1\n"
                    "def _s():\n    pass\n"}
    assert dead_functions(sources, "from .b import p\n") == [
        ("a", "_h"), ("b", "q"), ("b", "r")]


def test_no_dead_functions():
    """A function that only tests call is a test helper, not library."""
    sources = {p.stem: p.read_text() for p in PACKAGE
               if p.name != "__init__.py"}
    init = (ROOT / "src" / "contactlie" / "__init__.py").read_text()
    assert dead_functions(sources, init) == []


def classes_defining(sources, methods):
    """Sorted names of the classes in sources (name -> source), nested
    ones included, that define one of methods in their own body, by def
    or by assignment."""
    found = []
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            names = {item.name for item in node.body
                     if isinstance(item, ast.FunctionDef)}
            names |= {target.id for item in node.body
                      if isinstance(item, ast.Assign)
                      for target in item.targets
                      if isinstance(target, ast.Name)}
            if names & methods:
                found.append(node.name)
    return sorted(found)


def test_checker_finds_classes_defining_methods():
    sources = {"a": "class A:\n    def __setattr__(self, n, v):\n"
                    "        pass\nclass B:\n    __reduce__ = None\n"
                    "class C:\n    def __eq__(self, other):\n"
                    "        def __delattr__(x):\n            pass\n",
               "b": "def f():\n    class D(A):\n"
                    "        def __delattr__(self, n):\n            pass\n"
                    "    return D\nclass E:\n    __hash__ = A.h\n"}
    methods = {"__setattr__", "__delattr__", "__reduce__"}
    assert classes_defining(sources, methods) == ["A", "B", "D"]
    assert classes_defining(sources, {"__eq__", "__hash__"}) == ["C", "E"]


def test_immutability_is_defined_once():
    """The value classes inherit setting, deleting, pickling and equality
    from scalars.Immutable; only the scalar types, equal to the Fractions
    they embed, and ScaledMatrix compare in their own way."""
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert classes_defining(
        sources, {"__setattr__", "__delattr__", "__reduce__"}) == [
        "Immutable"]
    assert classes_defining(sources, {"__eq__"}) == [
        "GaussianRational", "Immutable", "QuadraticNumber", "ScaledMatrix"]


def import_scopes(source, modules):
    """Qualified name of the function or class enclosing each import of
    one of the top-level modules, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(m.split(".")[0] in modules for m in names):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_checker_finds_numpy_imports():
    source = ("import numpy\nclass A:\n    def f(self):\n"
              "        from numpy.linalg import eig\n"
              "def g():\n    if True:\n        import numpy as np\n"
              "    import os\n")
    assert import_scopes(source, {"numpy"}) == ["", "A.f", "g"]
    source = ("from dataclasses import dataclass\nimport typing\n"
              "def f():\n    import numpy.linalg\n")
    assert import_scopes(source, BARRED_IMPORTS) == ["", "", "f"]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_numpy_only_in_floating_routines(path):
    """The one floating routine, skew_normal_form, is pure Python: no
    scope of the package imports numpy, dataclasses or typing."""
    assert import_scopes(path.read_text(), BARRED_IMPORTS) == []


def structure_form_calls(source):
    """(line, helper) of every call of a form helper on an attribute eta
    or deta, as in form_matrix(c.deta)."""
    return [(node.lineno, node.func.id) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in FORM_HELPERS and node.args
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr in ("eta", "deta")]


def test_checker_finds_structure_form_calls():
    source = ("d = form_matrix(c.deta)\nw = form_matrix(omega)\n"
              "r = form_matrix(s.eta)\nv = evaluate(c.deta, x, y)\n")
    assert structure_form_calls(source) == [(1, "form_matrix"),
                                            (3, "form_matrix"),
                                            (4, "evaluate")]


OUTSIDE_CONTACT = [p for p in PACKAGE if p.name != "contact.py"]


@pytest.mark.parametrize("path", OUTSIDE_CONTACT,
                         ids=[str(p.relative_to(ROOT))
                              for p in OUTSIDE_CONTACT])
def test_contact_data_is_read_off_the_structure(path):
    source = path.read_text()
    assert structure_form_calls(source) == []
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & NO_FORM_HELPERS.get(path.name, set())
