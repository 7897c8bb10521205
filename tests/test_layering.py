"""The library does its algebra on one layer of its own, without sympy.

Over finite fields that is ``FqPoly``; over Z it is ``IntPoly``, and
every resultant over Z goes through ``polys.int_resultant`` with its one
sign convention, so no ``.resultant(`` call appears in ``src/``.  Integer
number theory is ``arith``.  No module under ``src/`` imports sympy, so
importing the command-line interface does not load it; sympy is the
tests' oracle only.  Beyond the standard library, ``src/`` imports only
the dependencies ``pyproject.toml`` declares: numpy.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import quartic_galois

PACKAGE = Path(quartic_galois.__file__).parent
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
# the top-level modules the declared dependencies provide
DEPENDENCIES = {"numpy"}


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sympy":
                    yield node.lineno, "import %s" % alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy":
            yield node.lineno, "from %s import" % node.module
        elif isinstance(node, ast.Attribute) and node.attr == "subs":
            yield node.lineno, ".subs"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "resultant"
        ):
            yield node.lineno, ".resultant("


def test_guard_flags_the_expression_layer():
    source = (
        "import sympy\n"
        "from sympy import isprime\n"
        "from sympy.polys.rings import ring\n"
        "import sympy.ntheory as nt\n"
        "e = p.subs(x, 1)\n"
        "r2 = f.resultant(g).resultant(h)\n"
        "import numpy\n"
        "from .arith import isprime\n"
    )
    found = [what for _, what in _violations(ast.parse(source))]
    assert found.count(".resultant(") == 2
    assert sorted(set(found) - {".resultant("}) == [
        ".subs",
        "from sympy import",
        "from sympy.polys.rings import",
        "import sympy",
        "import sympy.ntheory",
    ]


def test_src_uses_no_sympy_expressions():
    bad = [
        "%s:%d %s" % (path.name, line, what)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in _violations(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert bad == []


def test_cli_import_and_bundled_data_load_no_sympy():
    code = (
        "import sys\n"
        "from importlib import resources\n"
        "import quartic_galois.cli\n"
        "from quartic_galois.curve import TernaryQuarticForm\n"
        "from quartic_galois.hecke_io import load_hecke_charpolys\n"
        "TernaryQuarticForm.bundled_curve()\n"
        "ref = resources.files('quartic_galois') / 'data' / 'hecke_6391.json'\n"
        "with resources.as_file(ref) as path:\n"
        "    load_hecke_charpolys(path)\n"
        "print('sympy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.split() == ["False"]


def _foreign_imports(tree):
    # absolute imports of anything but the standard library, the package
    # itself and DEPENDENCIES; relative imports stay in the package
    allowed = set(sys.stdlib_module_names) | DEPENDENCIES | {"quartic_galois"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in allowed:
                yield node.lineno, name


def test_guard_flags_undeclared_dependencies():
    source = (
        "import scipy.sparse\n"
        "from scipy import sparse\n"
        "import sympy\n"
        "import numpy as np\n"
        "from functools import lru_cache\n"
        "from __future__ import annotations\n"
        "from .arith import isprime\n"
        "from quartic_galois.polys import IntPoly\n"
    )
    found = [name for _, name in _foreign_imports(ast.parse(source))]
    assert found == ["scipy.sparse", "scipy", "sympy"]


def test_dependencies_match_pyproject():
    block = re.search(r"^dependencies = \[(.*?)\]", PYPROJECT.read_text(), re.M | re.S)
    declared = re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1))
    assert set(declared) == DEPENDENCIES


def test_src_imports_only_stdlib_and_declared_dependencies():
    bad = [
        "%s:%d %s" % (path.name, line, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _foreign_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert bad == []
