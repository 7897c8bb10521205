"""The library does its algebra on one layer of its own, without sympy.

Over finite fields that is ``FqPoly``; over Z it is ``IntPoly``, and
every resultant over Z goes through ``polys.int_resultant`` with its one
sign convention, so no ``.resultant(`` call appears in ``src/``.  Integer
number theory is ``arith``.  No module under ``src/`` imports sympy, so
importing the command-line interface does not load it; sympy is the
tests' oracle only.
"""

import ast
import subprocess
import sys
from pathlib import Path

import quartic_galois

PACKAGE = Path(quartic_galois.__file__).parent


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
