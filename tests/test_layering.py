"""The library does its algebra on one polynomial layer.

Over finite fields that is ``FqPoly``; over Z it is ``IntPoly``, and
every resultant over Z goes through ``polys.int_resultant`` with its one
sign convention, so no ``.resultant(`` call appears in ``src/``.  sympy's
sparse ``PolyRing`` is left only for ``compose`` and ``factor_list``.
sympy's expression layer (``symbols``, ``resultant``, ``factor_list``,
``Poly``, ``subs``) is a second representation and is kept out of
``src/``; from the top-level ``sympy`` namespace only number-theory
functions are used.
"""

import ast
from pathlib import Path

import quartic_galois

PACKAGE = Path(quartic_galois.__file__).parent

NUMBER_THEORY = {
    "isprime",
    "primefactors",
    "factorint",
    "divisors",
    "totient",
    "multiplicity",
}
# the sparse integer polynomial layer
POLY_RING_MODULES = {"sympy.polys.rings", "sympy.polys.domains"}


def _violations(tree):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "sympy"
            and node.attr not in NUMBER_THEORY
        ):
            yield node.lineno, "sympy.%s" % node.attr
        elif isinstance(node, ast.Attribute) and node.attr == "subs":
            yield node.lineno, ".subs"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "resultant"
        ):
            yield node.lineno, ".resultant("
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "sympy"
        ):
            if node.module in POLY_RING_MODULES:
                continue
            for alias in node.names:
                if node.module != "sympy" or alias.name not in NUMBER_THEORY:
                    yield node.lineno, "from %s import %s" % (node.module, alias.name)
        elif isinstance(node, ast.Import):
            # only a plain "import sympy", so every use is seen above
            for alias in node.names:
                if alias.name.split(".")[0] == "sympy" and (
                    alias.name != "sympy" or alias.asname
                ):
                    yield node.lineno, "import %s" % alias.name


def test_guard_flags_the_expression_layer():
    source = (
        "import sympy\n"
        "from sympy import symbols\n"
        "x = sympy.symbols('x')\n"
        "r = sympy.resultant(x, x, x)\n"
        "e = sympy.Poly(x).subs(x, 1)\n"
        "ok = sympy.isprime(7)\n"
        "import sympy as sp\n"
        "r2 = f.resultant(g).resultant(h)\n"
    )
    found = [what for _, what in _violations(ast.parse(source))]
    assert found.count("sympy.isprime") == 0
    assert found.count(".resultant(") == 3
    for what in (
        "from sympy import symbols",
        "sympy.symbols",
        "sympy.resultant",
        "sympy.Poly",
        ".subs",
        "import sympy",
    ):
        assert what in found


def test_src_uses_no_sympy_expressions():
    bad = [
        "%s:%d %s" % (path.name, line, what)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in _violations(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert bad == []
