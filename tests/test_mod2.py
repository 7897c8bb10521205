import pytest
import sympy

from quartic_galois.counting import l_polynomial
from quartic_galois.curve import LPolynomial, TernaryQuarticForm
from quartic_galois.mod2 import Mod2Evidence, mod2_orders, mod2_verdict


def test_orders_on_full_table(lpolys):
    ev = mod2_orders(lpolys)
    by_p = {e.p: e for e in ev.entries}
    assert by_p[5].n_p == 9
    assert by_p[19].n_p == 9
    assert by_p[23].n_p == 7
    assert by_p[73].n_p == 15
    assert {7, 9, 15} <= ev.orders_attained


def test_p23_splits_into_two_cubics(lpoly_map):
    # P_23 mod 2 = T^6+T^5+T^4+T^3+T^2+T+1 = (T^3+T+1)(T^3+T^2+1),
    # each root of order 7
    ev = mod2_orders([lpoly_map[23]])
    (entry,) = ev.entries
    degrees = sorted(len(f) - 1 for f in entry.factorization)
    assert degrees == [3, 3]
    assert entry.n_p == 7


def test_p73_factorization_shape(lpoly_map):
    ev = mod2_orders([lpoly_map[73]])
    (entry,) = ev.entries
    degrees = sorted(len(f) - 1 for f in entry.factorization)
    # (x^2+x+1)(x^4+x^3+x^2+x+1)
    assert degrees == [2, 4]
    # coefficients are F_2 elements, represented as length-1 tuples
    assert ((1,), (1,), (1,)) in entry.factorization
    assert ((1,), (1,), (1,), (1,), (1,)) in entry.factorization


def test_inseparable_entry_skipped(lpoly_map):
    # P_3 mod 2 = (T^2+T+1)^3 has repeated factors
    ev = mod2_orders([lpoly_map[3]])
    assert ev.entries == ()
    assert ev.orders_attained == frozenset()


def test_p2_filtered(lpoly_map):
    ev = mod2_orders([lpoly_map[2], lpoly_map[23]])
    assert [e.p for e in ev.entries] == [23]


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        mod2_orders([])


def test_verdict_surjective(lpolys):
    v = mod2_verdict(mod2_orders(lpolys))
    assert v["verdict"] == "surjective"
    assert v["trusted_fact_refs"] == ["TF-SP6F2"]
    # the registry's caveat about the S_8 subgroup is surfaced verbatim
    assert any("S_8" in note for note in v["notes"])


def test_verdict_inconclusive():
    ev = Mod2Evidence(entries=(), orders_attained=frozenset({7}))
    assert mod2_verdict(ev)["verdict"] == "inconclusive"
    # 7 and 15 without 9 fit inside S_8 = O_6^+(2)
    ev = Mod2Evidence(entries=(), orders_attained=frozenset({7, 15}))
    assert mod2_verdict(ev)["verdict"] == "inconclusive"
    ev = Mod2Evidence(entries=(), orders_attained=frozenset())
    assert mod2_verdict(ev)["verdict"] == "inconclusive"


def test_verdict_monotone(lpolys):
    small = mod2_orders(lpolys[:4])
    full = mod2_orders(lpolys)
    assert small.orders_attained <= full.orders_attained


def test_determinantal_quartic_is_inconclusive():
    # det(xA + yB + zC) with symmetric A, B, C has a rational even theta
    # characteristic, so its mod-2 image lies in a conjugate of
    # O_6^+(2) = S_8: Frobenius orders 15 and 7 must not suffice
    x, y, z = sympy.symbols("x y z")
    A = [[-1, 2, -2, 0], [2, -2, 1, 1], [-2, 1, 1, 1], [0, 1, 1, -1]]
    B = [[-2, 1, -2, 1], [1, 1, 2, -2], [-2, 2, 1, 0], [1, -2, 0, -1]]
    C = [[2, -2, 0, -2], [-2, -2, -2, 2], [0, -2, -2, 1], [-2, 2, 1, -1]]
    M = x * sympy.Matrix(A) + y * sympy.Matrix(B) + z * sympy.Matrix(C)
    det = sympy.Poly(M.det(), x, y, z)
    curve = TernaryQuarticForm({m: int(c) for m, c in det.terms()})
    ev = mod2_orders([l_polynomial(curve, p) for p in (19, 31)])
    assert [(e.p, e.n_p) for e in ev.entries] == [(19, 15), (31, 7)]
    assert mod2_verdict(ev)["verdict"] == "inconclusive"
