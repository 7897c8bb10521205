"""Acceptance gate: one test per published criterion, numbered 1-11.

Each test recomputes its claim from scratch (no shared caches beyond
the module-scoped L-polynomial table, which is itself criterion 1).
"""

import hashlib
import time

import pytest
import sympy

from quartic_galois.counting import l_polynomial
from quartic_galois.curve import TernaryQuarticForm, singular_points
from quartic_galois.etaproducts import ETA_NEWFORMS, newform_ap
from quartic_galois.irreducibility import (
    dim1_exclusion,
    dim2_qpoly,
    dim3_obstruction,
    dim3_solutions,
    witness_search,
)
from quartic_galois.mod2 import mod2_orders, mod2_verdict
from quartic_galois.modsym import (
    cuspidal_space,
    genus_x0,
    hecke_charpoly,
    hecke_matrix,
)
from quartic_galois.pipeline import (
    _default_config,
    _load_hecke,
    render_report,
    run_pipeline,
)
from quartic_galois.primitivity import primitivity_witnesses


def report_sha256(cert, format="json"):
    return hashlib.sha256(render_report(cert, format).encode()).hexdigest()


TABLE = {
    2: (3, 6, 9),
    3: (1, 2, 3),
    5: (4, 10, 17),
    17: (2, 9, 120),
    19: (4, 18, 91),
    23: (5, 19, 53),
    41: (0, 42, -212),
    43: (3, -1, -43),
    73: (-4, -43, 581),
}


@pytest.fixture(scope="module")
def computed_table():
    curve = TernaryQuarticForm.bundled_curve()
    start = time.monotonic()
    lpolys = [l_polynomial(curve, p, workers=1) for p in sorted(TABLE)]
    elapsed = time.monotonic() - start
    return lpolys, elapsed


def test_criterion_01_lpolynomial_table(computed_table):
    lpolys, elapsed = computed_table
    assert {lp.p: (lp.a, lp.b, lp.c) for lp in lpolys} == TABLE
    assert elapsed < 30.0, "single-threaded table took %.1f s" % elapsed


def test_criterion_02_reduction_analysis():
    curve = TernaryQuarticForm.bundled_curve()
    from quartic_galois.curve import find_bad_prime_candidates
    from quartic_galois.reduction import inertia_certificate

    bad = []
    reports = {}
    for p in sympy.primefactors(find_bad_prime_candidates(curve)):
        rep = singular_points(curve, p)
        assert rep.complete
        if rep.points:
            bad.append(p)
            reports[p] = rep
    assert bad == [7, 11, 83]
    # four nodes in total, all ordinary with regular total space
    assert sum(len(reports[p].points) for p in bad) == 4
    for p in bad:
        for pt in reports[p].points:
            assert pt.ordinary_node is True
            assert pt.total_space_regular is True
    certs = {p: inertia_certificate(reports[p]) for p in bad}
    assert (certs[7].transvection, certs[11].transvection) == (True, True)
    assert certs[83].transvection is False


def test_criterion_03_mod2(computed_table):
    lpolys, _ = computed_table
    ev = mod2_orders(lpolys)
    by_p = {e.p: e for e in ev.entries}
    # note: P_23 mod 2 is the 7th cyclotomic polynomial, which splits
    # into two cubics over F_2; its Frobenius order is 7 regardless
    assert by_p[23].n_p == 7
    assert by_p[73].n_p == 15
    degrees73 = sorted(len(f) - 1 for f in by_p[73].factorization)
    assert degrees73 == [2, 4]
    v = mod2_verdict(ev)
    assert v["verdict"] == "surjective"
    assert v["trusted_fact_refs"] == ["TF-SP6F2"]


def test_criterion_04_dim1_exclusion(computed_table):
    lpolys, _ = computed_table
    p2 = next(lp for lp in lpolys if lp.p == 2)
    assert dim1_exclusion([p2]) == {3, 17}
    poly = p2.to_int_poly()
    assert poly(1) == 51
    assert poly(2) == 408


def test_criterion_05_q_cubics(computed_table):
    lpolys, _ = computed_table
    by_p = {lp.p: lp for lp in lpolys}
    # x^3 + 3x^2 - 3 and x^3 + 4x^2 - 5x - 23, low degree first
    assert dim2_qpoly(by_p[2]).coeffs == (-3, 0, 3, 1)
    assert dim2_qpoly(by_p[5]).coeffs == (-23, -5, 4, 1)


def test_criterion_06_dim3(computed_table):
    lpolys, _ = computed_table
    p2 = next(lp for lp in lpolys if lp.p == 2)
    start = time.monotonic()
    for e in (0, 1):
        n = dim3_obstruction(p2, e, validate=False)
        support = set(sympy.primefactors(n)) - {2}
        assert support <= {3, 5, 7}, (e, support)
        for ell in range(3, 51, 2):
            if not sympy.isprime(ell):
                continue
            sols = dim3_solutions(p2, e, ell).solutions
            if n % ell != 0:
                assert not sols, (e, ell)
    assert time.monotonic() - start < 5.0


def test_criterion_07_witness_coverage(computed_table):
    lpolys, _ = computed_table
    expected = {3: 17, 5: 41, 7: 2, 11: 2, 41: 2, 83: 19}
    for ell, p in expected.items():
        assert witness_search(lpolys, ell) == p
    # the run must terminate with a definite answer for ell = 17:
    # P_43 is irreducible mod 17, so 17 is excluded with witness p = 43
    assert witness_search(lpolys, 17) == 43


def test_criterion_08_primitivity(computed_table):
    lpolys, _ = computed_table
    out = primitivity_witnesses(lpolys, [3, 5, 7, 11, 83])
    assert {ell: w.p for ell, w in out.items()} == {
        3: 17,
        5: 43,
        7: 2,
        11: 2,
        83: 19,
    }
    by_p = {lp.p: lp for lp in lpolys}
    from quartic_galois.polys import is_irreducible_mod

    for ell, w in out.items():
        lp = by_p[w.p]
        assert is_irreducible_mod(lp.to_int_poly(), ell)
        assert (-lp.a) % ell != 0


def test_criterion_09_modular_forms_desk_scale():
    start = time.monotonic()
    # genus formula against the cuspidal plus-quotient for all N <= 200
    # (cuspidal_space asserts dim == genus internally; we re-check)
    for N in range(1, 201):
        assert cuspidal_space(N).genus == genus_x0(N)
    # eta oracle at the genus-one levels, all good p <= 13
    from fractions import Fraction

    for N, factors in ETA_NEWFORMS.items():
        space = cuspidal_space(N)
        for p in (2, 3, 5, 7, 11, 13):
            if N % p == 0:
                continue
            assert hecke_matrix(space, p) == [
                [Fraction(newform_ap(factors, p))]
            ], (N, p)
    # commutativity on a genus-2 level
    t2 = sympy.Matrix(hecke_matrix(cuspidal_space(37), 2))
    t3 = sympy.Matrix(hecke_matrix(cuspidal_space(37), 3))
    assert t2 * t3 == t3 * t2
    assert time.monotonic() - start < 30.0


def test_criterion_10_extended_gcd_support():
    # plus-quotient convention: the odd-prime support of gcd(r_2, r_5)
    # must be {3}; on this data the odd part is in fact exactly 3^16
    from math import gcd

    from quartic_galois.irreducibility import dim2_resultants

    hecke, src = _load_hecke(_default_config({"extended_checks": True}), 6391)
    assert src.startswith("bundled")
    curve = TernaryQuarticForm.bundled_curve()
    qpolys = {p: dim2_qpoly(l_polynomial(curve, p)) for p in (2, 5)}
    rps = dim2_resultants(qpolys, hecke)
    g = gcd(abs(rps[2]), abs(rps[5]))
    odd = g
    while odd % 2 == 0:
        odd //= 2
    assert sympy.primefactors(odd) == [3]
    assert odd == 3 ** 16
    # the pipeline's own extended obligation reports the same odd part
    cert = run_pipeline({"extended_checks": True})
    assert cert.final_verdict == "maximal adelic image"
    (ext,) = [
        ob for ob in cert.obligations if ob["name"] == "extended-dim2-gcd"
    ]
    assert ext["status"] == "proved"
    assert ext["evidence"]["gcd"] == str(g)
    assert ext["evidence"]["odd_part"] == str(3 ** 16)
    assert ext["evidence"]["odd_part_is_3_pow"] == 16
    assert report_sha256(cert) == (
        "2e08522ed3681467b37a3ee9c54e2a5347660c21dca8ff835ef189157c9d19a0"
    )


def test_criterion_11_end_to_end():
    cert = run_pipeline({})  # defaults: bundled curve + bundled Hecke file
    assert cert.final_verdict == "maximal adelic image"
    assert all(
        ob["status"] in ("proved", "trusted") for ob in cert.obligations
    )
    # the certificate bytes are pinned, JSON and text
    assert report_sha256(cert) == (
        "34530f2f9cc65b312d71283af1d6d1460a6b749bcb540e4dfd4fe17400e1e099"
    )
    assert report_sha256(cert, "text") == (
        "6d380c0a9f2d5f86dfb381e51d2a1ac260ae0c0b5376cb51511e212f7a346e79"
    )
    degraded = run_pipeline({"hecke": {"mode": "skip"}})
    assert degraded.final_verdict == (
        "not certified (failing step: irreducibility)"
    )
    failing = degraded.obligations[-1]
    assert failing["status"] == "failed"
    assert "dim-2" in failing["evidence"]["error"]
    assert report_sha256(degraded) == (
        "f4a5868876ddbc214f6cf676b9465032761bf94708c75969b650350d45972b95"
    )
