import sympy
import pytest

from oracles import ORACLE_BOUND, dim3_solutions
from quartic_galois.curve import LPolynomial
from quartic_galois.irreducibility import (
    CaseProfile,
    dim1_exclusion,
    dim2_exclusion,
    dim2_qpoly,
    dim2_resultants,
    dim3_obstruction,
    enumerate_case_profiles,
    irreducibility_certify,
    witness_search,
)
from quartic_galois.polys import IntPoly

# the bundled curve's bad primes; their product 6391 is the Hecke level
BAD_PRIMES = (7, 11, 83)


# ---------------------------------------------------------------------------
# the case split


def test_case_profile_validation():
    CaseProfile(dims=(3, 3), exps=(0, 3))
    with pytest.raises(ValueError):
        CaseProfile(dims=(1, 5), exps=(0, 3))  # multiset identity fails
    with pytest.raises(ValueError):
        CaseProfile(dims=(3, 3), exps=(1, 1))  # sum != 3
    with pytest.raises(ValueError):
        CaseProfile(dims=(2, 4), exps=(3, 0))  # e_i > d_i


def test_enumeration_matches_expected_case_list():
    profiles = enumerate_case_profiles()
    by_dims = {}
    for c in profiles:
        by_dims.setdefault(c.dims, []).append(c.exps)
    # no valid labeling for (1,5) or (1,1,1,3)
    assert (1, 5) not in by_dims
    assert (1, 1, 1, 3) not in by_dims
    # (2,4) admits only (e1,e2) = (1,2)
    assert by_dims[(2, 4)] == [(1, 2)]
    # (2,2,2): the two labelings both contain a 2-dim piece with e = 1
    assert sorted(by_dims[(2, 2, 2)]) == [(0, 1, 2), (1, 1, 1)]
    # (3,3): after the swap convention one exponent is always <= 1
    assert sorted(by_dims[(3, 3)]) == [(0, 3), (1, 2)]
    for exps in by_dims[(3, 3)]:
        assert min(exps) in (0, 1)
    # every profile is handled by one of the three families
    assert {c.family for c in profiles} == {"dim1", "dim2", "dim3"}
    for c in profiles:
        assert min(c.dims) in (1, 2, 3)
        if c.family == "dim2":
            assert (2, 1) in c.pairs  # a 2-dim piece with det = chi


# ---------------------------------------------------------------------------
# witnesses and dimension 1


def test_witness_search_known_values(lpolys):
    expected = {3: 17, 5: 41, 7: 2, 11: 2, 41: 2, 83: 19, 17: 43}
    for ell, p in expected.items():
        assert witness_search(lpolys, ell) == p


def test_witness_search_skips_ell_itself(lpoly_map):
    assert witness_search([lpoly_map[3]], 3) is None


def test_dim1_exclusion_from_p2(lpoly_map):
    assert dim1_exclusion([lpoly_map[2]]) == {3, 17}
    poly = lpoly_map[2].to_int_poly()
    assert poly(1) == 51 and poly(2) == 408


def test_dim1_exclusion_gcd_shrinks(lpoly_map):
    both = dim1_exclusion([lpoly_map[2]])
    assert dim1_exclusion([lpoly_map[2], lpoly_map[3]]) <= both


def test_dim1_skips_zero_contribution(lpoly_map):
    # a synthetic polynomial with P(1) = 0 contributes no constraint
    synthetic = LPolynomial(p=2, a=0, b=0, c=-9)  # P(1) = 0
    assert synthetic.to_int_poly()(1) == 0
    assert dim1_exclusion([synthetic, lpoly_map[2]]) == {3, 17}
    # alone it leaves a zero gcd, which the Weil bounds forbid at good p
    with pytest.raises(ArithmeticError, match="Weil"):
        dim1_exclusion([synthetic])


# ---------------------------------------------------------------------------
# dimension 2


def test_qpoly_closed_forms(lpoly_map):
    assert dim2_qpoly(lpoly_map[2]).coeffs == (-3, 0, 3, 1)
    assert dim2_qpoly(lpoly_map[5]).coeffs == (-23, -5, 4, 1)
    # (a, b, c) = (0, 3p, 0) is P = (T^2 + p)^3, all alpha = 0
    degenerate = LPolynomial(p=7, a=0, b=21, c=0)
    assert dim2_qpoly(degenerate).coeffs == (0, 0, 0, 1)


def test_qpoly_matches_root_pairing(lpoly_map):
    # Res_t(Q_p(t), T^2 - t*T + p) recovers P_p(T)
    T, t = sympy.symbols("T t")
    for p in (2, 5, 17, 43):
        lp = lpoly_map[p]
        q = dim2_qpoly(lp)
        qexpr = sum(c * t ** i for i, c in enumerate(q.coeffs))
        res = sympy.expand(sympy.resultant(qexpr, T ** 2 - t * T + p, t))
        pexpr = sum(
            c * T ** i for i, c in enumerate(lp.to_int_poly().coeffs)
        )
        assert sympy.expand(res - pexpr) == 0


def test_dim2_exclusion_degree_one_sanity(lpoly_map):
    q2 = dim2_qpoly(lpoly_map[2])
    for tval in (-2, 0, 1, 5):
        h = IntPoly([-tval, 1])  # x - t
        support = (
            set(sympy.primefactors(abs(q2(tval)))) if q2(tval) else set()
        )
        got = dim2_exclusion(dim2_resultants({2: q2}, {2: h}))
        assert got == {q for q in support if q % 2 == 1}


def test_dim2_exclusion_discards_zero_resultants(lpoly_map):
    q2 = dim2_qpoly(lpoly_map[2])
    # a Hecke factor sharing a root with Q_2 gives r = 0 and is discarded
    zero_h = q2
    other = IntPoly([-1, 1])
    rps = dim2_resultants({2: q2, 5: dim2_qpoly(lpoly_map[5])},
                          {2: zero_h, 5: other})
    assert rps[2] == 0
    q5 = dim2_qpoly(lpoly_map[5])
    got = dim2_exclusion(rps)
    # r_2 = 0 leaves ell = 5 with no resultant at a prime other than 5
    odd = {q for q in sympy.primefactors(abs(q5(1))) if q % 2 == 1}
    assert odd == {23}
    assert got == odd | {5}
    with pytest.raises(ValueError):
        dim2_exclusion({2: 0})
    with pytest.raises(ValueError):
        dim2_exclusion({})


def test_dim2_exclusion_skips_the_resultant_at_ell():
    # ell | r_p is forced only for p != ell: 3 divides r_5 = 231 and is
    # kept although 3 does not divide r_3 = 14, while 5 does not divide
    # r_3 and is dropped
    assert dim2_exclusion({3: 14, 5: 231}) == {3, 7}


# ---------------------------------------------------------------------------
# dimension 3


def test_dim3_solutions_examples(lpoly_map):
    p2 = lpoly_map[2]
    assert dim3_solutions(p2, 0, 5).solutions == {(0, 1)}
    assert dim3_solutions(p2, 0, 13).solutions == frozenset()
    assert dim3_solutions(p2, 1, 13).solutions == frozenset()


def test_dim3_solutions_validation(lpoly_map):
    with pytest.raises(ValueError):
        dim3_solutions(lpoly_map[2], 2, 5)
    with pytest.raises(ValueError):
        dim3_solutions(lpoly_map[3], 0, 3)  # ell = p


def test_dim3_obstruction_supports(lpoly_map):
    n0 = dim3_obstruction(lpoly_map[2], 0)
    n1 = dim3_obstruction(lpoly_map[2], 1)
    assert set(sympy.primefactors(n0)) - {2} <= {3, 5, 7}
    assert set(sympy.primefactors(n1)) - {2} <= {3}


def test_dim3_oracle_equivalence(lpoly_map):
    # for every odd ell <= ORACLE_BOUND (50) not dividing N(e) * 14 * p, no solutions
    for p in (2, 3, 5):
        lp = lpoly_map[p]
        for e in (0, 1):
            n = dim3_obstruction(lp, e)
            for ell in range(3, ORACLE_BOUND + 1, 2):
                if not sympy.isprime(ell) or ell == p:
                    continue
                sols = dim3_solutions(lp, e, ell).solutions
                if (n * 14 * p) % ell != 0:
                    assert not sols, (p, e, ell)
                # stronger form actually guaranteed by the eliminant
                if n % ell != 0:
                    assert not sols, (p, e, ell)


# ---------------------------------------------------------------------------
# the ledger


def test_certify_without_hecke(lpolys):
    ledger = irreducibility_certify(lpolys, bad_primes=BAD_PRIMES)
    assert not ledger.complete
    assert ledger.finite_sets["base"] == {3, 5, 7, 11, 41, 83}
    assert ledger.finite_sets["dim1"] == {3, 17}
    assert ledger.finite_sets["dim2"] is None
    assert ledger.finite_sets["dim3"] == {3, 5, 7}
    assert {e.ell for e in ledger.entries} == {3, 5, 7, 11, 17, 41, 83}
    assert all(e.status == "excluded" for e in ledger.entries)
    assert ledger.open_primes == ()


def test_certify_with_hecke(lpolys, lpoly_map):
    # synthetic Hecke data: any integer polynomials with nonzero
    # resultants exercise the dim-2 plumbing
    h2 = IntPoly([5, 1])
    h5 = IntPoly([7, 2, 1])
    ledger = irreducibility_certify(
        lpolys, {2: h2, 5: h5}, bad_primes=BAD_PRIMES
    )
    assert ledger.complete
    assert ledger.finite_sets["dim2"] is not None
    assert ledger.details["dim2_gcd"] > 0
    assert {3, 5, 41} <= ledger.finite_sets["dim2"]


def test_certify_monotone_in_lpolys(lpolys):
    small = irreducibility_certify(lpolys[:4], bad_primes=BAD_PRIMES)
    full = irreducibility_certify(lpolys, bad_primes=BAD_PRIMES)
    open_small = set(small.open_primes)
    open_full = set(full.open_primes)
    assert open_full <= open_small | {e.ell for e in full.entries}


def test_certify_needs_table():
    with pytest.raises(ValueError):
        irreducibility_certify([], bad_primes=BAD_PRIMES)


def test_ledger_serialization_roundtrip(lpolys):
    import json

    ledger = irreducibility_certify(lpolys, bad_primes=BAD_PRIMES)
    obj = ledger.to_json_obj()
    assert json.loads(json.dumps(obj)) == obj
