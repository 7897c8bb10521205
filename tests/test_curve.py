import hashlib
import json
import random
from math import gcd

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from quartic_galois.curve import (
    LPolynomial,
    TernaryQuarticForm,
    classify_node,
    find_bad_prime_candidates,
    singular_points,
)
from quartic_galois.fields import make_field

CURVE = TernaryQuarticForm.bundled_curve()
FERMAT = TernaryQuarticForm({(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})


# ---------------------------------------------------------------------------
# the form type


def test_bundled_curve_coefficients():
    assert CURVE.coeff(3, 1, 0) == 1
    assert CURVE.coeff(2, 2, 0) == -1
    assert CURVE.coeff(0, 4, 0) == -1
    assert CURVE.coeff(4, 0, 0) == 0
    assert len(CURVE.coeffs) == 10
    assert gcd(*CURVE.coeffs.values()) == 1


def test_bundled_curve_irreducible_over_q():
    assert CURVE.is_irreducible_over_q()
    reducible = TernaryQuarticForm({(2, 2, 0): 1, (2, 0, 2): 1})  # x^2(y^2+z^2)
    assert not reducible.is_irreducible_over_q()


def test_json_round_trip(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(CURVE.to_json_obj()))
    assert TernaryQuarticForm.load(path) == CURVE


def test_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"monomials": [{"i": 1, "coeff": "2"}]}))
    with pytest.raises(ValueError):
        TernaryQuarticForm.load(path)


def test_rejects_zero_and_nonquartic():
    with pytest.raises(ValueError):
        TernaryQuarticForm({})
    with pytest.raises(ValueError):
        TernaryQuarticForm({(3, 0, 0): 1})


def test_partial_derivatives():
    # d/dx of x^3 y is 3 x^2 y
    px = CURVE.partial(0)
    assert px[(2, 1, 0)] == 3
    # Euler relation: x f_x + y f_y + z f_z = 4 f at a sample point
    pt = (3, 5, 7)
    total = sum(
        pt[v] * sum(c * pt[0] ** i * pt[1] ** j * pt[2] ** k
                    for (i, j, k), c in CURVE.partial(v).items())
        for v in range(3)
    )
    assert total == 4 * CURVE.evaluate_int(*pt)


# ---------------------------------------------------------------------------
# bad primes


def test_bad_prime_candidates_support():
    b = find_bad_prime_candidates(CURVE)
    support = set(sympy.primefactors(b))
    assert {7, 11, 83} <= support
    # the filtered set is exactly {7, 11, 83}
    bad = {p for p in support if not singular_points(CURVE, p).is_good}
    assert bad == {7, 11, 83}


def test_fermat_quartic_filtering():
    b = find_bad_prime_candidates(FERMAT)
    odd_bad = {
        p
        for p in sympy.primefactors(b)
        if p != 2 and not singular_points(FERMAT, p).is_good
    }
    assert odd_bad == set()


def test_content_divides_candidates():
    scaled = TernaryQuarticForm(
        {k: 3 * c for k, c in FERMAT.coeffs.items()}
    )
    assert find_bad_prime_candidates(scaled) % 3 == 0


def test_candidates_reject_singular_over_q():
    with pytest.raises(ValueError):
        find_bad_prime_candidates(
            TernaryQuarticForm({(2, 2, 0): 1, (2, 0, 2): 1})
        )


# ---------------------------------------------------------------------------
# singular fibers


def test_singular_points_bad_fibers():
    r7 = singular_points(CURVE, 7)
    assert r7.complete
    assert [pt.coords for pt in r7.points] == [(4, 6, 1)]
    r11 = singular_points(CURVE, 11)
    assert [pt.coords for pt in r11.points] == [(8, 2, 1)]
    r83 = singular_points(CURVE, 83)
    assert [pt.coords for pt in r83.points] == [(1, 59, 1), (55, 51, 1)]
    for rep in (r7, r11, r83):
        assert rep.complete
        for pt in rep.points:
            assert pt.field_degree == 1
            assert pt.ordinary_node is True
            assert pt.total_space_regular is True


def test_good_reduction_primes_empty():
    for p in (2, 3, 5, 13, 17):
        rep = singular_points(CURVE, p)
        assert rep.is_good


def test_singular_points_match_brute_scan():
    for p in (7, 11, 83):
        partials = [CURVE.partial(v) for v in range(3)]
        def is_sing(x, y, z):
            maps = [CURVE.coeffs] + partials
            return all(
                sum(c * x ** i * y ** j * z ** k for (i, j, k), c in m.items())
                % p
                == 0
                for m in maps
            )
        brute = set()
        for x0 in range(p):
            for y0 in range(p):
                if is_sing(x0, y0, 1):
                    brute.add((x0, y0, 1))
            if is_sing(x0, 1, 0):
                brute.add((x0, 1, 0))
        if is_sing(1, 0, 0):
            brute.add((1, 0, 0))
        reported = {pt.coords for pt in singular_points(CURVE, p).points}
        assert reported == brute


# ---------------------------------------------------------------------------
# node classification


def test_classify_node_bad_fibers():
    for p, pt in [(7, (4, 6, 1)), (11, (8, 2, 1)), (83, (1, 59, 1)), (83, (55, 51, 1))]:
        flags = classify_node(CURVE, p, pt)
        assert flags == {"ordinary_node": True, "total_space_regular": True}


def test_classify_node_rejects_nonsingular():
    with pytest.raises(ValueError):
        classify_node(CURVE, 7, (0, 0, 1))


def test_classify_node_cusp_is_not_ordinary():
    # x^4 - y^2 z^2 has quadratic part -y^2 at (0:0:1): a degenerate cone
    cusp = TernaryQuarticForm({(4, 0, 0): 1, (0, 2, 2): -1})
    flags = classify_node(cusp, 5, (0, 0, 1))
    assert flags["ordinary_node"] is False


# ---------------------------------------------------------------------------
# LPolynomial bookkeeping


def test_lpolynomial_functional_equation():
    lp = LPolynomial(p=2, a=3, b=6, c=9)
    P = lp.to_int_poly()
    # T^6 P(p/T) = p^3 P(T) at sample rational points
    from fractions import Fraction

    for t in (Fraction(1), Fraction(3), Fraction(-2), Fraction(5, 7)):
        lhs = t ** 6 * sum(
            Fraction(c) * (Fraction(2) / t) ** i for i, c in enumerate(P.coeffs)
        )
        rhs = 2 ** 3 * sum(Fraction(c) * t ** i for i, c in enumerate(P.coeffs))
        assert lhs == rhs


def test_lpolynomial_power_sums_and_counts():
    lp = LPolynomial(p=2, a=3, b=6, c=9)
    assert lp.power_sums(3) == [-3, -3, 0]
    assert [lp.point_count(m) for m in (1, 2, 3)] == [6, 8, 9]
    lp.verify_weil()


def test_weil_violation_detected():
    with pytest.raises(ArithmeticError):
        LPolynomial(p=2, a=99, b=0, c=0).verify_weil()


def test_from_counts_p2():
    # counts verified by exhaustive enumeration of P^2(F_2), P^2(F_4),
    # P^2(F_8) on the bundled curve
    assert LPolynomial.from_counts(2, [6, 8, 9]) == LPolynomial(2, 3, 6, 9)


def test_from_counts_p3():
    # counts derived by Newton power sums from (a,b,c) = (1,2,3) at p=3:
    # s1 = -1, s2 = -3, s3 = -4 -> N_m = 3^m + 1 - s_m
    assert LPolynomial.from_counts(3, [5, 13, 32]) == LPolynomial(3, 1, 2, 3)


def test_from_counts_needs_three_counts():
    with pytest.raises(ValueError):
        LPolynomial.from_counts(2, [6, 8])


def test_from_counts_rejects_non_integral_coefficients():
    # s = (-3, -2, 0): 2 e2 = 9 + 2 is odd
    with pytest.raises(ArithmeticError):
        LPolynomial.from_counts(2, [6, 7, 9])
    # s = (-3, -3, -1): e2 = 6, but 3 e3 = -18 - 9 - 1 = -28
    with pytest.raises(ArithmeticError):
        LPolynomial.from_counts(2, [6, 8, 10])


@given(
    p=st.sampled_from([q for q in range(2, 74) if sympy.isprime(q)]),
    a=st.integers(),
    b=st.integers(),
    c=st.integers(),
)
def test_from_counts_inverts_point_count(p, a, b, c):
    lp = LPolynomial(p=p, a=a, b=b, c=c)
    counts = [lp.point_count(m) for m in (1, 2, 3)]
    assert LPolynomial.from_counts(p, counts) == lp


# ---------------------------------------------------------------------------
# fingerprints of the elimination over a seeded corpus

# the 15 degree-4 monomials, x-degree descending, then y-degree descending
MONOMIALS = tuple(
    (i, j, 4 - i - j) for i in range(4, -1, -1) for j in range(4 - i, -1, -1)
)
# (y^2 - xz)^2: singular along a whole conic, so every eliminant vanishes
DOUBLE_CONIC = TernaryQuarticForm(
    {(0, 4, 0): 1, (1, 2, 1): -2, (2, 0, 2): 1}
)
# z^2 (x^2 + y^2 + z^2): every point of the line z = 0 is singular
DOUBLE_LINE = TernaryQuarticForm({(2, 0, 2): 1, (0, 2, 2): 1, (0, 0, 4): 1})
# sha256 pins of the reports and the candidates: any rewrite of the
# elimination must leave them unchanged
SINGULAR_CORPUS_SHA256 = (
    "6ebe64a3c1edee92c2ce9845337b27fb0d4cb49fc2936271a58dc6adbc2a7d87"
)
BAD_PRIME_SHA256 = (
    "b2e7f824cdec2fd039e25fc835aba2a404d5e3775cee7a38029edc2958b2d56a"
)


def _seeded_forms(seed, count=6):
    rng = random.Random(seed)
    return [
        TernaryQuarticForm({m: rng.randint(-3, 3) for m in MONOMIALS})
        for _ in range(count)
    ]


def _corpus():
    """(label, form, p) for the seeded forms of seeds 0-14 at p <= 7, the
    third form of seed 32 at p = 3 and the two constructed forms."""
    for seed in range(15):
        for draw, form in enumerate(_seeded_forms(seed)):
            for p in (2, 3, 5, 7):
                yield (seed, draw), form, p
    yield (32, 2), _seeded_forms(32)[2], 3
    for name, form in (("double-conic", DOUBLE_CONIC), ("double-line", DOUBLE_LINE)):
        for p in (3, 5, 7):
            yield name, form, p


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_singular_points_corpus_fingerprint():
    lines = [
        "%r %d %r" % (label, p, singular_points(form, p))
        for label, form, p in _corpus()
    ]
    assert len(lines) == 367
    assert _digest(lines) == SINGULAR_CORPUS_SHA256


def test_bad_prime_candidates_fingerprint():
    forms = [CURVE, FERMAT] + [_seeded_forms(seed)[0] for seed in (0, 1, 2)]
    lines = ["%r %d" % (f, find_bad_prime_candidates(f)) for f in forms]
    assert _digest(lines) == BAD_PRIME_SHA256


def _singular_locus(form, F, points):
    """The points of ``points`` (triples over F) where the form and its
    three partials all vanish."""
    maps = [form.coeffs] + [form.partial(v) for v in range(3)]

    def value(m, pt):
        acc = F.zero()
        for e, c in m.items():
            t = F.from_int(c)
            for coord, k in zip(pt, e):
                t = F.mul(t, F.pow(coord, k))
            acc = F.add(acc, t)
        return acc

    return {pt for pt in points if all(F.is_zero(value(m, pt)) for m in maps)}


def _projective_plane(F):
    """P^2(F), each point with its last nonzero coordinate equal to 1."""
    els = list(F.elements())
    pts = [(x, y, F.one()) for x in els for y in els]
    pts += [(x, F.one(), F.zero()) for x in els]
    return pts + [(F.one(), F.zero(), F.zero())]


def test_singular_points_match_brute_scan_over_fp2():
    with_quadratic = 0
    for p in (2, 3):
        F1, F2 = make_field(p, 1), make_field(p, 2)
        for form in (DOUBLE_CONIC, DOUBLE_LINE):
            assert not singular_points(form, p).complete
        for seed in range(15):
            for form in _seeded_forms(seed):
                rep = singular_points(form, p)
                if not rep.complete:
                    continue
                rational = {
                    tuple(c[0] for c in pt)
                    for pt in _singular_locus(form, F1, _projective_plane(F1))
                }
                quadratic = {
                    pt
                    for pt in _singular_locus(form, F2, _projective_plane(F2))
                    if any(c[1] for c in pt)
                }
                got = {d: {pt.coords for pt in rep.points if pt.field_degree == d}
                       for d in (1, 2)}
                assert got[1] == rational, (seed, p)
                assert got[2] == quadratic, (seed, p)
                with_quadratic += bool(quadratic)
    assert with_quadratic
