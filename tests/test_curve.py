import hashlib
import json
import random
from math import gcd

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    sympy_bad_prime_candidates,
    sympy_eliminant,
    sympy_in_coordinates,
    sympy_is_irreducible_over_q,
)
from quartic_galois.curve import (
    LPolynomial,
    TernaryQuarticForm,
    _rows,
    classify_node,
    find_bad_prime_candidates,
    _MACAULAY_FRAMES,
    partials_resultant,
    singular_points,
)
from quartic_galois.fields import make_field
from quartic_galois.polys import bivariate_resultant, int_resultant

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
    # smooth over Q-bar, hence geometrically irreducible: Res != 0
    assert partials_resultant(CURVE) == -(2 ** 14) * 7 * 11 * 83 ** 2
    assert sympy_is_irreducible_over_q(CURVE)
    reducible = TernaryQuarticForm({(2, 2, 0): 1, (2, 0, 2): 1})  # x^2(y^2+z^2)
    assert not sympy_is_irreducible_over_q(reducible)
    with pytest.raises(ValueError, match="singular over Q-bar"):
        find_bad_prime_candidates(reducible)


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
# elimination against sympy's subresultants

# the 15 degree-4 monomials, x-degree descending, then y-degree descending
MONOMIALS = tuple(
    (i, j, 4 - i - j) for i in range(4, -1, -1) for j in range(4 - i, -1, -1)
)
# (eliminated, kept) variable pairs; the third variable is set to 1
PAIRS = tuple((a, b) for a in range(3) for b in range(3) if a != b)


def _elimination_corpus():
    """400 seeded forms of 1-15 terms; form n has coefficients of
    magnitude at most 10^(n mod 21), so each magnitude from 1 to 10^20
    occurs about 19 times."""
    rng = random.Random(2026)
    forms = []
    for n in range(400):
        mag = 10 ** (n % 21)
        terms = rng.sample(MONOMIALS, rng.randint(1, 15))
        forms.append(
            TernaryQuarticForm(
                {m: rng.choice((-1, 1)) * rng.randint(1, mag) for m in terms}
            )
        )
    return forms


def _eliminant(f_map, g_map, elim, keep):
    return list(
        bivariate_resultant(_rows(f_map, elim, keep), _rows(g_map, elim, keep)).coeffs
    )


def _assert_equal_up_to_sign(got, ref):
    assert got in (ref, [-c for c in ref]), (got, ref)


def test_eliminants_match_sympy_up_to_sign():
    checked = vanished = 0
    for form in _elimination_corpus():
        for t in range(3):
            partial = form.partial(t)
            for elim, keep in PAIRS:
                ref = sympy_eliminant(form.coeffs, partial, elim, keep)
                _assert_equal_up_to_sign(
                    _eliminant(form.coeffs, partial, elim, keep), ref
                )
                checked += 1
                vanished += not ref
    assert checked == 7200
    assert 0 < vanished < checked


def _odd_support_within(n: int, m: int) -> bool:
    """Whether every odd prime factor of n divides m, found by gcds
    alone: neither integer is factored."""
    n >>= (n & -n).bit_length() - 1
    g = gcd(n, m)
    while g > 1:
        n //= g
        g = gcd(n, m)
    return n == 1


ODD_PRIMES_BELOW_50 = [p for p in range(3, 50) if sympy.isprime(p)]


def _good_where_complete(form, primes):
    """{p: is_good} over the given primes where the singular scan is
    complete."""
    reports = (singular_points(form, p) for p in primes)
    return {rep.p: rep.is_good for rep in reports if rep.complete}


def test_bad_prime_candidates_match_sympy():
    # the forms of magnitude at most 10^4.  B and the oracle's iterated
    # elimination gcd run to hundreds of bits, so the odd prime supports
    # are compared without factoring: every odd prime of B divides the
    # oracle's gcd, and at each odd prime below 50 that divides the gcd
    # the singular scan keeps exactly those that divide B.  A form that
    # is refused (Res = 0, or every extraneous minor vanishes) is bad at
    # every odd prime below 50 where the scan is complete.
    forms = [f for n, f in enumerate(_elimination_corpus()) if n % 21 <= 4]
    compared = refused = scanned = 0
    for form in forms:
        try:
            b = find_bad_prime_candidates(form)
        except (ValueError, ArithmeticError):
            refused += 1
            good = _good_where_complete(form, ODD_PRIMES_BELOW_50)
            assert not any(good.values()), form
            continue
        ref = sympy_bad_prime_candidates(form)
        assert ref and sympy_is_irreducible_over_q(form), form
        assert _odd_support_within(b, ref), form
        primes = [p for p in ODD_PRIMES_BELOW_50 if ref % p == 0]
        for p, is_good in _good_where_complete(form, primes).items():
            assert (b % p == 0) == (not is_good), (form, p)
            scanned += 1
        compared += 1
    assert (len(forms), compared, refused, scanned) == (96, 56, 40, 45)


def test_partials_resultant_vanishes_exactly_at_singular_fibers():
    # four corpus forms of each magnitude 1 to 10^20: an odd p divides Res
    # exactly when the fiber is singular (Euler's relation), also when
    # Res = 0 and every fiber is singular
    checked = {True: 0, False: 0}
    for form in _elimination_corpus()[:84]:
        try:
            res = partials_resultant(form)
        except ArithmeticError:  # every extraneous minor vanishes
            continue
        for p, is_good in _good_where_complete(form, ODD_PRIMES_BELOW_50).items():
            assert (res % p == 0) == (not is_good), (form, p)
            checked[is_good] += 1
    assert checked == {True: 420, False: 109}


def test_macaulay_frames_are_unimodular():
    for frame in _MACAULAY_FRAMES:
        (a, b, c), (d, e, f), (g, h, i) = frame
        assert abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) == 1
    assert _MACAULAY_FRAMES[0] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert _MACAULAY_FRAMES[-1] == ((1, 1, 1), (1, 2, 3), (1, 3, 6))


def test_in_coordinates_matches_sympy_compose():
    rng = random.Random(7)
    for n in range(300):
        form = TernaryQuarticForm(
            {m: rng.choice((-1, 1)) * rng.randint(1, 10 ** (n % 7))
             for m in rng.sample(MONOMIALS, rng.randint(1, 15))}
        )
        frame = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        assert form.in_coordinates(*frame) == sympy_in_coordinates(form, *frame)


def test_form_without_x_has_a_zero_eliminant():
    # f_x = 0: Res_y(f, f_x) is zero, with no ValueError from int_resultant
    form = TernaryQuarticForm({(0, 4, 0): 1, (0, 2, 2): 3, (0, 0, 4): 2})
    assert form.partial(0) == {}
    for elim, keep in PAIRS:
        assert _eliminant(form.coeffs, {}, elim, keep) == []
        assert sympy_eliminant(form.coeffs, {}, elim, keep) == []
    # four lines through (1:0:0), the one singular point mod 5
    rep = singular_points(form, 5)
    assert [pt.coords for pt in rep.points] == [(1, 0, 0)]


def test_cone_over_q_has_only_vanishing_eliminants():
    # x^4 + z^4 is irreducible over Q and holds no y, so Res_u(f, f_y)
    # is zero on every chart, and the cone is singular at (0:1:0)
    form = TernaryQuarticForm({(4, 0, 0): 1, (0, 0, 4): 1})
    assert sympy_is_irreducible_over_q(form)
    assert sympy_bad_prime_candidates(form) == 0
    assert partials_resultant(form) == 0
    with pytest.raises(ValueError, match="singular over Q-bar"):
        find_bad_prime_candidates(form)


def test_eliminant_below_degree_4_in_the_eliminated_variable():
    # degree 3 in y, 2 in x and 1 in z, with a zero leading row in each
    form = TernaryQuarticForm(
        {(2, 2, 0): 5, (0, 3, 1): -7, (1, 0, 3): 2, (0, 1, 3): -1, (0, 0, 4): 1}
    )
    for t in range(3):
        for elim, keep in PAIRS:
            ref = sympy_eliminant(form.coeffs, form.partial(t), elim, keep)
            _assert_equal_up_to_sign(
                _eliminant(form.coeffs, form.partial(t), elim, keep), ref
            )


def test_eliminant_of_operands_constant_in_the_eliminated_variable():
    # z^4 + x^3 z and 4 x^3 hold no y: Res_y = 1
    f_map, g_map = {(0, 0, 4): 1, (3, 0, 1): 1}, {(3, 0, 0): 4}
    for keep in (0, 2):
        assert _eliminant(f_map, g_map, 1, keep) == [1]
        assert sympy_eliminant(f_map, g_map, 1, keep) == [1]


def test_vanishing_chart_eliminants_match_sympy():
    # z^4 - y^4 + x z^3 is singular at (1:0:0) over Q; on the chart x = 1
    # both iterated resultants vanish, as in sympy
    form = TernaryQuarticForm({(0, 0, 4): 1, (0, 4, 0): -1, (1, 0, 3): 1})
    maps = [form.coeffs] + [form.partial(t) for t in range(3)]
    for first, second in ((1, 2), (2, 1)):
        a, b = (
            bivariate_resultant(_rows(maps[0], first, second), _rows(m, first, second))
            for m in (maps[1 + first], maps[1 + second])
        )
        assert int_resultant(a, b) == 0
    # the iterated elimination's gcd is 1, as if the curve were good
    # everywhere; the Macaulay resultant sees the singular point
    assert sympy_bad_prime_candidates(form) == 1
    assert partials_resultant(form) == 0
    with pytest.raises(ValueError, match="singular over Q-bar"):
        find_bad_prime_candidates(form)


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

# (y^2 - xz)^2: singular along a whole conic, so every eliminant vanishes
DOUBLE_CONIC = TernaryQuarticForm(
    {(0, 4, 0): 1, (1, 2, 1): -2, (2, 0, 2): 1}
)
# z^2 (x^2 + y^2 + z^2): every point of the line z = 0 is singular
DOUBLE_LINE = TernaryQuarticForm({(2, 0, 2): 1, (0, 2, 2): 1, (0, 0, 4): 1})
# sha256 pins of the reports, and of the candidates B = 2 |Res| with
# their bad primes: any rewrite of the elimination must leave them
# unchanged
SINGULAR_CORPUS_SHA256 = (
    "6ebe64a3c1edee92c2ce9845337b27fb0d4cb49fc2936271a58dc6adbc2a7d87"
)
BAD_PRIME_SHA256 = (
    "a790bf90a2ccc814c5cc9d016dd08d6f09fb38b361d49400af659712fbbb9c01"
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
    # B with its bad primes below 100 (the scan costs O(p^2) when the y^4
    # coefficient vanishes mod p); every odd prime factor of B is bad
    forms = [CURVE, FERMAT] + [_seeded_forms(seed)[0] for seed in (0, 1, 2)]
    lines = []
    for f in forms:
        b = find_bad_prime_candidates(f)
        small = [p for p in sympy.primefactors(b) if p < 100]
        bad = [p for p in small if not singular_points(f, p).is_good]
        assert set(small) - set(bad) <= {2}
        lines.append("%r %d %r" % (f, b, bad))
    assert lines[0].endswith(" 17381883904 [7, 11, 83]")
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
