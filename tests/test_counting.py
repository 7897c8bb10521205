import itertools
import random

import numpy as np
import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from quartic_galois import counting
from quartic_galois.counting import (
    BadReductionError,
    BudgetExceededError,
    _BLOCK,
    _VecField,
    _centre,
    _count,
    _cubic_root_counts,
    _frobenius_residues,
    _gcd_degrees,
    _lane_polys,
    _legendre_table,
    _orbit_reps,
    _project_from,
    _projection,
    count_points,
    l_polynomial,
)
from quartic_galois.curve import TernaryQuarticForm, point_off_curve
from quartic_galois.fields import make_field
from quartic_galois.pipeline import DEFAULT_FROBENIUS_PRIMES
from quartic_galois.polys import FqPoly

from oracles import brute_count, remainder_sequence_degrees

CURVE = TernaryQuarticForm.bundled_curve()
FERMAT = TernaryQuarticForm({(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
# the Klein quartic x^3 y + y^3 z + z^3 x plus y^4, singular mod 2 only
# among the primes below 15
KLEIN_Y4 = TernaryQuarticForm(
    {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1, (0, 4, 0): 1}
)
# y (x^3 + x y^2 + y z^2): no pure fourth power, but the smooth point
# (1 : 0 : 0) mod every p, where the tangent line y = 0 lies on the curve
LINE_AND_CUBIC = TernaryQuarticForm({(3, 1, 0): 1, (1, 3, 0): 1, (0, 2, 2): 1})
# the double conic (xy + yz + zx)^2: no pure fourth power and no smooth
# point, since its gradient vanishes on the conic
DOUBLE_CONIC = TernaryQuarticForm({
    (2, 2, 0): 1, (0, 2, 2): 1, (2, 0, 2): 1,
    (2, 1, 1): 2, (1, 2, 1): 2, (1, 1, 2): 2,
})


def _abc(lp):
    return (lp.a, lp.b, lp.c)


def test_counts_match_brute_enumeration():
    # (7, 2) starts the y^p ladder at y^7 on an extension field
    cases = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (5, 2),
             (7, 2)]
    # extensions of degree 3, 4 and 6 mix Frobenius orbits of sizes
    # 1, 2, 3, 4 and 6
    cases += [(3, 3), (2, 4), (3, 4), (2, 6)]
    for p, m in cases:
        assert count_points(CURVE, p, m) == brute_count(CURVE, p, m)


def test_counts_match_brute_on_other_curves():
    for form in (FERMAT, KLEIN_Y4):
        for p, m in [(3, 1), (5, 1), (3, 2), (13, 1), (2, 3), (5, 2),
                     (3, 3), (2, 4), (3, 4)]:
            assert _projection(form, p) is not None
            assert count_points(form, p, m) == brute_count(form, p, m)


def test_tiny_blocks_match_brute_enumeration(monkeypatch):
    # ranges of m and 5m indices: many blocks, empty ones, and orbits
    # whose members fall in different ranges
    cases = [(CURVE, 5, 3), (CURVE, 7, 2), (CURVE, 3, 4), (CURVE, 2, 6),
             (FERMAT, 3, 3), (KLEIN_Y4, 3, 3), (DOUBLE_CONIC, 3, 1)]
    assert len(_projection(DOUBLE_CONIC, 3).coeff_rows) == 4
    expected = [brute_count(form, p, m) for form, p, m in cases]
    for block in (1, 5):
        monkeypatch.setattr(counting, "_BLOCK", block)
        assert [count_points(form, p, m) for form, p, m in cases] == expected


def test_orbit_representatives_cover_the_field():
    for p, m in [(41, 3), (5, 2), (3, 4), (2, 6), (7, 1)]:
        vf = _VecField(p, m)
        q, step = p ** m, _BLOCK * m
        reps, weight = 0, 0
        for lo in range(0, q, step):
            x, size = _orbit_reps(vf, lo, min(lo + step, q))
            assert x.shape == (m, size.size)
            assert all(m % k == 0 for k in size.tolist())
            reps += size.size
            weight += int(size.sum())
        assert weight == q
        if m in (2, 3):
            assert reps == p + (q - p) // m


def _from_roots(vf, roots, lanes):
    """The product of y - root over ``roots``, (m, lanes) each, as an
    (m, slot, lanes) array, low degree first."""
    poly = np.zeros((vf.m, 1, lanes), dtype=vf.dtype)
    poly[0] = 1
    for root in roots:
        out = np.zeros((vf.m, poly.shape[1] + 1, lanes), dtype=vf.dtype)
        out[:, 1:] += poly
        out[:, :-1] -= vf.mul(root[:, None], poly)
        poly = vf.mod(out)
    return poly


def _gcd_lanes(vf, rng, lanes, d):
    """(h, r) for a monic h of degree d over five kinds of lanes,
    ``lanes`` of each: random h and r; r = 0; h with a repeated root; r a
    nonzero constant; r sharing the factor y - a with h.  Returns the
    kind of each lane too."""
    m, p = vf.m, vf.p

    def elements(k):
        return [rng.integers(0, p, (m, lanes)).astype(vf.dtype)
                for _ in range(k)]

    def monic(roots):
        return _from_roots(vf, roots, lanes)[:, :d]

    a, b, c, e, f, g = elements(6)
    random_r = rng.integers(0, p, (m, d, lanes)).astype(vf.dtype)
    constant = np.zeros_like(random_r)
    constant[:, 0] = elements(1)[0]
    constant[0, 0, ~constant[:, 0].any(axis=0)] = 1
    distinct = [a, b, c, e][:d]
    kinds = [
        (rng.integers(0, p, (m, d, lanes)).astype(vf.dtype), random_r),
        (monic(distinct), np.zeros_like(random_r)),
        (monic([a, a, b, c][:d]), random_r),
        (monic(distinct), constant),
        (monic(distinct), _from_roots(vf, [a, f, g][:d - 1], lanes)),
    ]
    h = np.concatenate([h for h, _ in kinds], axis=2)
    r = np.concatenate([r for _, r in kinds], axis=2)
    return h, r, np.repeat(np.arange(len(kinds)), lanes)


@pytest.mark.parametrize(
    "p, m", [(73, 1), (11587, 1), (11, 2), (401, 2), (43, 3), (73, 3), (2, 4)]
)
def test_divsteps_match_the_remainder_sequence(monkeypatch, p, m):
    # on int32 and int64 lanes, for the cubics and the quartics the
    # kernel counts roots of
    rng = np.random.default_rng(p * 10 + m)
    dtypes = []
    for limit, d in itertools.product((counting._INT32_LIMIT, 0), (3, 4)):
        monkeypatch.setattr(counting, "_INT32_LIMIT", limit)
        vf = _VecField(p, m)
        dtypes.append(vf.dtype)
        h, r, kind = _gcd_lanes(vf, rng, 200, d)
        got = _gcd_degrees(vf, h, r)
        assert np.array_equal(got, remainder_sequence_degrees(vf, h, r))
        assert (got[kind == 1] == d).all()
        assert (got[kind == 3] == 0).all()
        assert (got[kind == 4] >= 1).all()
        if p > 40:
            # the random roots are nearly always distinct, and then the
            # shared factor is the whole gcd
            assert (got[kind == 4] == 1).mean() > 0.9
    assert dtypes[-1] == np.int64
    assert (dtypes[0] == np.int64) == (p == 11587)


@pytest.mark.parametrize("p, m", [(11, 2), (73, 2), (43, 3), (73, 3)])
def test_divsteps_match_the_remainder_sequence_on_the_curve(monkeypatch, p, m):
    # every lane the kernel counts for the bundled curve: the divsteps
    # and the discriminant rule both give the remainder-sequence degree
    lanes = []

    def checked(vf, h, legendre):
        got = _cubic_root_counts(vf, h, legendre)
        r = _frobenius_residues(vf, h)
        want = remainder_sequence_degrees(vf, h, r)
        assert np.array_equal(got, want)
        assert np.array_equal(_gcd_degrees(vf, h, r), want)
        lanes.append(got.size)
        return got

    monkeypatch.setattr(counting, "_cubic_root_counts", checked)
    count_points(CURVE, p, m)
    assert sum(lanes) == p + (p ** m - p) // m


def _cubic_lanes(vf, rng, lanes):
    """Monic cubics (m, 3, lanes) over F_q of five kinds, ``lanes`` of
    each: random; three random roots; a double root; a triple root; a
    root times a random quadratic.  Returns the kind of each lane too."""
    m, p = vf.m, vf.p
    a, b, c = (rng.integers(0, p, (m, lanes)).astype(vf.dtype)
               for _ in range(3))
    quad = np.concatenate(
        [rng.integers(0, p, (m, 2, lanes)), np.ones((m, 1, lanes))], axis=1
    ).astype(vf.dtype)
    quad[1:, 2] = 0
    times_a = np.zeros((m, 4, lanes), dtype=vf.dtype)
    times_a[:, 1:] += quad
    times_a[:, :3] -= vf.mul(a[:, None], quad)
    kinds = [
        rng.integers(0, p, (m, 3, lanes)).astype(vf.dtype),
        _from_roots(vf, [a, b, c], lanes)[:, :3],
        _from_roots(vf, [a, a, b], lanes)[:, :3],
        _from_roots(vf, [a, a, a], lanes)[:, :3],
        vf.mod(times_a)[:, :3],
    ]
    h = np.concatenate(kinds, axis=2)
    return h, np.repeat(np.arange(len(kinds)), lanes)


@pytest.mark.parametrize(
    "p, m",
    [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (73, 1), (73, 2),
     (73, 3), (11587, 1)],
)
def test_cubic_root_counts_match_the_remainder_sequence(p, m):
    # Stickelberger's rule against the degree of gcd(h, y^q - y), on
    # split, double-root, triple-root, one-root and irreducible cubics
    rng = np.random.default_rng(p * 10 + m)
    vf = _VecField(p, m)
    assert (vf.dtype == np.int64) == (p == 11587)
    h, kind = _cubic_lanes(vf, rng, 300)
    got = _cubic_root_counts(vf, h, _legendre_table(p))
    want = remainder_sequence_degrees(vf, h, _frobenius_residues(vf, h))
    assert np.array_equal(got, want)
    assert (got[kind == 1] >= 1).all() and (got[kind == 4] >= 1).all()
    assert set(got[kind == 2].tolist()) <= {1, 2} and 2 in got[kind == 2]
    assert (got[kind == 3] == 1).all()
    # irreducible, split and one-root cubics all occur
    assert 0 in got[kind == 0] and 3 in got[kind == 1] and 1 in got[kind == 4]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 17, 5, 13, 7, 29])
def test_frobenius_residues_match_a_slow_power(p, m):
    # the y^p ladder starts at y^t, t the top three bits of p: for the
    # quartic (d = 4), p = 2, 3 start at a monomial, 17, 5, 13 at the held
    # y^4 .. y^6 and 7 one step above; for the cubic (d = 3), p = 2 at a
    # monomial, 3, 17 at the held y^3, y^4 and 5, 13, 7 one to three steps
    # above; 29 = 0b11101 starts at y^7 with two more bits
    rng = np.random.default_rng(p * 10 + m)
    vf, F = _VecField(p, m), make_field(p, m)
    y = FqPoly.x(F)
    for d in (3, 4):
        x = rng.integers(0, p, (m, 6)).astype(vf.dtype)
        coeff_rows = [
            [(int(rng.integers(0, p)), int(rng.integers(0, 5)))
             for _ in range(3)]
            for _ in range(d)
        ]
        h = _lane_polys(vf, coeff_rows, x)
        r = _frobenius_residues(vf, h)
        assert h.shape == r.shape == (m, d, 6)
        for lane in range(x.shape[1]):
            def coeffs(arr):
                return [tuple(int(v) for v in arr[:, j, lane])
                        for j in range(d)]
            monic = FqPoly(F, coeffs(h) + [F.one()])
            assert FqPoly(F, coeffs(r)) == y.pow_mod(p ** m, monic) - y


def _plane(p):
    """P^2(F_p) in the order of the centre search."""
    points = [(0, 0, 1)] + [(0, 1, z) for z in range(p)]
    return points + [(1, y, z) for y in range(p) for z in range(p)]


def _value_and_gradient(form, pt, p):
    """(F, dF/dx, dF/dy, dF/dz) at pt, mod p."""
    return [
        sum(
            c * pt[0] ** i * pt[1] ** j * pt[2] ** k
            for (i, j, k), c in coeffs.items()
        ) % p
        for coeffs in [form.coeffs] + [form.partial(v) for v in range(3)]
    ]


def _smooth_points(form, p):
    """Every smooth point of the form's curve over F_p, by enumeration."""
    values = [(pt, _value_and_gradient(form, pt, p)) for pt in _plane(p)]
    return [pt for pt, (f, *grad) in values if f == 0 and any(grad)]


@pytest.mark.parametrize("form, p, degrees", [
    (FERMAT, 3, (1, 2, 3)),
    (FERMAT, 17, (1,)),
    (KLEIN_Y4, 2, (1, 2, 3)),
    (KLEIN_Y4, 3, (1, 2)),
    (CURVE, 2, (1, 2, 3)),
    (LINE_AND_CUBIC, 2, (1, 2, 3)),
    (LINE_AND_CUBIC, 3, (1, 2)),
])
def test_every_projection_centre_gives_the_brute_count(form, p, degrees):
    # the count must not depend on the smooth point projected from; the
    # centres include hyperflexes, whose tangent line meets the curve only
    # there (every centre of FERMAT at 3 and 17, one of KLEIN_Y4 at 3),
    # ordinary flexes and tangent lines that lie on the curve
    centres = _smooth_points(form, p)
    assert centres
    projections = [_project_from(form, p, pt) for pt in centres]
    assert all(len(proj.coeff_rows) == 3 for proj in projections)
    if form is FERMAT or form is KLEIN_Y4 and p == 3:
        assert any(proj.line.degree == 0 for proj in projections)
    if form is LINE_AND_CUBIC:
        assert any(proj.line.is_zero() for proj in projections)
    for m in degrees:
        brute = brute_count(form, p, m)
        for proj in projections:
            assert _count(p, m, proj) == brute


def _spy_degrees(monkeypatch):
    """Patches both root counters of the kernel, the divsteps gcd and the
    cubic discriminant rule, to record (p, d, lanes) for every block."""
    seen = []

    def spy(counter):
        def counted(vf, h, *args):
            seen.append((vf.p, h.shape[1], h.shape[2]))
            return counter(vf, h, *args)
        return counted

    monkeypatch.setattr(counting, "_gcd_degrees", spy(_gcd_degrees))
    monkeypatch.setattr(counting, "_cubic_root_counts", spy(_cubic_root_counts))
    return seen


def test_table_projects_from_a_smooth_point(monkeypatch):
    # the bundled curve has a smooth F_p-point at every table prime (six
    # at p = 2), so every count runs on cubic lanes; a silent fall back to
    # quartic lanes would keep the counts and lose the speed
    seen = _spy_degrees(monkeypatch)
    for p in DEFAULT_FROBENIUS_PRIMES:
        l_polynomial(CURVE, p)
    assert {d for _, d, _ in seen} == {3}
    # every lane of every count, m = 1, 2, 3, went through a counter
    for p in DEFAULT_FROBENIUS_PRIMES:
        assert sum(n for q, _, n in seen if q == p) == sum(
            p + (p ** m - p) // m for m in (1, 2, 3)
        )


def test_no_smooth_point_keeps_quartic_lanes(monkeypatch):
    # x^4 + y^4 + z^4 has no point over F_5 (fourth powers are 0 and 1),
    # so its counts run on quartic lanes from (0 : 1 : 0), off C
    assert _smooth_points(FERMAT, 5) == []
    assert _centre(FERMAT, 5) == ((0, 1, 0), False)
    seen = _spy_degrees(monkeypatch)
    lp = l_polynomial(FERMAT, 5)
    assert {(p, d) for p, d, _ in seen} == {(5, 4)}
    assert [lp.point_count(m) for m in (1, 2)] == [
        brute_count(FERMAT, 5, m) for m in (1, 2)
    ]


def test_small_counts_exact():
    assert count_points(CURVE, 2, 1) == 6
    assert count_points(CURVE, 2, 2) == 8
    assert count_points(CURVE, 3, 1) == 5


def test_l_polynomial_small_primes():
    assert _abc(l_polynomial(CURVE, 2)) == (3, 6, 9)
    assert _abc(l_polynomial(CURVE, 3)) == (1, 2, 3)
    assert _abc(l_polynomial(CURVE, 5)) == (4, 10, 17)
    assert _abc(l_polynomial(CURVE, 17)) == (2, 9, 120)


def test_l_polynomial_counts_round_trip():
    for p in (2, 3, 5):
        lp = l_polynomial(CURVE, p)
        for m in (1, 2, 3):
            assert lp.point_count(m) == count_points(CURVE, p, m)


def test_weil_bound_on_counts():
    for p, m in [(2, 1), (3, 1), (5, 1), (5, 2), (17, 1)]:
        n = count_points(CURVE, p, m)
        q = p ** m
        assert abs(n - (q + 1)) ** 2 <= 36 * q


def test_l_polynomial_rejects_bad_reduction():
    for p in (7, 11, 83):
        with pytest.raises(BadReductionError):
            l_polynomial(CURVE, p)


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        count_points(CURVE, 101, 4)


def test_double_conic_is_counted_from_a_point_off_it():
    # with no smooth point the double conic is projected from a point
    # off it; its points are the q + 1 of the conic
    assert len(_projection(DOUBLE_CONIC, 3).coeff_rows) == 4
    assert count_points(DOUBLE_CONIC, 3, 1) == brute_count(DOUBLE_CONIC, 3, 1)
    assert count_points(DOUBLE_CONIC, 101, 2) == 101 ** 2 + 1


def test_the_zero_form_mod_p_holds_the_whole_plane():
    form = TernaryQuarticForm({(4, 0, 0): 3, (0, 4, 0): 3, (0, 0, 4): 3})
    assert _projection(form, 3) is None
    for m in (1, 2, 6):
        q = 3 ** m
        assert count_points(form, 3, m) == q * q + q + 1
    assert count_points(form, 3, 1) == brute_count(form, 3, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_value_and_gradient_determine_a_quartic_mod_2_and_3(p):
    # F -> (F, grad F) at the points of P^2(F_p) has rank 15 on quartic
    # forms, so a form nonzero mod p has a smooth point or a point off it
    # in P^2(F_p), all of which the centre search covers at p = 2, 3
    monomials = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]
    columns = [
        [v for pt in _plane(p)
         for v in _value_and_gradient(TernaryQuarticForm({e: 1}), pt, p)]
        for e in monomials
    ]
    rows = [[GF(p)(col[r]) for col in columns] for r in range(len(columns[0]))]
    assert DomainMatrix(rows, (len(rows), 15), GF(p)).rank() == 15


def _seeded_forms(p, n, seed):
    """n forms nonzero mod p: one to five random terms, and every third
    form the square of a conic of one to three terms, which has no
    smooth point."""
    quartics = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]
    conics = [(i, j, 2 - i - j) for i in range(3) for j in range(3 - i)]
    rng = random.Random(seed)
    forms = []
    while len(forms) < n:
        if len(forms) % 3 == 2:
            conic = [(e, rng.randrange(-p, p))
                     for e in rng.sample(conics, rng.randint(1, 3))]
            terms = {}
            for (e, a), (f, b) in itertools.product(conic, repeat=2):
                k = tuple(u + v for u, v in zip(e, f))
                terms[k] = terms.get(k, 0) + a * b
        else:
            terms = {e: rng.randrange(-p, p)
                     for e in rng.sample(quartics, rng.randint(1, 5))}
        if any(c % p for c in terms.values()):
            forms.append(TernaryQuarticForm(terms))
    return forms


@pytest.mark.parametrize("p, degrees", [
    (2, (1, 2, 3)), (3, (1, 2)), (5, (1, 2)), (7, (1,)), (17, (1,)), (19, (1,)),
])
def test_every_form_nonzero_mod_p_has_a_centre(p, degrees):
    # the forms are often degenerate mod p: reducible, non-reduced or
    # with no smooth F_p-point, and then counted on quartic lanes
    lanes = set()
    for form in _seeded_forms(p, 20, p):
        lanes.add(len(_projection(form, p).coeff_rows))
        for m in degrees:
            assert count_points(form, p, m) == brute_count(form, p, m)
    assert lanes == {3, 4}


def test_centre_is_the_first_smooth_point_of_the_search():
    # the smooth point of smallest index among the first 16p + 1 points
    # of P^2(F_p), else the point off C that point_off_curve finds
    cases = [
        (form, p)
        for p in (2, 3, 5, 7, 17, 19)
        for form in _seeded_forms(p, 20, p)
    ] + [(CURVE, p) for p in DEFAULT_FROBENIUS_PRIMES]
    for form, p in cases:
        values = (
            (pt, _value_and_gradient(form, pt, p))
            for pt in _plane(p)[:16 * p + 1]
        )
        first = next(
            (pt for pt, (f, *grad) in values if f == 0 and any(grad)), None
        )
        expected = (
            (first, True) if first else (point_off_curve(form, p), False)
        )
        assert _centre(form, p) == expected, (form, p)


def test_line_and_cubic_is_counted_from_its_smooth_point():
    # no pure fourth power, but the smooth point (1 : 0 : 0): cubic lanes
    for p, m in [(3, 1), (2, 3), (3, 2), (5, 1), (5, 2), (7, 1)]:
        assert len(_projection(LINE_AND_CUBIC, p).coeff_rows) == 3
        assert count_points(LINE_AND_CUBIC, p, m) == brute_count(
            LINE_AND_CUBIC, p, m
        )


def test_lane_dtype_follows_the_range_bound():
    for p, m in [(211, 3), (401, 2), (11579, 1)]:
        assert _VecField(p, m).dtype == np.int32
    for p, m in [(409, 2), (11587, 1)]:
        assert _VecField(p, m).dtype == np.int64


def test_int64_range_guard_precedes_the_field(monkeypatch):
    def no_field(p, m):
        raise AssertionError("field built before the range check")

    monkeypatch.setattr(counting, "make_field", no_field)
    with pytest.raises(OverflowError):
        _VecField(2 ** 31 - 1, 2)


def test_mod_is_the_least_residue():
    vf = _VecField(73, 3)
    a = np.arange(-3 * 73 * 73, 3 * 73 * 73, 7, dtype=vf.dtype)
    r = vf.mod(a)
    assert r.dtype == vf.dtype
    assert np.array_equal(r, a % 73)


@pytest.mark.parametrize("p, m", [(41, 3), (401, 2), (11579, 1)])
def test_int32_lanes_match_int64_lanes(monkeypatch, p, m):
    assert _VecField(p, m).dtype == np.int32
    narrow = count_points(CURVE, p, m)
    monkeypatch.setattr(counting, "_INT32_LIMIT", 0)
    assert _VecField(p, m).dtype == np.int64
    assert count_points(CURVE, p, m) == narrow


# the degree-1 monomials x, y, z, which give the holomorphic differentials
# of a plane quartic, shifted by (1, 1, 1): the exponents u of the
# Cartier-Manin formula
_HW_EXPONENTS = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]


def _cartier_manin(curve, p):
    """The Hasse-Witt matrix A_ij = [x^(p u_i - u_j)] f^(p-1) mod p.

    f^(p-1) is built on z = 1 as a dense (x, y) array by p - 1 shifted-add
    multiplications by f; the z exponent is fixed by the total degree.
    """
    d = 4 * (p - 1)
    terms = [(i, j, c % p) for (i, j, _), c in curve.coeffs.items() if c % p]
    power = np.zeros((d + 1, d + 1), dtype=np.int64)
    power[0, 0] = 1
    for _ in range(p - 1):
        prod = np.zeros_like(power)
        for i, j, c in terms:
            prod[i:, j:] += c * power[:d + 1 - i, :d + 1 - j]
        power = prod % p
    return [
        [int(power[p * ui[0] - uj[0], p * ui[1] - uj[1]]) for uj in _HW_EXPONENTS]
        for ui in _HW_EXPONENTS
    ]


@pytest.mark.parametrize("p", DEFAULT_FROBENIUS_PRIMES)
def test_l_polynomial_matches_hasse_witt(p):
    # L(T) = 1 + aT + bT^2 + cT^3 + ... is det(1 - T Frob), and mod p it
    # agrees with det(I - T A) for the Hasse-Witt matrix A (Manin 1961;
    # Stohr-Voloch 1987), which is computed without any point count
    A = _cartier_manin(CURVE, p)
    trace = A[0][0] + A[1][1] + A[2][2]
    minors = sum(
        A[i][i] * A[j][j] - A[i][j] * A[j][i]
        for i in range(3) for j in range(i + 1, 3)
    )
    det = (
        A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
        - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
        + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0])
    )
    lp = l_polynomial(CURVE, p)
    assert (lp.a - (-trace)) % p == 0
    assert (lp.b - minors) % p == 0
    assert (lp.c - (-det)) % p == 0
