import random
from math import prod

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd, gf_mul, gf_pow_mod

from quartic_galois.fields import make_field
from quartic_galois.polys import (
    FqPoly,
    IntPoly,
    bivariate_resultant,
    factor_fq,
    int_resultant,
    is_irreducible_fq,
    is_irreducible_mod,
    multiplicative_order,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)


def lpoly_int(p, a, b, c):
    """P_p(T) = T^6 + aT^5 + bT^4 + cT^3 + pbT^2 + p^2 a T + p^3."""
    return IntPoly([p ** 3, p ** 2 * a, p * b, c, b, a, 1])


P2 = lpoly_int(2, 3, 6, 9)
P17 = lpoly_int(17, 2, 9, 120)
P23 = lpoly_int(23, 5, 19, 53)
P73 = lpoly_int(73, -4, -43, 581)


# ---------------------------------------------------------------------------
# products


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_int_poly_product_matches_schoolbook():
    # Kronecker substitution against the schoolbook product on signed
    # coefficients: zero, constants, digits at a byte edge (|c| = 127,
    # 128, 255; 3 * 127^2 needs a byte more than 127^2) and 700-bit
    # coefficients
    rng = random.Random(20)
    cases = [([], []), ([], [1, 2]), ([3], []), ([5], [-7]), ([-1], [2, 0, -3]),
             ([127], [-1]), ([128, -128], [1, 1]), ([-255] * 4, [255] * 3),
             ([127] * 3, [-127] * 3)]
    for bits in (1, 7, 8, 63, 64, 700):
        for _ in range(12):
            a, b = ([rng.randint(-2 ** bits, 2 ** bits)
                     for _ in range(rng.randint(0, 30))] for _ in range(2))
            cases.append((a, b))
    cases.append(([2 ** 700 - 1] * 25, [-(2 ** 700) + 1] * 40))
    for a, b in cases:
        assert (IntPoly(a) * IntPoly(b)).coeffs == tuple(_schoolbook(
            IntPoly(a).coeffs, IntPoly(b).coeffs))


# ---------------------------------------------------------------------------
# resultants


def test_resultant_trivial():
    assert int_resultant(IntPoly([0, 1]), IntPoly([-1, 1])) == -1


def test_resultant_rational_roots_case():
    # roots of x^2 - 1 are +-1; product of g there is (1+3-3)(-1+3-3) = -1
    f = IntPoly([-1, 0, 1])
    g = IntPoly([-3, 0, 3, 1])
    assert int_resultant(f, g) == -1


def test_resultant_swap_sign_and_multiplicativity():
    rng = random.Random(7)
    for _ in range(25):
        f = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(2, 5))])
        g = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(2, 5))])
        h = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(2, 5))])
        if f.is_zero() or g.is_zero() or h.is_zero() or f.degree < 1:
            continue
        sign = (-1) ** (f.degree * g.degree)
        assert int_resultant(f, g) == sign * int_resultant(g, f)
        if not (g * h).is_zero():
            assert int_resultant(f, g * h) == int_resultant(f, g) * int_resultant(
                f, h
            )


def _splitting_field_resultant_mod(f: IntPoly, g: IntPoly, ell: int) -> int:
    """Oracle: Res(f, g) mod ell by evaluating g at the roots of f in
    splitting extensions of F_ell (conjugates via Frobenius)."""
    Fl = make_field(ell, 1)
    fl = f.reduce_mod(ell)
    gl_int = [c % ell for c in g.coeffs]
    res = pow(f.lc(), g.degree, ell)
    for factor, mult in factor_fq(fl):
        d = factor.degree
        if d == 0:
            continue
        K = make_field(ell, d) if d > 1 else Fl
        fk = FqPoly.from_ints(K, factor.to_ints())
        gk = FqPoly.from_ints(K, gl_int)
        root = next(e for e in K.elements() if K.is_zero(fk(e)))
        val = K.one()
        r = root
        for _ in range(d):
            val = K.mul(val, gk(r))
            r = K.frobenius(r)
        v = val[0] if d == 1 or all(c == 0 for c in val[1:]) else None
        assert v is not None, "resultant value must lie in the prime field"
        res = res * pow(v, mult, ell) % ell
    # unit from the leading coefficient of f being absorbed per factor
    lead = fl.lc()[0]
    # factor_fq returns monic factors: f = lead * prod factors, so the
    # product over all roots of f is already covered; adjust nothing else.
    assert lead == f.lc() % ell
    return res % ell


def test_resultant_against_splitting_field_oracle():
    rng = random.Random(20260826)
    primes = [7, 11, 13, 17]  # small, so splitting-field scans stay cheap
    for _ in range(15):
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 5))])
        g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 5))])
        if f.degree < 1 or g.degree < 1:
            continue
        r = int_resultant(f, g)
        for ell in primes:
            if f.lc() % ell == 0 or g.lc() % ell == 0:
                continue
            assert r % ell == _splitting_field_resultant_mod(f, g, ell)


def test_resultant_reduction_compatibility():
    f, g = P2, P17
    x = sympy.Symbol("x")
    ref = int(
        sympy.resultant(sympy.Poly(f.coeffs[::-1], x), sympy.Poly(g.coeffs[::-1], x))
    )
    for ell in (3, 5, 7, 13):
        assert int_resultant(f, g) % ell == ref % ell


def test_resultant_large_monic_fast_path():
    # (x-2)^70 against Q_2 = x^3 + 3x^2 - 3: the resultant is Q_2(2)^70
    h = IntPoly([1])
    lin = IntPoly([-2, 1])
    for _ in range(70):
        h = h * lin
    q = IntPoly([-3, 0, 3, 1])
    assert int_resultant(h, q) == 17 ** 70
    assert int_resultant(q, h) == 17 ** 70  # even degree product: same sign


def test_resultant_sign_for_an_odd_degree_product():
    # Res(f, g) = lc(f)^deg g * prod g(alpha) over the roots alpha of f,
    # and swapping f and g multiplies it by (-1)^(deg f deg g)
    q = IntPoly([-3, 0, 3, 1])  # Q_2, with Q_2(2) = 17
    lin = IntPoly([-2, 1])
    assert int_resultant(lin, q) == 17  # Bareiss
    assert int_resultant(q, lin) == -17
    h = IntPoly([1])
    for _ in range(71):
        h = h * lin
    assert int_resultant(q, h) == -17 ** 71  # monic fast path


def test_resultant_zero_poly_rejected():
    with pytest.raises(ValueError):
        int_resultant(IntPoly([]), IntPoly([1, 1]))


def _in_y(*rows):
    """A polynomial in y whose coefficient of y^j is the x-polynomial
    rows[j] (coefficients low degree first)."""
    return [IntPoly(r) for r in rows]


def test_bivariate_resultant_reads_back_signed_digits():
    # Res_y(f, g) = lc(f)^deg g * prod g(alpha) over the roots alpha of f
    # y^2 - x against y - x: (sqrt x - x)(-sqrt x - x) = x^2 - x
    assert bivariate_resultant(
        _in_y([0, -1], [], [1]), _in_y([0, -1], [1])
    ) == IntPoly([0, -1, 1])
    # y - x^2 against y - 1: x^2 - 1, a borrow across the zero digit
    assert bivariate_resultant(
        _in_y([0, 0, -1], [1]), _in_y([-1], [1])
    ) == IntPoly([-1, 0, 1])
    # y^2 - 1 against x y - 1: (x - 1)(-x - 1) = 1 - x^2, negative on top
    assert bivariate_resultant(
        _in_y([-1], [], [1]), _in_y([-1], [0, 1])
    ) == IntPoly([1, 0, -1])
    # swapping the operands multiplies by (-1)^(deg_y f deg_y g)
    assert bivariate_resultant(
        _in_y([-1], [1]), _in_y([0, 0, -1], [1])
    ) == IntPoly([1, 0, -1])


def test_bivariate_resultant_degenerate_operands():
    g = _in_y([-1], [0, 1])
    assert bivariate_resultant([], g) == IntPoly([])
    assert bivariate_resultant(_in_y([], []), g) == IntPoly([])
    assert bivariate_resultant(g, _in_y([])) == IntPoly([])
    # both constant in y
    assert bivariate_resultant(_in_y([1, 2]), _in_y([3])) == IntPoly([1])
    # g constant in y: Res_y(y^2 - x, 2x + 1) = (2x + 1)^2
    assert bivariate_resultant(
        _in_y([0, -1], [], [1]), _in_y([1, 2])
    ) == IntPoly([1, 4, 4])
    # (x - 16) y against 3: the bound B = 3 alone would pack x = 16 and
    # lose deg_y f; K also covers |f|_1, so Res_y = 3
    assert bivariate_resultant(_in_y([], [-16, 1]), _in_y([3])) == IntPoly([3])


# ---------------------------------------------------------------------------
# factorization over finite fields


def test_factor_p23_mod_2():
    f23 = P23.reduce_mod(2)
    assert f23.to_ints() == [1, 1, 1, 1, 1, 1, 1]
    factors = factor_fq(f23)
    # x^6+...+1 = (x^3+x^2+1)(x^3+x+1) over F_2, in coefficient-sort order
    assert [(g.to_ints(), e) for g, e in factors] == [
        ([1, 0, 1, 1], 1),
        ([1, 1, 0, 1], 1),
    ]


def test_factor_p73_mod_2():
    f73 = P73.reduce_mod(2)
    factors = factor_fq(f73)
    assert [(g.to_ints(), e) for g, e in factors] == [
        ([1, 1, 1], 1),
        ([1, 1, 1, 1, 1], 1),
    ]


def test_factor_x2_minus_1_mod_3():
    f = IntPoly([-1, 0, 1]).reduce_mod(3)
    factors = factor_fq(f)
    assert [(g.to_ints(), e) for g, e in factors] == [([1, 1], 1), ([2, 1], 1)]


def test_factor_round_trip_random():
    rng = random.Random(99)
    for field in (F2, F3, make_field(3, 2), make_field(5, 1)):
        for _ in range(20):
            coeffs = [
                field.element_from_index(rng.randrange(field.order))
                for _ in range(rng.randint(2, 9))
            ]
            f = FqPoly(field, coeffs)
            if f.degree < 1:
                continue
            factors = factor_fq(f)
            rebuilt = FqPoly(field, [f.lc()])
            for g, e in factors:
                for _ in range(e):
                    rebuilt = rebuilt * g
            assert rebuilt == f
            assert all(is_irreducible_fq(g) for g, _ in factors)


def test_factor_pth_power():
    # (x^2 + 1)^3 over F_3 has zero derivative; the radical path must
    # still recover the base factor with multiplicity 3
    f = FqPoly.from_ints(F3, [1, 0, 1])
    cube = f * f * f
    factors = factor_fq(cube)
    assert [(g.to_ints(), e) for g, e in factors] == [([1, 0, 1], 3)]


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor_fq(FqPoly.zero(F2))


# ---------------------------------------------------------------------------
# irreducibility mod ell


def test_is_irreducible_mod_known_witnesses():
    assert is_irreducible_mod(P17, 3)
    assert is_irreducible_mod(P2, 7)
    assert is_irreducible_mod(P2, 11)
    assert is_irreducible_mod(P2, 41)
    assert not is_irreducible_mod(IntPoly([-1, 0, 1]), 5)


def test_is_irreducible_mod_agrees_with_factor_count():
    rng = random.Random(5)
    for _ in range(30):
        f = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 6))])
        for ell in (3, 5, 7):
            if f.degree < 1 or f.lc() % ell == 0:
                continue
            factors = factor_fq(f.reduce_mod(ell))
            single = len(factors) == 1 and factors[0][1] == 1
            assert is_irreducible_mod(f, ell) == (
                single and factors[0][0].degree == f.degree
            )


def test_is_irreducible_fq_agrees_with_sympy():
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    rng = random.Random(15)
    seen = {True: 0, False: 0}
    for ell in (2, 3, 5, 7, 11, 13):
        field = make_field(ell, 1)
        for _ in range(40):
            n = rng.randint(1, 8)
            coeffs = [rng.randrange(ell) for _ in range(n)] + [1]
            f = FqPoly.from_ints(field, coeffs)
            if rng.random() < 0.25:  # a square, so a repeated factor
                half = FqPoly.from_ints(field, coeffs[n - n // 2 - 1:])
                f = half * half
                coeffs = f.to_ints()
            expected = gf_irreducible_p(coeffs[::-1], ell, ZZ)
            assert is_irreducible_fq(f) == expected, (ell, coeffs)
            seen[expected] += 1
    assert min(seen.values()) > 30


def test_is_irreducible_mod_lc_vanishes():
    with pytest.raises(ValueError):
        is_irreducible_mod(IntPoly([1, 3]), 3)


# ---------------------------------------------------------------------------
# multiplicative order


def test_order_f23_is_7():
    assert multiplicative_order(P23.reduce_mod(2)) == 7


def test_order_f73_is_15():
    assert multiplicative_order(P73.reduce_mod(2)) == 15


def test_order_trivial():
    assert multiplicative_order(FqPoly.from_ints(F2, [1, 1])) == 1


def test_order_divides_and_is_minimal():
    for f, n in [
        (P23.reduce_mod(2), 7),
        (P73.reduce_mod(2), 15),
        (FqPoly.from_ints(F3, [1, 1]), 2),  # x + 1 divides x^2 - 1, not x - 1
        # primitive: the longest loop of the mod-2 step, 2^6 - 1 powers
        (FqPoly.from_ints(F2, [1, 1, 0, 0, 0, 0, 1]), 63),
    ]:
        F = f.field
        x = FqPoly.x(F)
        assert x.pow_mod(n, f) == FqPoly.one(F)
        for d in range(1, n):
            if n % d == 0:
                assert x.pow_mod(d, f) != FqPoly.one(F)


def test_order_rejects_bad_input():
    with pytest.raises(ValueError):
        multiplicative_order(FqPoly.from_ints(F2, [0, 1]))
    with pytest.raises(ValueError):
        multiplicative_order(FqPoly.from_ints(F2, [1, 0, 1]))  # (x+1)^2


# ---------------------------------------------------------------------------
# basic poly plumbing


@pytest.mark.parametrize(
    "p, m", [(5, 2), (2, 1), (5, 1), (2**61 - 1, 1)], ids=["F25", "F2", "F5", "F2^61-1"]
)
def test_fqpoly_divmod_round_trip(p, m):
    rng = random.Random(3)
    F = make_field(p, m)
    for _ in range(20):
        a = FqPoly(
            F, [F.element_from_index(rng.randrange(F.order)) for _ in range(6)]
        )
        b = FqPoly(
            F, [F.element_from_index(rng.randrange(F.order)) for _ in range(3)]
        )
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree


def _gf(f):
    """An F_p polynomial as a sympy galoistools list, high degree first."""
    return [ZZ(c) for c in reversed(f.to_ints())]


@pytest.mark.parametrize("p", [2, 3, 73, 2**61 - 1])
def test_prime_field_arithmetic_matches_galoistools(p):
    F = make_field(p, 1)
    rng = random.Random(p)
    pool = [FqPoly.zero(F)] + [
        FqPoly.from_ints(F, [rng.randrange(p) for _ in range(rng.randint(1, 21))])
        for _ in range(30)
    ]
    for _ in range(60):
        a, b, c = (rng.choice(pool) for _ in range(3))
        ga, gb = _gf(a), _gf(b)
        assert _gf(a * b) == gf_mul(ga, gb, p, ZZ)
        assert _gf(a.gcd(b)) == gf_gcd(ga, gb, p, ZZ)
        # operands with a common factor c
        assert _gf((a * c).gcd(b * c)) == gf_gcd(_gf(a * c), _gf(b * c), p, ZZ)
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
            with pytest.raises(ZeroDivisionError):
                a.pow_mod(3, b)
            continue
        q, r = a.divmod(b)
        assert (_gf(q), _gf(r)) == gf_div(ga, gb, p, ZZ)
        n = rng.randrange(4 * p * p)
        assert _gf(a.pow_mod(n, b)) == gf_pow_mod(ga, n, gb, p, ZZ)


@pytest.mark.parametrize("p, m", [(5, 1), (5, 2), (2**61 - 1, 1)])
def test_pow_mod_by_unit_constant_is_zero(p, m):
    F = make_field(p, m)
    f = FqPoly.from_ints(F, [1, 2, 3])
    unit = FqPoly.from_ints(F, [3])
    for n in (1, 2, 7):
        assert f.pow_mod(n, unit).is_zero()
    assert f.pow_mod(0, unit) == FqPoly.one(F)


def test_intpoly_pretty():
    assert P2.pretty() == "T^6 + 3*T^5 + 6*T^4 + 9*T^3 + 12*T^2 + 12*T + 8"
    assert IntPoly([]).pretty() == "0"
    assert IntPoly([-1, 1]).pretty("x") == "x - 1"
