import pytest

from quartic_galois import fields
from quartic_galois.arith import isprime
from quartic_galois.fields import FieldDescriptor, make_field

TABLE_PRIMES = (2, 3, 5, 17, 19, 23, 41, 43, 73)
BAD_PRIMES = (7, 11, 83)


def _monic(p, d, n):
    """The n-th monic polynomial of degree d over F_p in base-p order of
    its lower coefficients, low degree first."""
    return [n // p ** i % p for i in range(d)] + [1]


def _divides(p, g, f):
    """Trial division of f by the monic g over F_p."""
    r, d = list(f), len(g) - 1
    for k in range(len(r) - 1, d - 1, -1):
        c = r[k]
        for j in range(d + 1):
            r[k - d + j] = (r[k - d + j] - c * g[j]) % p
    return not any(r)


def _first_irreducible(p, m):
    """Exhaustive-scan oracle: the first monic polynomial of degree m in
    base-p order with no monic factor of degree <= m/2."""
    for n in range(p ** m):
        f = _monic(p, m, n)
        if not any(
            _divides(p, _monic(p, d, k), f)
            for d in range(1, m // 2 + 1)
            for k in range(p ** d)
        ):
            return tuple(f)


def test_is_prime_small():
    # make_field's primality gate: prime fields are built, composites refused
    primes = [2, 3, 5, 7, 11, 13, 83, 6389]
    composites = [0, 1, 4, 6, 9, 91, 6391, 2 ** 16]  # 6391 = 7 * 11 * 83
    for p in primes:
        assert make_field(p, 1).order == p
    for n in composites:
        with pytest.raises(ValueError, match="not prime"):
            make_field(n, 1)


def test_make_field_rejects_bad_input():
    # 6391 = 7 * 11 * 83
    for n in (6, 0, 1, 91, 6391):
        with pytest.raises(ValueError):
            make_field(n, 1)
    with pytest.raises(ValueError):
        make_field(5, 0)


def test_prime_field_modulus_is_x():
    F = make_field(2, 1)
    assert F.modulus == (0, 1)
    assert F.order == 2


def test_canonical_modulus_f7_squared():
    F = make_field(7, 2)
    # x^2 + 1 (since -1 is a non-square)
    assert F.modulus == _first_irreducible(7, 2) == (1, 0, 1)


def test_canonical_moduli_match_oracle():
    # the F_{p^2} coordinates of singular points appear in the
    # certificate, so the choice of modulus must never drift
    cases = [(p, m) for p in TABLE_PRIMES + BAD_PRIMES for m in (2, 3)]
    cases += [(2, 4), (3, 4), (5, 4), (2, 6)]
    for p, m in cases:
        assert make_field(p, m).modulus == _first_irreducible(p, m), (p, m)


def _has_root_by_search(p, f):
    return any(sum(c * x ** i for i, c in enumerate(f)) % p == 0 for x in range(p))


def test_quadratic_root_test_matches_a_root_search():
    # Euler's criterion on the discriminant, on every monic quadratic at
    # small p, and through the canonical modulus at every prime below 2000
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(p * p):
            f = tuple(_monic(p, 2, n))
            assert fields._poly_has_root(f, p) == _has_root_by_search(p, f), (p, f)
    for p in filter(isprime, range(2, 2000)):
        n = next(n for n in range(p * p) if not _has_root_by_search(p, _monic(p, 2, n)))
        assert make_field(p, 2).modulus == tuple(_monic(p, 2, n)), p


def test_canonical_modulus_f73_cubed():
    F = make_field(73, 3)
    assert F.order == 389017
    c = F.modulus
    assert len(c) == 4 and c[3] == 1
    # a cubic is irreducible over F_p iff it has no root
    assert all(
        (x ** 3 + c[2] * x * x + c[1] * x + c[0]) % 73 for x in range(73)
    )


def test_field_axioms_f9():
    F = make_field(3, 2)
    els = list(F.elements())
    assert len(els) == 9
    one = F.one()
    for a in els:
        assert F.add(a, F.neg(a)) == F.zero()
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == one
    # associativity / distributivity spot checks on all triples (small field)
    for a in els:
        for b in els:
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_multiplicative_group_order():
    F = make_field(5, 2)
    for a in F.elements():
        if not F.is_zero(a):
            assert F.pow(a, F.order - 1) == F.one()


def test_frobenius_fixes_prime_subfield():
    F = make_field(7, 2)
    for n in range(7):
        a = F.from_int(n)
        assert F.frobenius(a) == a
    g = F.gen()
    assert F.frobenius(F.frobenius(g)) == g


def test_gen_is_root_of_modulus():
    F = make_field(73, 3)
    g = F.gen()
    acc = F.zero()
    power = F.one()
    for c in F.modulus:
        acc = F.add(acc, F.scalar_mul(c, power))
        power = F.mul(power, g)
    assert F.is_zero(acc)


def test_make_field_is_cached():
    assert make_field(11, 2) is make_field(11, 2)
    assert isinstance(make_field(11, 2), FieldDescriptor)


def test_modulus_search_failure_is_an_arithmetic_error(monkeypatch):
    # a modulus search that finds nothing is a failed self-check, which
    # survives python -O, not an assertion
    monkeypatch.setattr(fields, "_poly_has_root", lambda coeffs, p: True)
    with pytest.raises(ArithmeticError, match="degree-2 modulus mod 13"):
        make_field.__wrapped__(13, 2)
