import numpy as np
import pytest

from quartic_galois import counting
from quartic_galois.counting import (
    BadReductionError,
    BudgetExceededError,
    _BLOCK,
    _VecField,
    _brute_count,
    _choose_chart,
    _orbit_reps,
    count_points,
    l_polynomial,
    l_polynomial_table,
)
from quartic_galois.curve import TernaryQuarticForm
from quartic_galois.pipeline import DEFAULT_FROBENIUS_PRIMES

CURVE = TernaryQuarticForm.bundled_curve()
FERMAT = TernaryQuarticForm({(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
# the Klein quartic has no pure fourth power, so it would never leave the
# brute-force fallback; the y^4 term gives it a chart for the kernel
KLEIN_Y4 = TernaryQuarticForm(
    {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1, (0, 4, 0): 1}
)


def _abc(lp):
    return (lp.a, lp.b, lp.c)


def test_counts_match_brute_enumeration():
    cases = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (5, 2)]
    # extensions of degree 3, 4 and 6 mix Frobenius orbits of sizes
    # 1, 2, 3, 4 and 6
    cases += [(3, 3), (2, 4), (3, 4), (2, 6)]
    for p, m in cases:
        assert count_points(CURVE, p, m) == _brute_count(CURVE, p, m)


def test_counts_match_brute_on_other_curves():
    for form in (FERMAT, KLEIN_Y4):
        for p, m in [(3, 1), (5, 1), (3, 2), (13, 1), (2, 3), (5, 2),
                     (3, 3), (2, 4), (3, 4)]:
            assert _choose_chart(form, p) is not None
            assert count_points(form, p, m) == _brute_count(form, p, m)


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


def test_thread_count_does_not_change_answer(monkeypatch):
    # F_{41^3} has about 23,000 orbit representatives, several blocks
    answers = []
    for threads in (1, 4):
        monkeypatch.setattr(counting, "_THREADS", threads)
        answers.append((
            [count_points(CURVE, p, m) for p, m in [(17, 2), (41, 3), (73, 3)]],
            l_polynomial_table(CURVE, DEFAULT_FROBENIUS_PRIMES),
        ))
    assert answers[0] == answers[1]


def test_single_block_counts_stay_on_the_calling_thread(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a thread pool was started")

    monkeypatch.setattr(counting, "ThreadPoolExecutor", NoPool)
    assert _abc(l_polynomial(CURVE, 3)) == (1, 2, 3)
    assert l_polynomial(CURVE, 13).p == 13
    with pytest.raises(AssertionError):
        count_points(CURVE, 41, 3)


def test_degenerate_chart_falls_back_to_enumeration():
    # no pure fourth power at all: every projective point has a zero
    # coordinate contribution; small fields go through brute enumeration
    form = TernaryQuarticForm({(3, 1, 0): 1, (1, 3, 0): 1, (0, 2, 2): 1})
    assert count_points(form, 3, 1) == _brute_count(form, 3, 1)
    with pytest.raises(BudgetExceededError):
        count_points(form, 101, 2)


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
