import hashlib
import itertools
import json
from importlib import resources
from pathlib import Path
from math import comb, gcd, isqrt

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from oracles import ETA_NEWFORMS, integer_hecke_matrices, newform_ap
from quartic_galois import modsym
from quartic_galois.modsym import (
    genus_x0,
    hecke_charpolys_multimodular,
    p1_list,
    p1_normalize,
)

KNOWN_GENERA = {1: 0, 2: 0, 6: 0, 11: 1, 14: 1, 15: 1, 22: 2, 37: 2, 50: 2, 6391: 669}


def test_genus_known_values():
    for N, g in KNOWN_GENERA.items():
        assert genus_x0(N) == g


def test_genus_batch_under_200():
    # dimension of S_2(Gamma_0(N)) is nonnegative and grows roughly like N/12
    for N in range(1, 201):
        g = genus_x0(N)
        assert g >= 0
        assert g <= N // 6 + 1


def test_p1_size_is_psi():
    # |P^1(Z/N)| = N * prod_{p | N} (1 + 1/p)
    for N in (2, 6, 11, 12, 30, 49):
        psi = N
        for p in sympy.primefactors(N):
            psi = psi // p * (p + 1)
        assert len(p1_list(N)) == psi


def test_p1_normalize_is_canonical():
    N = 30
    for c, d in p1_list(N):
        for u in range(1, N):
            if sympy.gcd(u, N) == 1:
                assert p1_normalize(N, u * c % N, u * d % N) == (c, d)


def _p1_normalize_by_unit_scan(N, c, d):
    # the earlier p1_normalize: the least t * d1 over all g units
    # t = 1 (mod N/g), one gcd each
    if N == 1:
        return (0, 0)
    c %= N
    d %= N
    if gcd(gcd(c, d), N) != 1:
        return None
    if c == 0:
        return (0, 1)
    g = gcd(c, N)
    s = pow(c // g, -1, N // g)
    step = N // g
    while gcd(s, N) != 1:
        s += step
    d1 = s * d % N
    if g == 1:
        return (1, d1)
    best = d1
    for k in range(1, g):
        t = 1 + k * step
        if gcd(t, N) == 1:
            best = min(best, t * d1 % N)
    return (g, best)


def test_p1_normalize_matches_unit_scan():
    # every (c, d) mod N with gcd(c, N) > 1; for c coprime to N both
    # functions return (1, d1) before the part that changed
    for N in range(1, 201):
        pairs = [(c, d) for c in range(N) if gcd(c, N) > 1 for d in range(N)]
        got = [p1_normalize(N, c, d) for c, d in pairs]
        assert got == [_p1_normalize_by_unit_scan(N, c, d) for c, d in pairs], N


def test_genus_formula_remainder_raises(monkeypatch):
    # without its prime factors, level 11 gives 12g = 4: an exception
    # that survives python -O, not an assert
    monkeypatch.setattr(modsym, "primefactors", lambda N: [])
    with pytest.raises(ArithmeticError, match="level 11"):
        genus_x0(11)


def test_cuspidal_dimension_matches_genus():
    for N in (11, 14, 15, 22, 37, 50):
        p = next(q for q in (2, 3, 5, 7) if N % q)
        assert integer_hecke_matrices(N, [p])[p].shape == (genus_x0(N),) * 2


def test_hecke_agrees_with_eta_newforms():
    # genus-1 levels: T_p acts as the scalar a_p of the unique newform
    for N, factors in ETA_NEWFORMS.items():
        primes = [p for p in (2, 3, 5, 7, 11, 13) if N % p]
        mats = integer_hecke_matrices(N, primes)
        for p in primes:
            assert mats[p].tolist() == [[newform_ap(factors, p)]], (N, p)


def test_hecke_operators_commute():
    mats = integer_hecke_matrices(37, (2, 3))
    t2, t3 = sympy.Matrix(mats[2].tolist()), sympy.Matrix(mats[3].tolist())
    assert t2 * t3 == t3 * t2


def test_charpoly_level_37():
    cps = hecke_charpolys_multimodular(37, (2, 3))
    # S_2(37) has two rational newforms with a_2 = -2 and 0:
    # charpoly(T_2) = (x+2)x = x^2 + 2x
    assert cps[2].coeffs == (0, 2, 1)
    assert cps[3].coeffs == (-3, 2, 1)


def _sympy_charpoly(A):
    x = sympy.Symbol("x")
    poly = sympy.Matrix(A.tolist()).charpoly(x)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


def test_multimodular_matches_exact():
    # the CRT lift against sympy's exact charpoly of the integer matrices
    for N in (37, 67, 91, 143):
        mats = integer_hecke_matrices(N, (2, 3, 5))
        multi = hecke_charpolys_multimodular(N, (2, 3, 5))
        for p in (2, 3, 5):
            assert multi[p].coeffs == _sympy_charpoly(mats[p]), (N, p)


def test_charpoly_satisfies_eichler_shimura_bound():
    # all roots of charpoly(T_p) lie in [-2 sqrt(p), 2 sqrt(p)]
    cps = hecke_charpolys_multimodular(50, (3, 7))
    for p in (3, 7):
        x = sympy.symbols("x")
        poly = sum(c * x ** i for i, c in enumerate(cps[p].coeffs))
        for root in sympy.real_roots(poly):
            assert abs(float(root)) <= 2 * p ** 0.5 + 1e-9


def _recorded_sign_blocks(monkeypatch):
    # block sizes d_s, in sign order (+,+,...), (+,...,-), ..., per call
    sizes = []
    real = modsym._sign_blocks

    def recording(N, involutions, g):
        blocks = real(N, involutions, g)
        sizes.append([B.shape[1] for B, _ in blocks])
        return blocks

    monkeypatch.setattr(modsym, "_sign_blocks", recording)
    return sizes


def test_sign_blocks_multiply_to_sympy_charpoly(monkeypatch):
    # levels where some Q || N is a prime power: 9, 49, 25, 243, 125
    sizes = _recorded_sign_blocks(monkeypatch)
    cases = ((99, (2, 5)), (147, (2, 5)), (175, (2, 3)), (243, (2, 5)), (500, (3, 7)))
    for N, primes in cases:
        mats = integer_hecke_matrices(N, primes)
        multi = hecke_charpolys_multimodular(N, primes)
        for p in primes:
            assert multi[p].coeffs == _sympy_charpoly(mats[p]), (N, p)
        assert len(sizes[-1]) > 1 and sum(sizes[-1]) == genus_x0(N), N


def test_sign_block_dimensions_at_2233(monkeypatch):
    sizes = _recorded_sign_blocks(monkeypatch)
    ticks = []
    cps = hecke_charpolys_multimodular(2233, (2, 5), progress=lambda *t: ticks.append(t))
    assert sizes == [[29, 30, 30, 28, 31, 29, 29, 31]]
    # T_5's Deligne bound at d = 31 needs 4 moduli, plus 2 held out
    assert ticks == [(i, 6) for i in range(1, 7)]
    assert sum(sizes[0]) == genus_x0(2233) == 237
    data = Path(__file__).parents[1] / "perfbench" / "data" / "hecke_2233.json"
    reference = json.loads(data.read_text())["charpolys"]
    for p in (2, 5):
        assert cps[p].coeffs == tuple(int(c) for c in reference[str(p)])


def _projector_pivot_columns(N, primes):
    # (involutions, g, [P_s[:, pivots of the fully reduced P_s] for each
    # nonzero P_s]): the basis columns as chosen before the sketch
    basis = modsym._cuspidal_basis(N)
    matrices = modsym._hecke_matrices(N, basis, primes)
    involutions = modsym._atkin_lehner_involutions(N, basis, matrices)
    g = basis[2].shape[1]
    identity = np.eye(g, dtype=np.int64)
    columns = []
    for signs in itertools.product((1, -1), repeat=len(involutions)):
        P = identity
        for s, W in zip(signs, involutions):
            P = modsym._int_matmul(P, identity + s * W)
        cols = modsym._rref_mod(P, modsym._LIFT_PRIME)[1]
        if cols:
            columns.append(P[:, cols])
    return involutions, g, columns


def _count_rref_calls(monkeypatch):
    calls = []
    real = modsym._rref_mod

    def counting(M, q):
        calls.append(M.shape)
        return real(M, q)

    monkeypatch.setattr(modsym, "_rref_mod", counting)
    return calls


@pytest.mark.parametrize(
    "N, primes",
    [(99, (2, 5)), (147, (2, 5)), (175, (2, 3)), (243, (2, 5)), (500, (3, 7)), (2233, (2, 5))],
)
def test_sketch_pivots_match_full_projector_pivots(monkeypatch, N, primes):
    involutions, g, columns = _projector_pivot_columns(N, primes)
    calls = _count_rref_calls(monkeypatch)
    blocks = modsym._sign_blocks(N, involutions, g)
    assert len(blocks) == len(columns)
    for (B, _), expected in zip(blocks, columns):
        assert np.array_equal(B, expected), N
    # one sketch reduction per sign and one B_s^T reduction per block:
    # no projector fell back to its own reduction
    assert len(calls) == 2 ** len(involutions) + len(blocks), calls


def test_rank_deficient_sketch_falls_back_to_the_projector(monkeypatch):
    for N, primes in ((147, (2, 5)), (2233, (2, 5))):
        involutions, g, _ = _projector_pivot_columns(N, primes)
        expected = modsym._sign_blocks(N, involutions, g)
        with monkeypatch.context() as m:
            m.setattr(modsym, "_sketch", lambda rows, cols: np.zeros((rows, cols), np.int8))
            calls = _count_rref_calls(m)
            got = modsym._sign_blocks(N, involutions, g)
        # every nonzero block reduced its sketch, its P_s and its B_s^T
        assert len(calls) == 2 ** len(involutions) + 2 * len(expected), N
        assert len(got) == len(expected)
        for (B, rows), (B0, rows0) in zip(got, expected):
            assert np.array_equal(B, B0) and rows == rows0, N


def test_empty_sign_blocks_and_genus_zero(monkeypatch):
    sizes = _recorded_sign_blocks(monkeypatch)
    # level 11: W_11 has one sign space of dimension 1, the other is empty
    assert hecke_charpolys_multimodular(11, (2, 3))[2].coeffs == (2, 1)
    assert sizes == [[1]]
    for N in (1, 2, 3, 10, 13, 25):
        p = next(q for q in (2, 3, 5, 7) if N % q)
        assert hecke_charpolys_multimodular(N, (p,))[p].coeffs == (1,), N
        assert sizes[-1] == [], N


def test_corrupted_atkin_lehner_raises(monkeypatch):
    real = modsym._cuspidal_matrix

    def corrupted(N, basis, paths, name):
        A = real(N, basis, paths, name)
        if name.startswith("W_"):
            A[0, 0] += 1
        return A

    monkeypatch.setattr(modsym, "_cuspidal_matrix", corrupted)
    with pytest.raises(ArithmeticError, match="W_.* at level 37"):
        hecke_charpolys_multimodular(37, (2,))


def test_atkin_lehner_commutes_with_hecke_check(monkeypatch):
    # a W_Q that is an involution but does not commute with T_2
    real = modsym._cuspidal_matrix

    def swapped(N, basis, paths, name):
        A = real(N, basis, paths, name)
        if name.startswith("W_"):
            return -A[::-1, ::-1].copy()
        return A

    monkeypatch.setattr(modsym, "_cuspidal_matrix", swapped)
    with pytest.raises(ArithmeticError, match="does not commute with T_2"):
        hecke_charpolys_multimodular(67, (2,))


def test_singular_modulus_is_skipped(monkeypatch):
    # the B_s[rows_s] have determinants that are powers of 2, so no
    # block solve works mod 2; that modulus must give no residue
    expected = hecke_charpolys_multimodular(143, (2, 3))
    real_moduli = modsym._crt_moduli
    real_charpoly = modsym._charpoly_hessenberg_mod
    used, ticks = [], []

    def recording(A, q):
        used.append(q)
        return real_charpoly(A, q)

    def small_first(g):
        return itertools.chain([2, 3], real_moduli(g))

    monkeypatch.setattr(modsym, "_crt_moduli", small_first)
    monkeypatch.setattr(modsym, "_charpoly_hessenberg_mod", recording)
    got = hecke_charpolys_multimodular(143, (2, 3), progress=lambda *t: ticks.append(t))
    assert got == expected
    assert 2 not in used and 3 in used
    assert ticks[-1][0] == ticks[-1][1] == len(ticks)


def _sympy_kernel(M):
    # sympy's nullspace basis is normalized to 1 at its free columns,
    # which is the normalization _integer_kernel promises
    return sympy.Matrix.hstack(*sympy.Matrix(M.tolist()).nullspace()).tolist()


def test_integer_kernel_matches_sympy_nullspace(monkeypatch):
    # the relation solve E and the cuspidal basis K, entry for entry,
    # against sympy's exact rational nullspace of the engine's R and B
    calls = []
    real = modsym._integer_kernel

    def recording(M, N, what):
        E, free = real(M, N, what)
        calls.append((what, M, E))
        return E, free

    monkeypatch.setattr(modsym, "_integer_kernel", recording)
    for N in (11, 37, 67, 389):
        calls.clear()
        integer_hecke_matrices(N, [])
        assert [what for what, _, _ in calls] == ["relation solve", "cuspidal basis"]
        for what, M, E in calls:
            assert E.tolist() == _sympy_kernel(M), (N, what)
        assert calls[1][2].shape[1] == genus_x0(N)


def test_integer_hecke_operators_commute_389():
    mats = integer_hecke_matrices(389, (2, 3))
    t2, t3 = mats[2], mats[3]
    assert t2.shape == (32, 32)
    assert np.array_equal(t2 @ t3, t3 @ t2)


def _assert_within_deligne_bound(p, coeffs):
    # the coefficient of x^(g-k) is +-e_k of the eigenvalues, each of
    # absolute value <= 2 sqrt(p) <= B = ceil(2 sqrt(p))
    g = len(coeffs) - 1
    B = isqrt(4 * p - 1) + 1
    for k in range(g + 1):
        assert abs(coeffs[g - k]) <= comb(g, k) * B ** k, (p, k)


def test_lifted_coefficients_within_deligne_bound():
    for N in (37, 91, 143, 389):
        for p, cp in hecke_charpolys_multimodular(N, (2, 3, 5)).items():
            _assert_within_deligne_bound(p, cp.coeffs)
    ref = resources.files("quartic_galois").joinpath("data", "hecke_6391.json")
    bundled = json.loads(ref.read_text())
    for op in bundled["operators"]:
        _assert_within_deligne_bound(op["p"], [int(c) for c in op["charpoly"]])


def test_corrupted_lift_raises(monkeypatch):
    real = modsym._rref_mod

    def corrupted(M, q):
        # one entry of a free column feeds exactly one entry of E
        rref, pivots = real(M, q)
        free = [c for c in range(M.shape[1]) if c not in pivots]
        rref[0, free[0]] += 1
        return rref, pivots

    monkeypatch.setattr(modsym, "_rref_mod", corrupted)
    with pytest.raises(ArithmeticError, match="level 37"):
        integer_hecke_matrices(37, [2])


def test_failed_crt_verification_raises(monkeypatch):
    # an ArithmeticError, which run_pipeline records as a failed step
    real = modsym._crt_lift
    monkeypatch.setattr(
        modsym, "_crt_lift", lambda res, moduli: [c + 1 for c in real(res, moduli)]
    )
    with pytest.raises(ArithmeticError, match="fails verification"):
        hecke_charpolys_multimodular(37, (2,))


def test_non_prime_p_rejected():
    # T_4 on 11a has eigenvalue a_4 = 2, but the p-coset formula gives -2
    for p in (4, 1, 0, -3):
        with pytest.raises(ValueError, match="prime"):
            hecke_charpolys_multimodular(11, [p])
        with pytest.raises(ValueError, match="prime"):
            integer_hecke_matrices(11, [p])
    with pytest.raises(ValueError, match="divides the level"):
        hecke_charpolys_multimodular(11, [11])


def test_charpoly_int64_guard():
    A = np.array([[1, 2], [3, 4]], dtype=np.int64)
    # 2 (q - 1)^2 < 2^63 just below 2^31, and not above 2^31.5
    q = sympy.prevprime(1 << 31)
    assert modsym._charpoly_hessenberg_mod(A, q).tolist() == [q - 2, q - 5, 1]
    with pytest.raises(OverflowError):
        modsym._charpoly_hessenberg_mod(A, sympy.nextprime(isqrt(1 << 63)))


def _sympy_rref_mod(M, q):
    R, pivots = DomainMatrix.from_list(M.tolist(), sympy.GF(q)).rref()
    return [[int(x) % q for x in row] for row in R.to_list()[: len(pivots)]], list(pivots)


def _rref_oracle_cases():
    rng = np.random.default_rng(12)
    for rows, cols, rank in ((9, 4, 3), (4, 11, 3), (7, 7, 5), (6, 6, 6)):
        M = rng.integers(-9, 10, (rows, rank)) @ rng.integers(-9, 10, (rank, cols))
        yield M
        Z = M.copy()
        Z[:, [0, cols // 2]] = 0
        yield Z
    yield np.zeros((3, 5), dtype=np.int64)


@pytest.mark.parametrize("q", [7, 101, modsym._LIFT_PRIME])
def test_rref_mod_matches_sympy_rref(q):
    # tall, wide and square matrices of deficient rank and one of full
    # rank, each with and without zero columns, and the zero matrix
    for M in _rref_oracle_cases():
        R, pivots = modsym._rref_mod(M, q)
        assert (R.tolist(), pivots) == _sympy_rref_mod(M, q), (M.tolist(), q)


def test_rref_int64_guard():
    # (q - 1)^2 < 2^63 just below isqrt(2^63) + 1, and not above it
    bound = isqrt(1 << 63) + 1
    ok, bad = sympy.prevprime(bound), sympy.nextprime(bound)
    M = np.array([[ok - 1, ok - 2, 3], [ok - 3, 5, ok - 1], [2, ok - 1, ok - 4]])
    R, pivots = modsym._rref_mod(M, ok)
    assert (R.tolist(), pivots) == _sympy_rref_mod(M, ok)
    with pytest.raises(OverflowError):
        modsym._rref_mod(M, bad)


def test_crt_moduli_fit_int64():
    # levels up to genus 2048 keep the 26-bit moduli; larger ones shrink
    for g in (237, 669, 2048):
        assert next(modsym._crt_moduli(g)) == (1 << 26) - 5
    for g in (2049, 100000):
        q = next(modsym._crt_moduli(g))
        assert q < 1 << 26 and g * (q - 1) ** 2 < 1 << 63


def test_integer_product_guard():
    # exact up to the float64 limit: 2 * (2^26 - 1) * (2^26 - 1) < 2^53
    X = np.array([[(1 << 26) - 1, (1 << 26) - 1]], dtype=np.int64)
    Y = np.array([[(1 << 26) - 1], [-((1 << 26) - 3)]], dtype=np.int64)
    assert modsym._int_matmul(X, Y).tolist() == [[2 * ((1 << 26) - 1)]]
    with pytest.raises(OverflowError):
        modsym._int_matmul(X, Y + 2 ** 26)


def test_xgcd_matches_sympy_gcdex():
    for N in (91, 143, 210):
        for c, d in p1_list(N):
            if c > 0 and d > 0:
                x, y, g = sympy.gcdex(c, d)
                assert modsym._xgcd(c, d) == (g, x, y)


def test_skeleton_unchanged_at_2233():
    # fingerprint of the symbolic skeleton and of the T_5 paths as built
    # with sympy's mod_inverse and gcdex
    sk = modsym.skeleton(2233)
    fields = (sk.symbols, sk.cls, sk.sgn, sk.class_rep, sk.rows, sk.cusp_reps, sk.boundary)
    paths = [modsym._hecke_paths(2233, 5, r) for r in sk.class_rep]
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == (
        "ea9d31d82e053f910411e6206ee1536f582d2969983e2b3ffd248856093357bf"
    )
    assert hashlib.sha256(repr(paths).encode()).hexdigest() == (
        "61da035b8ed2fefccca97e4e4b9c29f64311214efdf6662e7cbe9b9d2606b55f"
    )
