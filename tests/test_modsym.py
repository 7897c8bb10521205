import collections
import hashlib
import itertools
import json
import random
from importlib import resources
from pathlib import Path
from math import comb, gcd, isqrt, prod

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from oracles import (
    ETA_NEWFORMS,
    coeff_bound,
    coset_hecke_matrix,
    coset_hecke_paths,
    dense,
    integer_hecke_matrices,
    newform_ap,
    p1_list,
    p1_normalize,
    scan_cusp_classes,
    union_find_sign_classes,
)
from quartic_galois import modsym
from quartic_galois.modsym import genus_x0, hecke_charpolys_multimodular

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
        assert len(modsym._P1(N).symbols) == psi


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

    def recording(N, involutions, matrices, g):
        blocks = real(N, involutions, matrices, g)
        sizes.append([system.shape[0] for system, _ in blocks])
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
    # with moduli just above 2^29 (the largest primes below
    # isqrt(2^63 / 31)), T_5's trace bound at d = 31 (under 2^54) needs
    # 2 lifting moduli, plus 2 held out
    assert ticks == [(i, 4) for i in range(1, 5)]
    assert sum(sizes[0]) == genus_x0(2233) == 237
    data = Path(__file__).parents[1] / "perfbench" / "data" / "hecke_2233.json"
    reference = json.loads(data.read_text())["charpolys"]
    for p in (2, 5):
        assert cps[p].coeffs == tuple(int(c) for c in reference[str(p)])


def _operators(N, primes):
    # (involutions, matrices, g), as hecke_charpolys_multimodular builds them
    basis = modsym._cuspidal_basis(N)
    matrices = modsym._hecke_matrices(N, basis, primes)
    return modsym._atkin_lehner_involutions(N, basis, matrices), matrices, len(basis.free_b)


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
def test_one_reduction_per_sign_block(monkeypatch, N, primes):
    # one d x d reduction of L_s B_s per block; the g x g projector is
    # reduced only after a singular L_s B_s, which some blocks of size
    # 1 to 4 at levels 99, 147 and 175 meet, and no block at 243, 500
    # or 2233
    involutions, matrices, g = _operators(N, primes)
    calls = _count_rref_calls(monkeypatch)
    blocks = modsym._sign_blocks(N, involutions, matrices, g)
    sizes = [system.shape[0] for system, _ in blocks]
    assert [shape for shape in calls if shape != (g, g)] == [(d, d) for d in sizes], N
    assert calls.count((g, g)) == {99: 2, 147: 2, 175: 1}.get(N, 0), N
    for system, _ in blocks:
        d = system.shape[0]
        assert system.shape == (d, (1 + len(primes)) * d)


def test_rank_deficient_sketch_falls_back_to_the_projector(monkeypatch):
    for N, primes in ((147, (2, 5)), (2233, (2, 5))):
        involutions, matrices, g = _operators(N, primes)
        expected = hecke_charpolys_multimodular(N, primes)
        with monkeypatch.context() as m:
            m.setattr(modsym, "_sketch", lambda rows, cols: np.zeros((rows, cols), np.int8))
            calls = _count_rref_calls(m)
            blocks = modsym._sign_blocks(N, involutions, matrices, g)
            # L_s B_s = 0 has rank 0, so every block reduces its P_s
            sizes = [system.shape[0] for system, _ in blocks]
            assert calls == [shape for d in sizes for shape in ((d, d), (g, g))], N
            assert sum(sizes) == g
            # the charpolys are the same, from B_s^T B_s instead of L_s B_s
            assert hecke_charpolys_multimodular(N, primes) == expected, N


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

    def corrupted(N, basis, image, name):
        A = real(N, basis, image, name)
        if name.startswith("W_"):
            A[0, 0] += 1
        return A

    monkeypatch.setattr(modsym, "_cuspidal_matrix", corrupted)
    with pytest.raises(ArithmeticError, match="W_.* at level 37"):
        hecke_charpolys_multimodular(37, (2,))


def test_atkin_lehner_commutes_with_hecke_check(monkeypatch):
    # a W_Q that is an involution but does not commute with T_2
    real = modsym._cuspidal_matrix

    def swapped(N, basis, image, name):
        A = real(N, basis, image, name)
        if name.startswith("W_"):
            return -A[::-1, ::-1].copy()
        return A

    monkeypatch.setattr(modsym, "_cuspidal_matrix", swapped)
    with pytest.raises(ArithmeticError, match="does not commute with T_2"):
        hecke_charpolys_multimodular(67, (2,))


def test_unstable_image_raises(monkeypatch):
    # T_2's image at level 143 with its second term dropped no longer
    # preserves the cuspidal subspace, so K A = M must fail
    real = modsym._hecke_image

    def dropped(N, free, p):
        k, j, s = real(N, free, p)
        return np.delete(k, 1), np.delete(j, 1), np.delete(s, 1)

    monkeypatch.setattr(modsym, "_hecke_image", dropped)
    with pytest.raises(ArithmeticError, match="not T_2-stable at level 143"):
        integer_hecke_matrices(143, [2])


def test_singular_modulus_is_skipped(monkeypatch):
    # a prime dividing det(L_s B_s) of some block leaves that block's
    # solve singular, so that modulus must give no residue; a prime
    # dividing none of them is used
    expected = hecke_charpolys_multimodular(143, (2, 3))
    involutions, matrices, g = _operators(143, (2, 3))
    dets = [
        int(sympy.Matrix(system[:, : system.shape[0]].tolist()).det())
        for system, _ in modsym._sign_blocks(143, involutions, matrices, g)
    ]
    singular = max(q for det in dets for q in sympy.primefactors(det))
    regular = next(q for q in sympy.primerange(2, 100) if all(det % q for det in dets))
    real_moduli = modsym._crt_moduli
    real_charpolys = modsym._charpolys_hessenberg_mod
    used, ticks = [], []

    def recording(stack, sizes, q):
        used.append(q)
        return real_charpolys(stack, sizes, q)

    def small_first(D):
        return itertools.chain([singular, regular], real_moduli(D))

    monkeypatch.setattr(modsym, "_crt_moduli", small_first)
    monkeypatch.setattr(modsym, "_charpolys_hessenberg_mod", recording)
    got = hecke_charpolys_multimodular(143, (2, 3), progress=lambda *t: ticks.append(t))
    assert got == expected
    assert singular not in used and regular in used
    assert ticks[-1][0] == ticks[-1][1] == len(ticks)


@pytest.mark.parametrize("N, primes", [(99, (2, 5)), (143, (2, 3)), (389, (2, 3))])
def test_block_power_sums_match_sympy_charpoly(N, primes):
    # s_2 of each block is tr(X_p^2) for X_p = (L B)^-1 (L T_p B) over Q,
    # and the blocks' s_2 add up to e_1^2 - 2 e_2 of sympy's charpoly of T_p
    involutions, matrices, g = _operators(N, primes)
    blocks = modsym._sign_blocks(N, involutions, matrices, g)
    for k, p in enumerate(primes, 1):
        for system, s2 in blocks:
            d = system.shape[0]
            LB = sympy.Matrix(system[:, :d].tolist())
            X = LB.LUsolve(sympy.Matrix(system[:, k * d : (k + 1) * d].tolist()))
            assert (X * X).trace() == s2[p], (N, p)
        c = _sympy_charpoly(matrices[p])
        assert sum(s2[p] for _, s2 in blocks) == c[g - 1] ** 2 - 2 * c[g - 2], (N, p)


@pytest.mark.parametrize(
    "corrupt, needle",
    [
        (lambda s2, p, d: s2 + 2, "e_1\\^2 - 2 e_2 != tr"),
        (lambda s2, p, d: -1, "outside \\[0, "),
        (lambda s2, p, d: 4 * p * d + 1, "outside \\[0, "),
    ],
)
def test_corrupted_power_sum_raises(monkeypatch, corrupt, needle):
    # s_2 of the first block's T_3, too large by 2 (the lift is still
    # right, so the e_1^2 - 2 e_2 check fails) or outside [0, 4 p d]
    real = modsym._sign_blocks

    def corrupted(N, involutions, matrices, g):
        blocks = real(N, involutions, matrices, g)
        system, s2 = blocks[0]
        blocks[0] = system, {**s2, 3: corrupt(s2[3], 3, system.shape[0])}
        return blocks

    monkeypatch.setattr(modsym, "_sign_blocks", corrupted)
    with pytest.raises(ArithmeticError, match=needle):
        hecke_charpolys_multimodular(143, (2, 3))


def test_trace_bound_against_brute_force():
    # the least integer >= C(d, k) (s2 / d)^(k/2) for every k, against
    # sympy's exact ceiling, and every coefficient of a polynomial with
    # integer roots lies within it
    rng = random.Random(26)
    for _ in range(100):
        d = rng.randint(1, 10)
        roots = [rng.randint(-7, 7) for _ in range(d)]
        s2 = sum(a * a for a in roots)
        bound = modsym._trace_bound(d, s2)
        ratio = sympy.sqrt(sympy.Rational(s2, d))
        assert bound == max(int(sympy.ceiling(comb(d, k) * ratio ** k)) for k in range(d + 1))
        poly = sympy.Poly(prod(sympy.Symbol("x") - a for a in roots), sympy.Symbol("x"))
        assert max(abs(int(c)) for c in poly.all_coeffs()) <= bound, roots
    # all roots equal in absolute value: Maclaurin and the power means
    # are equalities, so the bound is attained
    assert modsym._trace_bound(6, 6 * 9) == max(comb(6, k) * 3 ** k for k in range(7))
    assert modsym._trace_bound(1, 0) == 1 and modsym._trace_bound(5, 0) == 1


def test_trace_bound_never_above_deligne_bound():
    # s2 <= 4 p d gives s2 / d <= 4 p <= ceil(2 sqrt(p))^2; the top of
    # the range, where the bound is largest, at every block size of 6391
    for p in (2, 3, 5, 7):
        ceil_2_sqrt_p = isqrt(4 * p - 1) + 1
        for d in (1, 2, 3, 5, 8, 13, 31, 74, 94):
            deligne = coeff_bound(d, ceil_2_sqrt_p)
            for s2 in range(max(4 * p * d - 100, 0), 4 * p * d + 1):
                assert modsym._trace_bound(d, s2) <= deligne, (p, d, s2)


def _sympy_kernel(M):
    # sympy's nullspace basis is normalized to 1 at its free columns,
    # which is the normalization _integer_kernel promises
    return sympy.Matrix.hstack(*sympy.Matrix(M.tolist()).nullspace()).tolist()


def test_integer_kernel_matches_sympy_nullspace(monkeypatch):
    # the relation solve E and the cuspidal basis K, entry for entry,
    # against sympy's exact rational nullspace of the engine's R and B
    calls = []
    real = modsym._integer_kernel

    def recording(rows, n, N, what):
        E, free = real(rows, n, N, what)
        calls.append((what, _dense(rows, n), dense(E, len(free))))
        return E, free

    monkeypatch.setattr(modsym, "_integer_kernel", recording)
    for N in (11, 37, 67, 389):
        calls.clear()
        integer_hecke_matrices(N, [])
        assert [what for what, _, _ in calls] == ["relation solve", "cuspidal basis"]
        for what, M, E in calls:
            assert E.tolist() == _sympy_kernel(M), (N, what)
        assert calls[1][2].shape[1] == genus_x0(N)


def _dense(rows, n):
    M = np.zeros((len(rows), n), dtype=np.int64)
    for i, row in enumerate(rows):
        for k, v in row:
            M[i, k] += v
    return M


def _dense_kernel_lift(M):
    # the dense route: _rref_mod of the whole matrix and the same lift
    q = modsym._LIFT_PRIME
    n = M.shape[1]
    rref, pivots = modsym._rref_mod(M, q)
    free = [c for c in range(n) if c not in pivots]
    E = np.zeros((n, len(free)), dtype=np.int64)
    E[free, np.arange(len(free))] = 1
    E[pivots] = -rref[:, free] % q
    E[E > q // 2] -= q
    return E, free


def _recorded_kernel_inputs(monkeypatch, N):
    # [(what, rows, n)] for each _integer_kernel call of _cuspidal_basis
    calls = []
    real = modsym._integer_kernel

    def recording(rows, n, N, what):
        calls.append((what, rows, n))
        return real(rows, n, N, what)

    with monkeypatch.context() as m:
        m.setattr(modsym, "_integer_kernel", recording)
        modsym._cuspidal_basis(N)
    return calls


@pytest.mark.parametrize("N", [2233, 6391])
def test_sparse_kernel_matches_dense_route(monkeypatch, N):
    calls = _recorded_kernel_inputs(monkeypatch, N)
    assert [what for what, _, _ in calls] == ["relation solve", "cuspidal basis"]
    for what, rows, n in calls:
        E, free = modsym._integer_kernel(rows, n, N, what)
        E0, free0 = _dense_kernel_lift(_dense(rows, n))
        assert free == free0 and np.array_equal(dense(E, len(free)), E0), (N, what)


def _random_sparse_matrices():
    # M = A [I_r | C] with its columns shuffled: the kernel is integral
    # when A has rank r; zero and duplicate rows are spliced in
    rng = random.Random(22)
    for _ in range(50):
        n = rng.randint(1, 12)
        r = rng.randint(0, n)
        order = rng.sample(range(n), n)
        basis = np.zeros((r, n), dtype=np.int64)
        for i in range(r):
            basis[i, order[i]] = 1
            for c in order[r:]:
                basis[i, c] = rng.choice((0, 0, 0, 1, -1, 2, -3))
        m = rng.randint(0, r + 3)
        A = np.array([rng.choice((0, 0, 1, -1, 2)) for _ in range(m * r)], dtype=np.int64)
        M = A.reshape(m, r) @ basis
        rows = [[(c, int(v)) for c, v in enumerate(row) if v] for row in M]
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randint(0, len(rows)), [])
        if rows and rng.random() < 0.5:
            rows.append(list(rows[rng.randrange(len(rows))]))
        for row in rows:
            rng.shuffle(row)
        yield rows, n


def test_sparse_kernel_matches_dense_route_on_random_matrices():
    kinds = collections.Counter()
    for rows, n in _random_sparse_matrices():
        M = _dense(rows, n)
        for q in (7, modsym._LIFT_PRIME):
            rref, pivots = modsym._sparse_rref_mod(rows, n, q)
            R0, pivots0 = modsym._rref_mod(M, q)
            assert pivots == pivots0 and _dense([r.items() for r in rref], n).tolist() == R0.tolist()
        E0, free0 = _dense_kernel_lift(M)
        exact = not (M @ E0).any()
        if exact:
            E, free = modsym._integer_kernel(rows, n, 0, "random matrix")
            assert free == free0 and np.array_equal(dense(E, len(free)), E0)
        else:
            with pytest.raises(ArithmeticError, match="not exact"):
                modsym._integer_kernel(rows, n, 0, "random matrix")
        product = modsym._sparse_matmul(modsym._coo(rows), modsym._csr(E0), (len(rows), E0.shape[1]))
        assert np.array_equal(product, M @ E0)
        rank = len(pivots)
        kinds["full rank" if rank == min(M.shape) else "rank deficient"] += 1
        kinds["exact" if exact else "inexact"] += 1
        kinds["zero row"] += any(not row for row in rows)
        nonzero = [tuple(row) for row in M.tolist() if any(row)]
        kinds["duplicate row"] += len(set(nonzero)) < len(nonzero)
    assert all(kinds[k] >= 5 for k in ("full rank", "rank deficient", "exact", "inexact", "zero row", "duplicate row")), kinds


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
    real = modsym._sparse_rref_mod

    def corrupted(rows, n, q):
        # one entry of a free column feeds exactly one entry of E
        rref, pivots = real(rows, n, q)
        free = [c for c in range(n) if c not in pivots]
        rref[0][free[0]] = (rref[0].get(free[0], 0) + 1) % q
        return rref, pivots

    monkeypatch.setattr(modsym, "_sparse_rref_mod", corrupted)
    with pytest.raises(ArithmeticError, match="at level 37 is not exact"):
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
    A = np.array([[[1, 2], [3, 4]]], dtype=np.int64)
    # 2 (q - 1)^2 < 2^63 just below 2^31, and not above 2^31.5
    q = sympy.prevprime(1 << 31)
    assert modsym._charpolys_hessenberg_mod(A, [2], q)[0].tolist() == [q - 2, q - 5, 1]
    with pytest.raises(OverflowError):
        modsym._charpolys_hessenberg_mod(A, [2], sympy.nextprime(isqrt(1 << 63)))
    # the guard is on the padded size: 3 (q - 1)^2 >= 2^63
    padded = np.zeros((1, 3, 3), dtype=np.int64)
    padded[0, :2, :2] = A[0]
    with pytest.raises(OverflowError, match="3 x 3"):
        modsym._charpolys_hessenberg_mod(padded, [2], q)


def _padded_stacks():
    # seeded stacks of mixed sizes, each block zero-padded to the largest
    rng = np.random.default_rng(22)
    for q in (7, 101, modsym._LIFT_PRIME):
        for sizes in ([3, 1, 5, 5, 2], [0, 4, 6], [1], [7, 7, 3, 6]):
            D = max(sizes)
            blocks = [rng.integers(-20, 21, (d, d)) for d in sizes]
            if D >= 3:
                # no nonzero below the diagonal of column 0, and one
                # below the subdiagonal of column 1 only
                blocks[sizes.index(D)][1:, 0] = 0
                blocks[sizes.index(D)][2, 1], blocks[sizes.index(D)][-1, 1] = 0, 5
            stack = np.zeros((len(sizes), D, D), dtype=np.int64)
            for t, X in enumerate(blocks):
                stack[t, : sizes[t], : sizes[t]] = X
            yield q, sizes, blocks, stack


def test_batched_charpoly_matches_sympy():
    for q, sizes, blocks, stack in _padded_stacks():
        got = modsym._charpolys_hessenberg_mod(stack, sizes, q)
        assert len(got) == len(blocks)
        for X, cp in zip(blocks, got):
            want = [c % q for c in _sympy_charpoly(X)] if X.size else [1]
            assert cp.tolist() == want, (q, X.tolist())


def test_batched_charpoly_refuses_a_nonzero_padded_prefix():
    # diag(X, 1) has charpoly (x - 1) chi(X), whose constant term is
    # -det X != 0, not x chi(X)
    stack = np.zeros((2, 3, 3), dtype=np.int64)
    stack[0, :2, :2] = [[1, 2], [3, 4]]
    stack[0, 2, 2] = 1
    stack[1] = [[1, 0, 2], [0, 3, 0], [1, 1, 1]]
    with pytest.raises(ArithmeticError, match="not divisible by x\\^1"):
        modsym._charpolys_hessenberg_mod(stack, [2, 3], 101)


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


def _crt_lift_per_coefficient(residue_arrays, moduli):
    # the earlier lift, with one modular inverse per coefficient and modulus
    M = prod(moduli)
    out = []
    for k in range(len(residue_arrays[0])):
        acc = 0
        for arr, q in zip(residue_arrays, moduli):
            Mq = M // q
            acc = (acc + int(arr[k]) * Mq * pow(Mq % q, -1, q)) % M
        if acc > M // 2:
            acc -= M
        out.append(acc)
    return out


def test_crt_lift_matches_per_coefficient_formula():
    rng = random.Random(22)
    candidates = modsym._crt_moduli(237)
    for count in (1, 2, 5, 9):
        moduli = [next(candidates) for _ in range(count)]
        M = prod(moduli)
        # half of the values from the negative half of the symmetric range
        values = [rng.randrange(-(M // 2), M // 2 + 1) for _ in range(12)] + [-1, 0, 1]
        values += [-rng.randrange(M // 2) for _ in range(12)]
        residues = [np.array([v % q for v in values], dtype=np.int64) for q in moduli]
        assert modsym._crt_lift(residues, moduli) == values
        assert modsym._crt_lift(residues, moduli) == _crt_lift_per_coefficient(residues, moduli)


def test_crt_moduli_fit_int64():
    # the largest primes below isqrt((2^63 - 1) // D), for which the
    # batched charpoly of D x D blocks fits int64, and nothing between
    for D in (1, 31, 94, 237, 669, 2048, 100000):
        cap = isqrt(((1 << 63) - 1) // D)
        moduli = list(itertools.islice(modsym._crt_moduli(D), 3))
        assert moduli == [sympy.prevprime(cap)] + [sympy.prevprime(q) for q in moduli[:2]], D
        for q in moduli:
            assert D * (q - 1) ** 2 < 1 << 63 and (q - 1) ** 2 < 1 << 63
    # level 6391 (largest block 94) gets moduli above 2^28, level 2233 (31) above 2^29
    assert next(modsym._crt_moduli(94)) > 1 << 28
    assert next(modsym._crt_moduli(31)) > 1 << 29


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
    # fingerprint of the symbolic skeleton and of the coset T_5 paths as
    # built with sympy's mod_inverse and gcdex
    sk = modsym.skeleton(2233)
    cls, sgn = sk.cls_of[:-1].tolist(), sk.sgn_of[:-1].tolist()
    fields = (sk.symbols, cls, sgn, sk.class_rep, sk.rows, sk.cusp_reps, sk.boundary)
    paths = [coset_hecke_paths(2233, 5, r) for r in sk.class_rep]
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == (
        "ea9d31d82e053f910411e6206ee1536f582d2969983e2b3ffd248856093357bf"
    )
    assert hashlib.sha256(repr(paths).encode()).hexdigest() == (
        "61da035b8ed2fefccca97e4e4b9c29f64311214efdf6662e7cbe9b9d2606b55f"
    )


P1_LEVELS = (1, 2, 8, 9, 12, 27, 32, 36, 49, 100, 121, 125, 143, 210, 243)
MEREL_LEVELS = (11, 27, 32, 37, 49, 67, 100, 121, 125, 143, 210, 243, 389, 1001, 2233)


def _index_agrees_with_normalize(N, c, d):
    p1 = modsym._P1(N)
    got = p1(np.array(c), np.array(d)).tolist()
    want = [p1_normalize(N, x, y) for x, y in zip(c, d)]
    assert [p1.symbols[i] if i >= 0 else None for i in got] == want, N
    return got


def test_p1_index_matches_normalize_on_every_pair():
    for N in P1_LEVELS:
        c, d = zip(*itertools.product(range(-N, 2 * N), repeat=2))
        got = _index_agrees_with_normalize(N, c, d)
        assert -1 in got or N == 1, N


def test_p1_index_matches_normalize_on_random_pairs():
    rng = random.Random(2233)
    for N in (2233, 6391):
        c = [rng.randrange(-N * N, N * N) for _ in range(20000)]
        # a third of the pairs share a factor with N
        d = [rng.randrange(-N * N, N * N) * (1 if i % 3 else 7) for i in range(20000)]
        got = _index_agrees_with_normalize(N, c, d)
        assert got.count(-1) > 1000, N


def test_p1_list_matches_oracle():
    for N in range(1, 301):
        assert modsym._P1(N).symbols == p1_list(N), N


def test_sign_classes_match_union_find():
    for N in itertools.chain(range(1, 121), (143, 210, 243, 389)):
        sk = modsym.skeleton(N)
        cls, sgn = sk.cls_of[:-1].tolist(), sk.sgn_of[:-1].tolist()
        assert (cls, sgn, sk.class_rep) == union_find_sign_classes(N), N


def test_cusp_keys_match_pairwise_equivalence():
    for N in itertools.chain(range(1, 201), (243, 256, 389, 720, 1001, 2310)):
        sk = modsym.skeleton(N)
        assert (sk.cusp_reps, sk.boundary) == scan_cusp_classes(N), N


def test_merel_hecke_matches_coset_oracle():
    for N in MEREL_LEVELS:
        primes = [p for p in (2, 3, 5, 7, 13) if N % p]
        mats = integer_hecke_matrices(N, primes)
        for p in primes:
            assert np.array_equal(mats[p], coset_hecke_matrix(N, p)), (N, p)


def test_merel_set_sizes():
    assert len(modsym._merel_set(2)) == 4
    assert len(modsym._merel_set(5)) == 15
    for p in (2, 3, 5, 7, 13):
        for a, b, c, d in modsym._merel_set(p):
            assert a * d - b * c == p and a > b >= 0 and d > c >= 0


def test_p1_index_refuses_large_levels(monkeypatch):
    # refused before any table (or any numpy call) is made
    monkeypatch.setattr(modsym, "np", None)
    for N in (1 << 31, 1 << 40):
        with pytest.raises(OverflowError, match="P\\^1"):
            modsym._P1(N)


def test_sparse_assembly_product_guard():
    # the bound is the largest row's sum |L[i]| times max|R|
    left = (np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([1 << 61, 1 << 61, 3]))
    one = (np.array([0, 1, 2]), np.array([0, 0]), np.array([1, 1]))
    got = modsym._sparse_matmul(left, one, (2, 1))
    assert got.tolist() == [[1 << 62], [3]]
    two = (one[0], one[1], np.array([1, 2]))
    with pytest.raises(OverflowError):
        modsym._sparse_matmul(left, two, (2, 1))


def test_sparse_matmul_matches_dense_product():
    rng = np.random.default_rng(5)
    for _ in range(20):
        L = rng.integers(-3, 4, (7, 9)) * (rng.random((7, 9)) < 0.3)
        R = rng.integers(-3, 4, (9, 5)) * (rng.random((9, 5)) < 0.4)
        i, k = np.nonzero(L)
        # split every entry in two to check that repeated places add up
        left = (np.repeat(i, 2), np.repeat(k, 2), np.repeat(L[i, k], 2) - np.tile([0, 1], len(i)) * np.repeat(L[i, k], 2))
        assert np.array_equal(modsym._sparse_matmul(left, modsym._csr(R), (7, 5)), L @ R)
    # rows of very unequal length, empty ones included, on both sides
    L = np.zeros((6, 9), dtype=np.int64)
    L[0] = rng.integers(-3, 4, 9)
    L[2, 4], L[5, :7] = -2, rng.integers(1, 4, 7)
    R = np.zeros((9, 5), dtype=np.int64)
    R[1] = rng.integers(-3, 4, 5)
    R[4, 0], R[6, 1:] = 3, rng.integers(-3, 4, 4)
    i, k = np.nonzero(L)
    assert np.array_equal(modsym._sparse_matmul((i, k, L[i, k]), modsym._csr(R), (6, 5)), L @ R)


def test_exact_operands_keep_the_product_guard():
    # converted once, the operands still refuse a bound of 2^53
    X = np.array([[(1 << 26) - 1, (1 << 26) - 1]], dtype=np.int64)
    Y = np.array([[(1 << 26) - 1], [-((1 << 26) - 3)]], dtype=np.int64)
    Xe, Ye = modsym._exact(X), modsym._exact(Y)
    assert modsym._exact(Xe) is Xe
    for a, b in ((Xe, Ye), (X, Ye), (Xe, Y)):
        assert modsym._int_matmul(a, b).tolist() == [[2 * ((1 << 26) - 1)]]
    with pytest.raises(OverflowError):
        modsym._int_matmul(Xe, modsym._exact(Y + 2 ** 26))


def test_int_matmul_float32_boundary():
    # max|X| max|Y| inner = (2^12 - 1)(2^12 + 1) = 2^24 - 1 runs in
    # float32; (2^12 + 1)^2 = 2^24 + 8193 runs in float64, where float32
    # would round that odd product
    below = (np.array([[4095]]), np.array([[4097]]))
    above = (np.array([[4097]]), np.array([[4097]]))
    for (X, Y), dtype in ((below, np.float32), (above, np.float64)):
        Xe, Ye = modsym._exact(X), modsym._exact(Y)
        assert np.array_equal(modsym._int_matmul(Xe, Ye), X @ Y)
        assert list(Xe.floats) == list(Ye.floats) == [dtype]
    X, Y = above
    assert (X.astype(np.float32) @ Y.astype(np.float32)).item() != (X @ Y).item()
    # seeded products on both sides of the boundary, against int64 @
    rng = np.random.default_rng(26)
    for _ in range(40):
        inner = int(rng.integers(1, 60))
        a, b = (int(rng.integers(1, 1 << 14)) for _ in range(2))
        X = rng.integers(-a, a + 1, (5, inner))
        Y = rng.integers(-b, b + 1, (inner, 4))
        assert np.array_equal(modsym._int_matmul(X, Y), X @ Y)


def test_exact_converts_once_per_dtype():
    X = np.array([[1, -2], [3, 4]], dtype=np.int64)
    Xe = modsym._exact(X)
    small, large = np.eye(2, dtype=np.int64), np.full((2, 2), 1 << 23, dtype=np.int64)
    modsym._int_matmul(Xe, small)
    first = Xe.floats[np.float32]
    modsym._int_matmul(small, Xe)
    assert Xe.floats[np.float32] is first and list(Xe.floats) == [np.float32]
    assert np.array_equal(modsym._int_matmul(Xe, large), X @ large)
    assert list(Xe.floats) == [np.float32, np.float64]
