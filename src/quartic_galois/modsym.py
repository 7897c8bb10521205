"""Weight-2 modular symbols for Gamma_0(N), plus-quotient.

The space is presented by Manin symbols (c:d) over P^1(Z/N), subject to
the 2-term relation x + xS = 0, the 3-term relation x + xT + xT^2 = 0
(S = [[0,-1],[1,0]], T = [[0,-1],[1,-1]]), and the star identification
x = x.eta with eta = [[-1,0],[0,1]].  The involution relations are pure
sign bookkeeping (union-find); the 3-term relations are a sparse linear
system whose cokernel is the plus-quotient, of dimension
genus + (star-merged cusps) - 1.  The cuspidal subspace is the kernel
of the boundary map to star-merged cusp classes, of dimension equal to
the genus of X_0(N).

Hecke operators T_p (p not dividing N) act through the degeneracy coset
family [[1,k],[0,p]] (k = 0..p-1) and [[p,0],[0,1]], with each image
path {alpha, beta} re-expressed in Manin symbols by the
continued-fraction convergents of its endpoints (Manin's trick); the
path decomposition is integral and field-independent, so it is computed
once and reused by the integer matrices and the exact oracle below.

The cuspidal matrix of each T_p is integral in the basis of free
classes, so it is built once over Z: the relation solve and the
cuspidal basis are row-reduced modulo one 26-bit prime, lifted to the
symmetric range and proved exact over Z.  Each CRT modulus then only
reduces those matrices and computes their characteristic polynomials;
the lift uses the coefficient bound from Deligne's |a_p| <= 2 sqrt(p)
and is re-verified against held-out moduli.  An exact Fraction
implementation (``cuspidal_space``, ``hecke_matrix``,
``hecke_charpoly``) is kept as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import sympy

from .polys import IntPoly

# ---------------------------------------------------------------------------
# genus of X_0(N)


def genus_x0(N: int) -> int:
    """1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2 for Gamma_0(N)."""
    if N < 1:
        raise ValueError("level must be >= 1")
    ps = sympy.primefactors(N)
    mu = N
    for p in ps:
        mu = mu // p * (p + 1)
    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in ps:
            nu2 *= 1 if p == 2 else (2 if p % 4 == 1 else 0)
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in ps:
            nu3 *= 1 if p == 3 else (2 if p % 3 == 1 else 0)
    nu_inf = sum(
        sympy.totient(gcd(d, N // d)) for d in sympy.divisors(N)
    )
    g = Fraction(12 + mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(
        nu_inf, 2
    )
    assert g.denominator == 1
    return int(g)


# ---------------------------------------------------------------------------
# P^1(Z/N)


def p1_normalize(N: int, c: int, d: int) -> Optional[Tuple[int, int]]:
    """Canonical representative of (c:d) in P^1(Z/N), or None if the
    pair is not a projective point (gcd(c, d, N) > 1)."""
    if N == 1:
        return (0, 0)
    c %= N
    d %= N
    if gcd(gcd(c, d), N) != 1:
        return None
    if c == 0:
        return (0, 1)
    g = gcd(c, N)
    # scale c to g: s*c = g (mod N) for some unit s
    s = pow(c // g, -1, N // g)
    # any lift of s coprime to N works; adjust modulo N/g
    step = N // g
    while gcd(s, N) != 1:
        s += step
    d1 = s * d % N
    if g == 1:
        return (1, d1)
    # remaining freedom: units t = 1 (mod N/g) act by d1 -> t*d1
    best = d1
    for k in range(1, g):
        t = 1 + k * step
        if gcd(t, N) != 1:
            continue
        cand = t * d1 % N
        if cand < best:
            best = cand
    return (g, best)


def p1_list(N: int) -> List[Tuple[int, int]]:
    """All canonical representatives of P^1(Z/N), sorted."""
    if N == 1:
        return [(0, 0)]
    out = {(0, 1)}
    for d in range(N):
        out.add((1, d))
    for g in sympy.divisors(N):
        if g in (1, N):
            continue
        for d in range(N):
            if gcd(gcd(g, d), N) == 1:
                out.add(p1_normalize(N, g, d))
    return sorted(out)


def _lift_to_sl2z(N: int, c: int, d: int) -> Tuple[int, int, int, int]:
    """A matrix [[a,b],[c0,d0]] in SL_2(Z) with (c0, d0) = (c, d) mod N.

    Assumes a canonical P^1 representative, for which gcd(c, d) = 1 as
    integers (with (0,1) and (1,0) as the degenerate forms).
    """
    if N == 1:
        return (1, 0, 0, 1)
    if c == 0:
        return (1, 0, 0, 1) if d == 1 else (1, 0, 0, d)
    if d == 0:
        return (0, -1, 1, 0) if c == 1 else (0, -1, c, 0)
    g, x, y = _xgcd(c, d)
    assert g == 1, "canonical representative should be a coprime pair"
    # x*c + y*d = 1 -> det [[y, -x], [c, d]] = y*d + x*c = 1
    return (y, -x, c, d)


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) for a, b > 0, the same
    (x, y) as ``sympy.gcdex(a, b)``."""
    x, r, y, s = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        x, r = r, x - q * r
        y, s = s, y - q * s
    return a, x, y


# ---------------------------------------------------------------------------
# cusps


def _cusps_equivalent(
    N: int, a: Tuple[int, int], b: Tuple[int, int]
) -> bool:
    """Gamma_0(N)-equivalence of reduced cusps p/q (q >= 0, infinity =
    (1,0)): s1*q2 = s2*q1 (mod gcd(q1*q2, N)) with p_i*s_i = 1 mod q_i."""
    (p1, q1), (p2, q2) = a, b

    def s_of(p, q):
        if q == 0:
            return p  # p = +-1; p*p = 1
        if q == 1:
            return 0
        return pow(p % q, -1, q)

    m = gcd(q1 * q2, N)
    if m == 0:
        m = N
    return (s_of(p1, q1) * q2 - s_of(p2, q2) * q1) % m == 0


def _reduce_cusp(num: int, den: int) -> Tuple[int, int]:
    if den == 0:
        return (1, 0)
    g = gcd(num, den)
    num, den = num // g, den // g
    if den < 0:
        num, den = -num, -den
    return (num, den)


# ---------------------------------------------------------------------------
# the field-independent skeleton


@dataclass
class _Skeleton:
    N: int
    symbols: List[Tuple[int, int]]
    index: Dict[Tuple[int, int], int]
    cls: List[int]  # symbol -> class id, or -1 if forced zero
    sgn: List[int]  # symbol -> sign relative to class representative
    n_classes: int
    class_rep: List[int]  # class id -> a symbol index with sign +1
    rows: List[Tuple[Tuple[int, int], ...]]  # 3-term relations, (class, coeff)
    cusp_reps: List[Tuple[int, int]]  # star-merged cusp classes
    boundary: List[Tuple[Tuple[int, int], ...]]  # class id -> (cusp, coeff)

    def sym_class(self, c: int, d: int) -> Tuple[int, int]:
        """(class id, sign) of the symbol (c:d); class -1 means zero."""
        key = p1_normalize(self.N, c, d)
        if key is None:
            return (-1, 0)
        i = self.index[key]
        return (self.cls[i], self.sgn[i])


def _build_sign_classes(symbols, index, N):
    n = len(symbols)
    parent = list(range(n))
    rel = [1] * n
    zero = [False] * n

    def find(i):
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        s = 1
        for j in reversed(path):
            s *= rel[j]
            parent[j] = i
            rel[j] = s
        return i

    def union(i, j, s):
        # impose value(i) = s * value(j)
        ri, rj = find(i), find(j)
        si, sj = rel[i], rel[j]
        if ri == rj:
            if si != s * sj:
                zero[ri] = True
            return
        parent[rj] = ri
        rel[rj] = si * s * sj
        if zero[rj]:
            zero[ri] = True

    for i, (c, d) in enumerate(symbols):
        xs = p1_normalize(N, d, -c)  # x.S
        union(i, index[xs], -1)  # x = -x.S
        xe = p1_normalize(N, -c, d)  # x.eta
        union(i, index[xe], 1)  # x = x.eta (plus quotient)

    cls = [-1] * n
    sgn = [0] * n
    class_rep: List[int] = []
    root_to_class: Dict[int, int] = {}
    for i in range(n):
        r = find(i)
        if zero[r]:
            continue
        if r not in root_to_class:
            root_to_class[r] = len(class_rep)
            class_rep.append(r)  # rel[r] = 1 by construction
        cls[i] = root_to_class[r]
        sgn[i] = rel[i]
    return cls, sgn, class_rep


@lru_cache(maxsize=None)
def skeleton(N: int) -> _Skeleton:
    symbols = p1_list(N)
    index = {s: i for i, s in enumerate(symbols)}
    cls, sgn, class_rep = _build_sign_classes(symbols, index, N)
    n_classes = len(class_rep)

    def sym_class(c, d):
        key = p1_normalize(N, c, d)
        i = index[key]
        return cls[i], sgn[i]

    rows = set()
    for (c, d) in symbols:
        acc: Dict[int, int] = {}
        for (cc, dd) in ((c, d), (d, -c - d), (-c - d, c)):
            k, s = sym_class(cc, dd)
            if k >= 0:
                acc[k] = acc.get(k, 0) + s
        row = tuple(sorted((k, v) for k, v in acc.items() if v))
        if not row:
            continue
        if row[0][1] < 0:
            row = tuple((k, -v) for k, v in row)
        rows.add(row)

    # boundary of each class representative
    cusp_reps: List[Tuple[int, int]] = []

    def cusp_class(num, den):
        cu = _reduce_cusp(num, den)
        for j, rep in enumerate(cusp_reps):
            if _cusps_equivalent(N, cu, rep) or _cusps_equivalent(
                N, (-cu[0], cu[1]), rep
            ):
                return j
        cusp_reps.append(cu)
        return len(cusp_reps) - 1

    boundary = []
    for r in class_rep:
        c, d = symbols[r]
        a, b, c0, d0 = _lift_to_sl2z(N, c, d)
        acc = {}
        # boundary of {g0, g inf} = [a/c0] - [b/d0]
        j1 = cusp_class(a, c0)
        acc[j1] = acc.get(j1, 0) + 1
        j2 = cusp_class(b, d0)
        acc[j2] = acc.get(j2, 0) - 1
        boundary.append(tuple(sorted((k, v) for k, v in acc.items() if v)))

    return _Skeleton(
        N=N,
        symbols=symbols,
        index=index,
        cls=cls,
        sgn=sgn,
        n_classes=n_classes,
        class_rep=class_rep,
        rows=sorted(rows),
        cusp_reps=cusp_reps,
        boundary=boundary,
    )


# ---------------------------------------------------------------------------
# Hecke path decomposition (field-independent, cached)


def _infty_path(num: int, den: int) -> List[Tuple[int, int]]:
    """Symbols (c, d) with {infinity, num/den} = sum of [(c:d)]."""
    if den == 0:
        return []
    quotients = []
    a, b = num, den
    while b:
        q = a // b
        quotients.append(q)
        a, b = b, a - q * b
    terms = []
    q_before = 0  # q_(-1)
    q_last = None  # q_(j-1) during iteration
    for j, aj in enumerate(quotients):
        if j == 0:
            q_j = 1
        else:
            q_j = aj * q_last + q_before
        # symbol for the path {p_(j-1)/q_(j-1), p_j/q_j}
        prev_q = q_last if j > 0 else 0  # q_(j-1); for j=0 it is q_(-1)=0
        s = 1 if (j - 1) % 2 == 0 else -1  # (-1)^(j-1)
        terms.append((q_j, s * prev_q))
        if j > 0:
            q_before = q_last
        q_last = q_j
    return terms


@lru_cache(maxsize=None)
def _hecke_paths(N: int, p: int, sym_index: int) -> Tuple[Tuple[int, int], ...]:
    """T_p applied to the sym_index-th canonical symbol, as a list of
    (symbol index, +-1) contributions; independent of the coefficient
    field."""
    sk = skeleton(N)
    c, d = sk.symbols[sym_index]
    a, b, c0, d0 = _lift_to_sl2z(N, c, d)
    # the underlying path is {alpha, beta} with alpha = g.0 = b/d0,
    # beta = g.infinity = a/c0 (denominator 0 means infinity)
    contributions: List[Tuple[int, int]] = []

    def add_endpoint(num, den, sign):
        if den < 0:
            num, den = -num, -den
        for (cc, dd) in _infty_path(num, den):
            key = p1_normalize(N, cc, dd)
            if key is None:
                continue
            contributions.append((sk.index[key], sign))

    for k in range(p):
        # [[1,k],[0,p]]: x -> (x + k)/p
        add_endpoint(a + k * c0, p * c0, 1)  # m.beta
        add_endpoint(b + k * d0, p * d0, -1)  # m.alpha
    # [[p,0],[0,1]]: x -> p*x
    add_endpoint(p * a, c0, 1)
    add_endpoint(p * b, d0, -1)
    return tuple(contributions)


def check_hecke_prime(N: int, p) -> None:
    """Raise ValueError unless p is a prime that does not divide the
    level N: the coset formula for T_p is only valid for such p."""
    if isinstance(p, bool) or not isinstance(p, int) or not sympy.isprime(p):
        raise ValueError("T_p needs a prime p, got p = %r" % (p,))
    if N % p == 0:
        raise ValueError("p = %d divides the level %d" % (p, N))


# ---------------------------------------------------------------------------
# exact backend (Fraction linear algebra)


def _rref_exact(rows: List[List[Fraction]], ncols: int):
    mat = [row[:] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[: len(pivots)], pivots


@dataclass
class HeckeSpace:
    """Plus-quotient modular-symbol space of weight 2 for Gamma_0(N),
    with the cuspidal subspace isolated (exact backend)."""

    N: int
    manin_generators: List[Tuple[int, int]]
    dimension_plus: int
    genus: int
    _sk: _Skeleton
    _expr: List[List[Fraction]]  # class id -> coords in the quotient basis
    _free_classes: List[int]
    _kernel: List[List[Fraction]]  # D x g cuspidal basis (columns)
    _kernel_free_rows: List[int]

    @property
    def cuspidal_dimension(self) -> int:
        return self.genus


def cuspidal_space(N: int) -> HeckeSpace:
    """Exact plus-quotient cuspidal space; dimension = genus of X_0(N)."""
    sk = skeleton(N)
    ncls = sk.n_classes
    dense = [
        [Fraction(0)] * ncls for _ in range(len(sk.rows))
    ]
    for i, row in enumerate(sk.rows):
        for k, v in row:
            dense[i][k] = Fraction(v)
    rref, pivots = _rref_exact(dense, ncls)
    pivset = set(pivots)
    free = [c for c in range(ncls) if c not in pivset]
    D = len(free)
    pos = {c: j for j, c in enumerate(free)}
    expr = [[Fraction(0)] * D for _ in range(ncls)]
    for c in free:
        expr[c][pos[c]] = Fraction(1)
    for row, c in zip(rref, pivots):
        expr[c] = [-row[f] for f in free]

    # boundary matrix on the quotient basis: rows = free classes
    ncusp = len(sk.cusp_reps)
    bmat = [[Fraction(0)] * ncusp for _ in range(D)]
    for j, c in enumerate(free):
        for k, v in sk.boundary[c]:
            bmat[j][k] += v
    # cuspidal = null space of the transpose
    bt = [[bmat[j][k] for j in range(D)] for k in range(ncusp)]
    rref_b, piv_b = _rref_exact(bt, D)
    pivset_b = set(piv_b)
    free_b = [j for j in range(D) if j not in pivset_b]
    g = len(free_b)
    kernel = [[Fraction(0)] * g for _ in range(D)]
    for col, j in enumerate(free_b):
        kernel[j][col] = Fraction(1)
    for row, pj in zip(rref_b, piv_b):
        for col, j in enumerate(free_b):
            kernel[pj][col] = -row[j]

    expected = genus_x0(N)
    if g != expected:
        raise AssertionError(
            "cuspidal dimension %d at level %d does not match the genus "
            "formula value %d" % (g, N, expected)
        )
    return HeckeSpace(
        N=N,
        manin_generators=list(sk.symbols),
        dimension_plus=D,
        genus=g,
        _sk=sk,
        _expr=expr,
        _free_classes=free,
        _kernel=kernel,
        _kernel_free_rows=free_b,
    )


def _hecke_on_quotient_exact(space: HeckeSpace, p: int) -> List[List[Fraction]]:
    """T_p as a D x D matrix (columns = images of the basis generators)."""
    sk = space._sk
    D = space.dimension_plus
    cols = []
    for c in space._free_classes:
        rep = sk.class_rep[c]
        acc = [Fraction(0)] * D
        for sym_idx, sign in _hecke_paths(space.N, p, rep):
            k, s = sk.cls[sym_idx], sk.sgn[sym_idx]
            if k < 0:
                continue
            coeff = sign * s
            vec = space._expr[k]
            for t in range(D):
                if vec[t]:
                    acc[t] += coeff * vec[t]
        cols.append(acc)
    # matrix with columns cols
    return [[cols[j][i] for j in range(D)] for i in range(D)]


def hecke_matrix(space: HeckeSpace, p: int) -> List[List[Fraction]]:
    """T_p restricted to the cuspidal subspace (g x g, exact)."""
    check_hecke_prime(space.N, p)
    T = _hecke_on_quotient_exact(space, p)
    D, g = space.dimension_plus, space.genus
    K = space._kernel
    # M = T.K (D x g)
    M = [
        [sum(T[i][j] * K[j][col] for j in range(D)) for col in range(g)]
        for i in range(D)
    ]
    # K has the identity on its free rows, so A = M restricted there
    A = [M[j] for j in space._kernel_free_rows]
    # verify stability: K.A == M
    for i in range(D):
        for col in range(g):
            v = sum(K[i][j] * A[j][col] for j in range(g))
            if v != M[i][col]:
                raise AssertionError(
                    "cuspidal subspace is not T_%d-stable at level %d"
                    % (p, space.N)
                )
    return A


@dataclass(frozen=True)
class HeckeCharPoly:
    N: int
    p: int
    coeffs: Tuple[int, ...]  # low degree first, monic

    def to_int_poly(self) -> IntPoly:
        return IntPoly(list(self.coeffs))


def hecke_charpoly(space: HeckeSpace, p: int) -> HeckeCharPoly:
    """Exact characteristic polynomial of T_p on the cuspidal space."""
    A = hecke_matrix(space, p)
    if not A:
        return HeckeCharPoly(N=space.N, p=p, coeffs=(1,))
    x = sympy.Symbol("x")
    poly = sympy.Matrix(A).charpoly(x)
    coeffs = list(reversed(poly.all_coeffs()))
    out = []
    for v in coeffs:
        r = sympy.Rational(v)
        if r.q != 1:
            raise AssertionError("non-integral Hecke characteristic polynomial")
        out.append(int(r))
    return HeckeCharPoly(N=space.N, p=p, coeffs=tuple(out))


# ---------------------------------------------------------------------------
# integer Hecke matrices and multimodular characteristic polynomials

_INT64_LIMIT = 1 << 63
_FLOAT64_EXACT = 1 << 53
# the one-time row reductions run modulo this prime and are lifted to Z
_LIFT_PRIME = (1 << 26) - 5


def _rref_mod(M: np.ndarray, q: int):
    M = M % q
    nrows, ncols = M.shape
    pivots = []
    r = 0
    for c in range(ncols):
        col = M[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        inv = pow(int(M[r, c]), -1, q)
        M[r] = M[r] * inv % q
        factors = M[:, c].copy()
        factors[r] = 0
        nzr = np.nonzero(factors)[0]
        if nzr.size:
            M[nzr] = (M[nzr] - factors[nzr, None] * M[r]) % q
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return M[: len(pivots)], pivots


def _int_matmul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y over Z for int64 matrices, as int64.

    The product runs in float64 BLAS (numpy's int64 matmul has no BLAS
    and is about 40x slower).  Every partial sum is an integer of
    absolute value <= max|X| * max|Y| * inner, so the product is exact
    when that bound is below 2^53, and refused otherwise."""
    inner = X.shape[1]
    worst = int(np.abs(X).max(initial=0)) * int(np.abs(Y).max(initial=0)) * inner
    if worst >= _FLOAT64_EXACT:
        raise OverflowError(
            "integer product bound max|X| * max|Y| * %d = %d reaches 2^53"
            % (inner, worst)
        )
    return (X.astype(np.float64) @ Y.astype(np.float64)).astype(np.int64)


def _integer_kernel(M: np.ndarray, N: int, what: str):
    """(E, free): the kernel basis of the integer matrix M with
    E[free] = I, as an integer matrix.

    E is read off the row-echelon form of M mod _LIFT_PRIME and lifted
    to the symmetric range, then proved exact: M.E = 0 over Z gives
    rank_Q(M) <= n - |free| = rank_q(M) <= rank_Q(M), so the columns of
    E span the rational kernel, and E[free] = I makes that basis unique.
    """
    q = _LIFT_PRIME
    n = M.shape[1]
    rref, pivots = _rref_mod(M, q)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    E = np.zeros((n, len(free)), dtype=np.int64)
    E[free, np.arange(len(free))] = 1
    E[pivots] = -rref[:, free] % q
    E[E > q // 2] -= q
    identity = np.eye(len(free), dtype=np.int64)
    if not np.array_equal(E[free], identity) or _int_matmul(M, E).any():
        raise ArithmeticError(
            "the integer lift of the %s at level %d is not exact" % (what, N)
        )
    return E, free


def integer_hecke_matrices(N: int, primes: Sequence[int]) -> Dict[int, np.ndarray]:
    """T_p on the cuspidal plus-space at level N, for each given good
    prime p, as an integer g x g matrix (int64) in the cuspidal basis K
    with K[free_b] = I; field-independent, so built once per level."""
    g = genus_x0(N)
    for p in primes:
        check_hecke_prime(N, p)
    sk = skeleton(N)
    R = np.zeros((len(sk.rows), sk.n_classes), dtype=np.int64)
    for i, row in enumerate(sk.rows):
        for k, v in row:
            R[i, k] = v
    # expr[k] writes class k in the basis of the free classes
    expr, free = _integer_kernel(R, N, "relation solve")
    B = np.zeros((len(sk.cusp_reps), len(free)), dtype=np.int64)
    for j, c in enumerate(free):
        for k, v in sk.boundary[c]:
            B[k, j] += v
    K, free_b = _integer_kernel(B, N, "cuspidal basis")
    if len(free_b) != g:
        raise AssertionError(
            "cuspidal dimension %d at level %d does not match the genus "
            "formula value %d" % (len(free_b), N, g)
        )
    out = {}
    for p in primes:
        # C[k, j]: signed count of class k in the image of free class j
        ks, js, vs = [], [], []
        for j, c in enumerate(free):
            for sym_idx, sign in _hecke_paths(N, p, sk.class_rep[c]):
                k = sk.cls[sym_idx]
                if k >= 0:
                    ks.append(k)
                    js.append(j)
                    vs.append(sign * sk.sgn[sym_idx])
        C = np.zeros((sk.n_classes, len(free)), dtype=np.int64)
        np.add.at(C, (ks, js), vs)
        M = _int_matmul(_int_matmul(expr.T, C), K)
        A = M[free_b]
        if not np.array_equal(_int_matmul(K, A), M):
            raise AssertionError(
                "cuspidal subspace is not T_%d-stable at level %d" % (p, N)
            )
        out[p] = A
    return out


def _charpoly_hessenberg_mod(A: np.ndarray, q: int) -> np.ndarray:
    """Characteristic polynomial coefficients (low degree first) of A
    mod q via Hessenberg reduction.  Every int64 dot product here has at
    most n terms below q^2, so n (q - 1)^2 < 2^63 is required."""
    n = A.shape[0]
    if n * (q - 1) ** 2 >= _INT64_LIMIT:
        raise OverflowError(
            "charpoly of a %d x %d matrix mod %d may overflow int64" % (n, n, q)
        )
    if n == 0:
        return np.array([1], dtype=np.int64)
    H = A % q
    for j in range(n - 2):
        nz = np.flatnonzero(H[j + 1 :, j])
        if nz.size == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            H[[j + 1, piv]] = H[[piv, j + 1]]
            H[:, [j + 1, piv]] = H[:, [piv, j + 1]]
        inv = pow(int(H[j + 1, j]), -1, q)
        f = H[j + 2 :, j] * inv % q
        if f.any():
            # rows j + 1 and below vanish left of column j
            block = H[j + 2 :, j:]
            block -= np.outer(f, H[j + 1, j:])
            block %= q
            H[:, j + 1] = (H[:, j + 1] + H[:, j + 2 :] @ f) % q
    # p_0 = 1; p_m = (x - H[m-1,m-1]) p_(m-1)
    #             - sum_i H[i-1,m-1] (prod_(k=i-1..m-2) H[k+1,k]) p_(i-1)
    # p_m has degree m, so only its first m + 1 entries are touched
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[0, 0] = 1
    sub = np.diagonal(H, -1)
    # suffix[i] = prod_(k=i..m-2) sub[k], kept for i = 0..m-2
    suffix = np.zeros(n, dtype=np.int64)
    for m in range(1, n + 1):
        new = P[m, : m + 1]
        new[1:] = P[m - 1, :m]
        new[:m] = (new[:m] - H[m - 1, m - 1] * P[m - 1, :m]) % q
        if m >= 2:
            suffix[m - 2] = 1
            suffix[: m - 1] = suffix[: m - 1] * sub[m - 2] % q
            w = H[: m - 1, m - 1] * suffix[: m - 1] % q
            new[: m - 1] = (new[: m - 1] - w @ P[: m - 1, : m - 1]) % q
    return P[n].copy()  # a view would keep all of P alive


def _crt_moduli(g: int) -> Iterator[int]:
    """Primes below min(2^26, isqrt((2^63 - 1) // g)), largest first, so
    that a charpoly of a g x g matrix modulo any of them fits int64."""
    q = min(1 << 26, isqrt((2 ** 63 - 1) // max(g, 1))) - 1
    while q > 2:
        if sympy.isprime(q):
            yield q
        q -= 1


def _coeff_bound(n: int, eigen_bound: int) -> int:
    """Bound on every |c_k| of a monic degree-n polynomial whose roots
    all have absolute value <= eigen_bound: max_k C(n, k) eigen_bound^k."""
    return max(comb(n, k) * eigen_bound ** k for k in range(n + 1))


# held-out moduli each CRT-lifted charpoly is re-verified against
_VERIFICATION_MODULI = 2


def hecke_charpolys_multimodular(
    N: int,
    primes: Sequence[int],
    progress=None,
) -> Dict[int, HeckeCharPoly]:
    """Cuspidal Hecke characteristic polynomials at level N for the
    given good primes.

    The integer matrices of T_p are built once; each modulus then only
    reduces them and computes their charpolys.  T_p's charpoly is
    CRT-lifted from the fewest moduli whose product exceeds twice the
    coefficient bound from Deligne's |a_p| <= 2 sqrt(p), and re-verified
    against the next ``_VERIFICATION_MODULI`` (2) moduli.  ``progress(i,
    n)``, if given, is called after the i-th of the n moduli."""
    matrices = integer_hecke_matrices(N, primes)
    g = genus_x0(N)
    # isqrt(4p - 1) + 1 = ceil(2 sqrt(p))
    bounds = {p: 2 * _coeff_bound(g, isqrt(4 * p - 1) + 1) for p in matrices}
    candidates = _crt_moduli(g)
    moduli: List[int] = []
    products = [1]  # products[n] = product of the first n moduli
    while products[-1] <= max(bounds.values(), default=0):
        moduli.append(next(candidates))
        products.append(products[-1] * moduli[-1])
    n_lift = {
        p: next(n for n, M in enumerate(products) if M > bound)
        for p, bound in bounds.items()
    }
    moduli += [next(candidates) for _ in range(_VERIFICATION_MODULI)]

    residues: Dict[int, List[np.ndarray]] = {p: [] for p in matrices}
    for i, q in enumerate(moduli):
        for p, A in matrices.items():
            if i < n_lift[p] + _VERIFICATION_MODULI:
                residues[p].append(_charpoly_hessenberg_mod(A, q))
        if progress is not None:
            progress(i + 1, len(moduli))

    out = {}
    for p in matrices:
        n = n_lift[p]
        lifted = _crt_lift(residues[p][:n], moduli[:n])
        for got, q in zip(residues[p][n:], moduli[n:]):
            if any(c % q != int(r) for c, r in zip(lifted, got)):
                raise AssertionError(
                    "CRT lift of T_%d charpoly fails verification mod %d"
                    % (p, q)
                )
        if lifted[-1] != 1:
            raise AssertionError("lifted characteristic polynomial not monic")
        out[p] = HeckeCharPoly(N=N, p=p, coeffs=tuple(lifted))
    return out


def _crt_lift(residue_arrays: List[np.ndarray], moduli: List[int]) -> List[int]:
    M = prod(moduli)
    n = len(residue_arrays[0])
    out = []
    for k in range(n):
        acc = 0
        for arr, q in zip(residue_arrays, moduli):
            Mq = M // q
            acc = (acc + int(arr[k]) * Mq * pow(Mq % q, -1, q)) % M
        if acc > M // 2:
            acc -= M
        out.append(acc)
    return out
