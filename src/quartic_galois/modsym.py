"""Weight-2 modular symbols for Gamma_0(N), plus-quotient.

The space is presented by Manin symbols (c:d) over P^1(Z/N), subject to
the 2-term relation x + xS = 0, the 3-term relation x + xT + xT^2 = 0
(S = [[0,-1],[1,0]], T = [[0,-1],[1,-1]]), and the star identification
x = x.eta with eta = [[-1,0],[0,1]].  One table-driven index, built once
per level, maps arrays of pairs (c, d) to symbol indices, so every
relation and operator image is indexed by array calls.  The involution
relations are the orbits of the Klein group {1, S, eta, S eta}; the
3-term relations are a sparse linear system whose cokernel is the
plus-quotient, of dimension genus + (star-merged cusps) - 1.  The
cuspidal subspace is the kernel of the boundary map to star-merged cusp
classes, of dimension equal to the genus of X_0(N).  Both kernels are
found by sparse elimination modulo one 26-bit prime, lifted to Z as CSR
arrays (indptr, columns, values), never as dense matrices, and proved
exact by one sparse product each.

T_p (p not dividing N) acts on Manin symbols through Merel's matrices
X_p of determinant p (|X_2| = 4, |X_5| = 15): (c:d) T_p is the sum of
(c:d).h over h in X_p.  The Atkin-Lehner involutions W_Q (Q || N a prime
power) come from the one matrix [[Q, y], [N, Q w]] by Manin's trick:
each image path is expanded by continued fractions.  Either image is a
set of (class, free column, sign) triples, and the integer matrix in the
cuspidal basis is assembled from it by sparse products, then proved
cuspidal-stable by one more.  The W_Q are proved exactly to be commuting involutions
that commute with every T_p, each operator converted once for those
products.  So T_p preserves each joint sign space V_s of the W_Q, and
its characteristic polynomial is the product of those on the V_s.  Each
V_s, about g / 2^k wide, gets an integer basis B_s = P_s R_s once from
the projector P_s = prod(I + s_i W_i), whose trace is 2^k d_s, and a
fixed-seed {-1, 0, 1} sketch (R_s, L_s); one d_s x d_s reduction of
L_s B_s proves it a basis.  Each CRT modulus q, the largest primes for
which the charpolys fit int64, then row-reduces [L_s B_s | L_s T_p B_s]
to read off T_p on V_s (a modulus where L_s B_s is singular is skipped)
and computes all its block charpolys in one batched Hessenberg
reduction, each block zero-padded to the largest.  T_p is self-adjoint
for the Petersson product, so its eigenvalues are real, and Deligne's
bound puts them in [-2 sqrt(p), 2 sqrt(p)].  So the exact power sum
s_2 = tr(T_p^2 P_s) / 2^k of each block bounds its coefficients by
Maclaurin's and the power-mean inequality; each block is lifted from
that bound and re-verified against held-out moduli and against s_2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb, gcd, isqrt, prod
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .arith import divisors, factorint, isprime, primefactors, totient
from .polys import IntPoly

# ---------------------------------------------------------------------------
# genus of X_0(N)


def genus_x0(N: int) -> int:
    """1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2 for Gamma_0(N), computed as
    12g = 12 + mu - 3 nu2 - 4 nu3 - 6 nu_inf."""
    if N < 1:
        raise ValueError("level must be >= 1")
    ps = primefactors(N)
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
    nu_inf = sum(totient(gcd(d, N // d)) for d in divisors(N))
    g, rem = divmod(12 + mu - 3 * nu2 - 4 * nu3 - 6 * nu_inf, 12)
    if rem:
        raise ArithmeticError("genus formula at level %d is not integral" % N)
    return g


# ---------------------------------------------------------------------------
# P^1(Z/N)


class _P1:
    """P^1(Z/N) as tables: ``p1(c, d)`` maps integer arrays to the
    indices in the sorted ``symbols`` of the points (c:d), -1 where
    gcd(c, d, N) > 1.  The canonical form of (c:d) is (g : d'), g =
    gcd(c, N) (0 for g = N), d' the least d' = u d (mod N/g) coprime to g,
    u = (c/g)^-1 (mod N/g).  The unit s of Z/N that lifts u to the least
    such d' sends (c:d) to (g : s d), so table row g, indexed by s d mod N,
    holds the index of (g : d'), or -1 where s d is not coprime to g.
    Residues below N are multiplied, so N < 2^31 is required."""

    def __init__(self, N: int):
        if N >= 1 << 31:
            raise OverflowError("P^1(Z/%d) index products may overflow int64" % N)
        x = np.arange(N, dtype=np.int64)
        G = np.gcd(x, N)
        # g = N (c = 0) sorts first as (0 : d'), then g = 1, 2, ...
        divs = sorted(divisors(N), key=lambda g: g % N)
        self.N, self.symbols = N, []
        self.table = np.empty((len(divs), N), dtype=np.int64)
        self.row, self.scale = np.empty((2, N), dtype=np.int64)
        for t, g in enumerate(divs):
            m = N // g
            coprime = np.gcd(x, g) == 1
            # d'[r]: the least d' = r (mod m) coprime to g, if there is one
            least = coprime.reshape(g, m).argmax(axis=0) * m + np.arange(m)
            reps = np.sort(least[coprime.reshape(g, m).any(axis=0)])
            rank = len(self.symbols) + np.searchsorted(reps, least)
            self.table[t] = np.where(coprime, rank[x % m], -1)
            self.symbols += [(g % N, d) for d in reps.tolist()]
            cs = np.flatnonzero(G == g)
            self.row[cs] = t
            self.scale[cs] = least[[pow(c, -1, m) for c in (cs // g).tolist()]]

    def __call__(self, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=np.int64) % self.N
        d = np.asarray(d, dtype=np.int64) % self.N
        return self.table[self.row[c], self.scale[c] * d % self.N]


def _lift_to_sl2z(N: int, c: int, d: int) -> Tuple[int, int, int, int]:
    """A matrix [[a,b],[c0,d0]] in SL_2(Z) with (c0, d0) = (c, d) mod N,
    for a canonical P^1 representative, for which gcd(c, d) = 1 as
    integers (with (0,1) and (1,0) as the degenerate forms)."""
    if N == 1:
        return (1, 0, 0, 1)
    if c == 0:
        return (1, 0, 0, 1) if d == 1 else (1, 0, 0, d)
    if d == 0:
        return (0, -1, 1, 0) if c == 1 else (0, -1, c, 0)
    g, x, y = _xgcd(c, d)
    if g != 1:
        raise ArithmeticError(
            "P^1 representative (%d:%d) at level %d is not a coprime pair"
            % (c, d, N)
        )
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
    p1: _P1
    symbols: List[Tuple[int, int]]
    n_classes: int
    class_rep: List[int]  # class id -> a symbol index with sign +1
    rows: List[Tuple[Tuple[int, int], ...]]  # 3-term relations, (class, coeff)
    cusp_reps: List[Tuple[int, int]]  # star-merged cusp classes
    boundary: List[Tuple[Tuple[int, int], ...]]  # class id -> (cusp, coeff)
    # symbol -> class id (-1 if forced zero) and sign relative to the class
    # representative, with a trailing -1 and 0 for symbol index -1
    cls_of: np.ndarray
    sgn_of: np.ndarray


@lru_cache(maxsize=None)
def skeleton(N: int) -> _Skeleton:
    p1 = _P1(N)
    symbols = p1.symbols
    c, d = np.array(symbols, dtype=np.int64).T
    x = np.arange(len(symbols))
    # x = -x.S and x = x.eta: S and eta generate the Klein group
    # {1, S, eta, S eta} on P^1, so each orbit is one class, numbered in
    # order of its least symbol m and forced zero if m = m.S or
    # m = m.eta.S.  Its representative r is m.eta.S when that precedes
    # both m.S and m.eta, else m (the root that a union-find merging each
    # x with x.S and x.eta in index order ends at); r and r.eta have sign
    # +1, r.S and r.eta.S sign -1
    S, E = p1(d, -c), p1(-c, d)
    m = np.minimum.reduce([x, S, E, S[E]])
    zero = (S[m] == m) | (S[E[m]] == m)
    root = np.where((S[E[m]] < S[m]) & (S[E[m]] < E[m]), S[E[m]], m)
    minima = np.flatnonzero((m == x) & ~zero)
    class_rep = root[minima]
    cls_of = np.append(np.where(zero, -1, np.searchsorted(minima, m)), -1)
    sgn_of = np.append(np.where(zero, 0, np.where((x == root) | (x == E[root]), 1, -1)), 0)

    # x + x.T + x.T^2 with (c:d).T = (d : -c-d), (c:d).T^2 = (-c-d : c),
    # once per T-orbit
    T1, T2 = p1(d, -c - d), p1(-c - d, c)
    terms = np.stack([x, T1, T2], axis=1)[x <= np.minimum(T1, T2)]
    rows = set()
    for ks, ss in zip(cls_of[terms].tolist(), sgn_of[terms].tolist()):
        acc: Dict[int, int] = {}
        for k, s in zip(ks, ss):
            if k >= 0:
                acc[k] = acc.get(k, 0) + s
        row = tuple(sorted((k, v) for k, v in acc.items() if v))
        if not row:
            continue
        if row[0][1] < 0:
            row = tuple((k, -v) for k, v in row)
        rows.add(row)

    # boundary of each class representative.  Reduced cusps a/c, a'/c'
    # are Gamma_0(N)-equivalent iff s c' = s' c (mod gcd(c c', N)) with
    # s a = 1 (mod c), s' a' = 1 (mod c'), that is iff d = gcd(c, N) =
    # gcd(c', N) and a c/d = a' c'/d (mod gcd(d, N/d)); the star
    # involution a/c -> -a/c merges the key's sign
    cusp_reps: List[Tuple[int, int]] = []
    cusp_index: Dict[Tuple[int, int], int] = {}

    def cusp_class(num, den):
        a, c = cu = _reduce_cusp(num, den)
        d = gcd(c, N)
        e = gcd(d, N // d)
        key = (d, min(a * (c // d) % e, -a * (c // d) % e))
        if key not in cusp_index:
            cusp_index[key] = len(cusp_reps)
            cusp_reps.append(cu)
        return cusp_index[key]

    boundary = []
    for r in class_rep.tolist():
        c, d = symbols[r]
        a, b, c0, d0 = _lift_to_sl2z(N, c, d)
        # boundary of {g0, g inf} = [a/c0] - [b/d0]
        j1, j2 = cusp_class(a, c0), cusp_class(b, d0)
        boundary.append(() if j1 == j2 else tuple(sorted(((j1, 1), (j2, -1)))))

    return _Skeleton(
        p1=p1,
        symbols=symbols,
        n_classes=len(class_rep),
        class_rep=class_rep.tolist(),
        rows=sorted(rows),
        cusp_reps=cusp_reps,
        boundary=boundary,
        cls_of=cls_of,
        sgn_of=sgn_of,
    )


# ---------------------------------------------------------------------------
# operator images of the free classes, as (class, free column, sign)


def _merel_set(p: int) -> List[Tuple[int, int, int, int]]:
    """Merel's X_p = {[[a, b], [c, d]] : ad - bc = p, a > b >= 0,
    d > c >= 0}; then bc <= (a - 1)(d - 1) gives a + d <= p + 1."""
    return [(a, b, c, d) for a in range(1, p + 1) for d in range(1, p + 2 - a)
            for b in range(a) for c in range(d) if a * d - b * c == p]


def _image_triples(sk: _Skeleton, symbol_index: np.ndarray, column: np.ndarray, sign):
    """The (class, free column, sign) triples of signed symbols, without
    the forced zeros and the non-points of P^1 (index -1)."""
    k = sk.cls_of[symbol_index]
    keep = k >= 0
    return k[keep], column[keep], (sk.sgn_of[symbol_index] * sign)[keep]


def _hecke_image(N: int, free: Sequence[int], p: int):
    """T_p of every free class (c:d) as the sum over h in X_p of (c:d).h
    (Merel), one index call per h."""
    sk = skeleton(N)
    c, d = np.array([sk.symbols[sk.class_rep[k]] for k in free], np.int64).reshape(-1, 2).T
    X = _merel_set(p)
    index = np.concatenate([sk.p1(c * a + d * cc, c * b + d * dd) for a, b, cc, dd in X])
    column = np.tile(np.arange(len(free)), len(X))
    return _image_triples(sk, index, column, 1)


def _atkin_lehner_image(N: int, free: Sequence[int], Q: int):
    """W_Q of every free class by Manin's trick: W = [[Q, y], [N, Q w]]
    carries the path {b/d, a/c} of the lift [[a, b], [c, d]] of its symbol
    to {oo, W a/c} - {oo, W b/d}, and {oo, x} is the sum of the symbols
    (q_j : (-1)^(j-1) q_(j-1)) over the convergent denominators q_j of x
    (q_(-1) = 0); all endpoints are expanded at once, indexed in one call.
    Every value stays below 2 N^2, which the P^1 bound N < 2^31 keeps in int64."""
    sk = skeleton(N)
    m11, m12, m21, m22 = _atkin_lehner_matrix(N, Q)
    lifts = [_lift_to_sl2z(N, *sk.symbols[sk.class_rep[k]]) for k in free]
    a, b, c, d = np.array(lifts, dtype=np.int64).reshape(-1, 4).T
    num = np.concatenate([m11 * a + m12 * c, m11 * b + m12 * d])
    den = np.concatenate([m21 * a + m22 * c, m21 * b + m22 * d])
    num, den = np.where(den < 0, -num, num), np.abs(den)
    column, sign = np.tile(np.arange(len(free)), 2), np.repeat([1, -1], len(free))
    q_prev, q_prev2 = np.zeros_like(num), np.ones_like(num)  # q_(j-1), q_(j-2)
    empty = np.zeros(0, dtype=np.int64)
    terms, parity = [(empty,) * 4], -1  # parity = (-1)^(j-1)
    while True:
        live = den != 0
        num, den, q_prev, q_prev2, column, sign = (
            v[live] for v in (num, den, q_prev, q_prev2, column, sign)
        )
        if not num.size:
            break
        quotient = num // den
        q = quotient * q_prev + q_prev2
        terms.append((q, parity * q_prev, column, sign))
        num, den, q_prev, q_prev2, parity = den, num - quotient * den, q, q_prev, -parity
    c, d, column, sign = (np.concatenate(v) for v in zip(*terms))
    return _image_triples(sk, sk.p1(c, d), column, sign)


def _atkin_lehner_matrix(N: int, Q: int) -> Tuple[int, int, int, int]:
    """W_Q = [[Q, y], [N, Q w]] of determinant Q for Q || N, with
    w = Q^-1 (mod N/Q) and y = (Q w - 1)/(N/Q)."""
    w = pow(Q, -1, N // Q)
    return (Q, (Q * w - 1) // (N // Q), N, Q * w)


def check_hecke_prime(N: int, p) -> None:
    """Raise ValueError unless p is a prime that does not divide the
    level N: Merel's formula for T_p is only valid for such p."""
    if isinstance(p, bool) or not isinstance(p, int) or not isprime(p):
        raise ValueError("T_p needs a prime p, got p = %r" % (p,))
    if N % p == 0:
        raise ValueError("p = %d divides the level %d" % (p, N))


# ---------------------------------------------------------------------------
# integer Hecke matrices and multimodular characteristic polynomials

_INT64_LIMIT = 1 << 63
_FLOAT32_EXACT = 1 << 24
_FLOAT64_EXACT = 1 << 53
# the one-time row reductions run modulo this prime and are lifted to Z
_LIFT_PRIME = (1 << 26) - 5
# _sign_blocks' two-sided sketch of each projector
_SKETCH_SEED = 0x5EED_B10C


def _rref_mod(M: np.ndarray, q: int):
    """(R, pivots): the reduced row-echelon form of M mod q, without its
    zero rows, and its pivot columns.

    Each pivot clears its column with one rank-1 update of the rows
    that are nonzero there, gathered into one block.  Its products are
    below q^2, so (q - 1)^2 < 2^63 is required.  Each block is reduced
    as a - (a // q) q, which numpy runs faster than its int64 %."""
    if (q - 1) ** 2 >= _INT64_LIMIT:
        raise OverflowError("row reduction mod %d may overflow int64" % q)
    M = M % q
    nrows, ncols = M.shape
    pivots = []
    r = 0
    for c in range(ncols):
        nz = np.flatnonzero(M[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        # row r vanishes left of column c, so only columns c.. change
        row = M[r, c:]
        row *= pow(int(row[0]), -1, q)
        row %= q
        rows = np.flatnonzero(M[:, c])
        rows = rows[rows != r]
        if rows.size:
            block = M[rows, c:]
            block -= np.outer(block[:, 0], row)
            block -= block // q * q
            M[rows, c:] = block
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return M[: len(pivots)], pivots


class _Exact:
    """An int64 matrix with its max|entry| and its float copies, each made
    on first use, so that ``_int_matmul`` converts an operand once per
    dtype however often it is used."""

    def __init__(self, X: np.ndarray):
        self.ints, self.floats = X, {}
        self.bound = int(np.abs(X).max(initial=0))

    def as_float(self, dtype) -> np.ndarray:
        if dtype not in self.floats:
            self.floats[dtype] = self.ints.astype(dtype)
        return self.floats[dtype]


def _exact(X) -> _Exact:
    return X if isinstance(X, _Exact) else _Exact(X)


def _int_matmul(X, Y) -> np.ndarray:
    """X @ Y over Z for int64 matrices (or their ``_exact`` forms), as
    int64.

    The product runs in float BLAS (numpy's int64 matmul has no BLAS
    and is about 40x slower).  Every partial sum is an integer of
    absolute value <= max|X| * max|Y| * inner, so the product is exact
    in float32 when that bound is below 2^24, in float64 when it is
    below 2^53, and refused otherwise."""
    X, Y = _exact(X), _exact(Y)
    inner = X.ints.shape[1]
    worst = X.bound * Y.bound * inner
    if worst >= _FLOAT64_EXACT:
        raise OverflowError(
            "integer product bound max|X| * max|Y| * %d = %d reaches 2^53"
            % (inner, worst)
        )
    dtype = np.float32 if worst < _FLOAT32_EXACT else np.float64
    return (X.as_float(dtype) @ Y.as_float(dtype)).astype(np.int64)


def _sparse_rref_mod(rows, n: int, q: int):
    """(R, pivots): the reduced row-echelon form mod q of the n-column
    matrix whose rows are given as (column, value) pairs (values at one
    column add up), as one {column: value} dict per nonzero row, and its
    pivot columns.

    Pivots are taken in column order.  Each is the shortest row still
    nonzero in its column, and clears that column from the rows not yet
    pivots, found through a column index that follows their fill-in.
    Back substitution, last pivot first, then clears every pivot column
    from the rows above it.  The reduced form is unique, so it is the
    one ``_rref_mod`` gives for the dense matrix."""
    R = []
    for row in rows:
        acc: Dict[int, int] = {}
        for k, v in row:
            acc[k] = (acc.get(k, 0) + v) % q
        R.append({k: v for k, v in acc.items() if v})
    where: List[set] = [set() for _ in range(n)]
    for i, row in enumerate(R):
        for k in row:
            where[k].add(i)
    pivot_row: Dict[int, Dict[int, int]] = {}
    for c in range(n):
        if not where[c]:
            continue
        p = min(where[c], key=lambda i: (len(R[i]), i))
        row = R[p]
        for k in row:
            where[k].discard(p)
        inv = pow(row[c], -1, q)
        if inv != 1:
            for k in row:
                row[k] = row[k] * inv % q
        # the rows left in where[c] start at column c, as row does
        for i in list(where[c]):
            other, f = R[i], R[i][c]
            for k, v in row.items():
                new = (other.get(k, 0) - f * v) % q
                if new:
                    if k not in other:
                        where[k].add(i)
                    other[k] = new
                else:
                    del other[k]
                    where[k].discard(i)
        pivot_row[c] = row
    pivots = sorted(pivot_row)
    for c in reversed(pivots):
        row = pivot_row[c]
        # the rows of the later pivots hold only their pivot and free columns
        for k in [k for k in row if k != c and k in pivot_row]:
            f = row.pop(k)
            for kk, v in pivot_row[k].items():
                if kk != k:
                    new = (row.get(kk, 0) - f * v) % q
                    if new:
                        row[kk] = new
                    else:
                        row.pop(kk, None)
    return [pivot_row[c] for c in pivots], pivots


def _expand(left, right):
    """The products L[i, k] R[k, j], unsummed, as (i, j, value) arrays,
    for L given as (row, column, value) arrays and R as CSR arrays
    (indptr, columns, values); refused if one may reach 2^63."""
    i, k, v = left
    indptr, cols, vals = right
    if int(np.abs(v).max(initial=0)) * int(np.abs(vals).max(initial=0)) >= _INT64_LIMIT:
        raise OverflowError("a sparse product entry may reach 2^63")
    counts = indptr[k + 1] - indptr[k]
    # position in vals of every product: each row of R, entry by entry
    at = np.repeat(indptr[k] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return np.repeat(i, counts), cols[at], np.repeat(v, counts) * vals[at]


def _sparse_matmul(left, right, shape: Tuple[int, int]) -> np.ndarray:
    """L @ R over Z as a dense int64 array of the given shape, for L and
    R as in ``_expand`` (values of L at one place add up).

    Every partial sum has absolute value <= max_i sum |L[i]| * max|R|,
    so the product is refused when that bound reaches 2^63."""
    row_sums = np.zeros(shape[0], dtype=np.int64)
    np.add.at(row_sums, left[0], np.abs(left[2]))
    worst = int(row_sums.max(initial=0)) * int(np.abs(right[2]).max(initial=0))
    if worst >= _INT64_LIMIT:
        raise OverflowError("sparse product bound max row sum * max|R| = %d reaches 2^63" % worst)
    i, j, w = _expand(left, right)
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out.reshape(-1), i * shape[1] + j, w)
    return out


def _csr(M: np.ndarray):
    """(indptr, columns, values) of the nonzero entries of M, by row."""
    rows, cols = np.nonzero(M)
    indptr = np.zeros(M.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=M.shape[0]), out=indptr[1:])
    return indptr, cols, M[rows, cols]


def _coo(rows):
    """(row, column, value) arrays of the matrix whose rows are given as
    (column, value) pairs."""
    pairs = np.array([kv for row in rows for kv in row], dtype=np.int64).reshape(-1, 2)
    return np.repeat(np.arange(len(rows)), [len(row) for row in rows]), pairs[:, 0], pairs[:, 1]


def _integer_kernel(rows, n: int, N: int, what: str):
    """(E, free): the kernel basis, with E[free] = I, of the n-column
    integer matrix M whose rows are given as (column, value) pairs, as
    CSR arrays of an n x |free| integer matrix.

    E is read off the reduced row-echelon form of M mod _LIFT_PRIME,
    computed by sparse elimination, and lifted to the symmetric range,
    then proved exact by a sparse product: M.E = 0 over Z gives
    rank_Q(M) <= n - |free| = rank_q(M) <= rank_Q(M), so the columns of
    E span the rational kernel, and E[free] = I makes that basis unique.
    """
    q = _LIFT_PRIME
    rref, pivots = _sparse_rref_mod(rows, n, q)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    at_free = np.array(free, dtype=np.intp)
    slot = np.full(n, -1, dtype=np.intp)
    slot[at_free] = np.arange(len(free))
    # E[pivots] = -rref[:, free], read off the dicts in one pass, and E[free] = I
    sizes = [len(row) for row in rref]
    total = sum(sizes)
    ks = np.fromiter(chain.from_iterable(rref), dtype=np.intp, count=total)
    vs = np.fromiter(
        chain.from_iterable(row.values() for row in rref), dtype=np.int64, count=total
    )
    at = np.repeat(np.array(pivots, dtype=np.intp), sizes)
    keep = slot[ks] >= 0
    lifted = -vs[keep] % q
    lifted[lifted > q // 2] -= q
    row = np.concatenate([at[keep], at_free])
    col = np.concatenate([slot[ks[keep]], slot[at_free]])
    order = np.lexsort((col, row))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    E = indptr, col[order], np.concatenate([lifted, np.ones(len(free), np.int64)])[order]
    # each free row of E holds exactly its identity entry
    start = indptr[at_free]
    if (
        np.any(indptr[at_free + 1] - start != 1)
        or np.any(E[1][start] != slot[at_free])
        or np.any(E[2][start] != 1)
        or _sparse_matmul(_coo(rows), E, (len(rows), len(free))).any()
    ):
        raise ArithmeticError(
            "the integer lift of the %s at level %d is not exact" % (what, N)
        )
    return E, free


class _Basis(NamedTuple):
    """The free classes, the cuspidal basis K over them (K[free_b] = I)
    and expr, whose row k writes class k over the free classes; K and
    expr as CSR arrays (indptr, columns, values)."""

    free: List[int]
    K: Tuple[np.ndarray, np.ndarray, np.ndarray]
    free_b: List[int]
    expr: Tuple[np.ndarray, np.ndarray, np.ndarray]


def _cuspidal_basis(N: int) -> _Basis:
    """The relation solve and the cuspidal basis; field-independent, so
    built once per level."""
    g = genus_x0(N)
    sk = skeleton(N)
    expr, free = _integer_kernel(sk.rows, sk.n_classes, N, "relation solve")
    # the boundary map, one row per cusp class over the free classes
    boundary: List[Dict[int, int]] = [{} for _ in sk.cusp_reps]
    for j, c in enumerate(free):
        for k, v in sk.boundary[c]:
            boundary[k][j] = v
    K, free_b = _integer_kernel(
        [tuple(row.items()) for row in boundary], len(free), N, "cuspidal basis"
    )
    if len(free_b) != g:
        raise ArithmeticError(
            "cuspidal dimension %d at level %d does not match the genus "
            "formula value %d" % (len(free_b), N, g)
        )
    return _Basis(free, K, free_b, expr)


def _cuspidal_matrix(N: int, basis: _Basis, image, name: str) -> np.ndarray:
    """The integer g x g matrix A, in the cuspidal basis, of the operator
    whose image of free class j has class k with sign s for each triple
    (k, j, s) of ``image`` (the class-by-free matrix C).  A = M[free_b]
    for M = expr^T C K, formed by sparse products: the entries of C K,
    left unsummed, then M^T = (C K)^T expr.  K A = M proves the cuspidal
    subspace stable."""
    k, col, w = _expand(image, basis.K)  # C K, unsummed
    M = _sparse_matmul((col, k, w), basis.expr, (len(basis.free_b), len(basis.free))).T
    A = M[basis.free_b]
    indptr, cols, vals = basis.K
    rows = np.repeat(np.arange(len(basis.free)), np.diff(indptr))
    if not np.array_equal(_sparse_matmul((rows, cols, vals), _csr(A), M.shape), M):
        raise ArithmeticError(
            "cuspidal subspace is not %s-stable at level %d" % (name, N)
        )
    return A


def _hecke_matrices(N: int, basis: _Basis, primes: Sequence[int]) -> Dict[int, np.ndarray]:
    return {
        p: _cuspidal_matrix(N, basis, _hecke_image(N, basis.free, p), "T_%d" % p)
        for p in primes
    }


def _atkin_lehner_involutions(
    N: int, basis: _Basis, matrices: Dict[int, np.ndarray]
) -> List[np.ndarray]:
    """W_Q in the cuspidal basis for each prime power Q || N, proved
    exactly to be commuting involutions that commute with every T_p.
    Each operator is converted for the exact products once."""
    identity = np.eye(len(basis.free_b), dtype=np.int64)
    hecke = [("T_%d" % p, _exact(A)) for p, A in matrices.items()]
    involutions: Dict[str, _Exact] = {}
    for ell, e in factorint(N).items():
        name = "W_%d" % ell ** e
        image = _atkin_lehner_image(N, basis.free, ell ** e)
        W = _exact(_cuspidal_matrix(N, basis, image, name))
        if not np.array_equal(_int_matmul(W, W), identity):
            raise ArithmeticError("%s^2 != 1 at level %d" % (name, N))
        for other, A in [*involutions.items()] + hecke:
            if not np.array_equal(_int_matmul(W, A), _int_matmul(A, W)):
                raise ArithmeticError(
                    "%s does not commute with %s at level %d" % (name, other, N)
                )
        involutions[name] = W
    return [W.ints for W in involutions.values()]


def _sketch(rows: int, cols: int) -> np.ndarray:
    """A rows x cols int8 matrix with entries in {-1, 0, 1}, drawn from
    a fixed-seed stdlib stream."""
    draw = np.frombuffer(random.Random(_SKETCH_SEED).randbytes(rows * cols), np.uint8)
    return (draw % 3).astype(np.int8).reshape(rows, cols) - 1


def _sign_blocks(N: int, involutions: List[np.ndarray], matrices: Dict[int, np.ndarray], g: int):
    """(system_s, s2_s) for each nonzero joint sign space V_s of the
    involutions, d_s = dim V_s: system_s = [L_s B_s | L_s T_p B_s ...]
    (the T_p in the order of ``matrices``) for a g x d_s integer basis
    B_s of V_s and a d_s x g integer L_s with L_s B_s nonsingular, and
    s2_s[p] = tr(T_p^2 on V_s), the sum of the squared eigenvalues.

    P_s = prod(I + s_i W_i) is 2^k times the projector onto V_s, so its
    trace is 2^k d_s.  T_p preserves V_s and the lattice V_s meet Z^g,
    so T_p^2 on V_s has an integer matrix and tr(T_p^2 P_s) = 2^k s_2
    with s_2 an integer; both divisions are checked.  B_s = P_s R_s and
    L_s are the halves of one fixed-seed sketch with entries in
    {-1, 0, 1}.  The columns of B_s lie in V_s, so when L_s B_s has rank
    d_s mod _LIFT_PRIME (one d_s x d_s reduction) they are a basis of it.  If the
    rank comes out lower, P_s itself is reduced: B_s is its pivot
    columns and L_s = B_s^T, whose Gram matrix B_s^T B_s is nonsingular
    over Q."""
    identity = np.eye(g, dtype=np.int64)
    hecke = {p: _exact(A) for p, A in matrices.items()}
    # (T_p^2)^T, so that tr(T_p^2 P) is the dot product of two flat arrays
    squares_t = {p: _exact(_int_matmul(A, A).T.copy()) for p, A in hecke.items()}

    def projectors(signs, P, rest):
        # depth first, s = +1 before -1 at each level, so sign vectors
        # share their prefix products and at most k of them are held
        if not rest:
            yield signs, P
            return
        for s in (1, -1):
            step = identity + s * rest[0]
            P_next = _int_matmul(P, step) if signs else step
            yield from projectors(signs + (s,), P_next, rest[1:])

    scale = 1 << len(involutions)
    blocks = []
    for signs, P in projectors((), identity, involutions):
        d, rem = divmod(int(np.trace(P)), scale)
        if rem:
            raise ArithmeticError(
                "sign space %s at level %d has trace %d" % (signs, N, int(np.trace(P)))
            )
        if not d:
            continue
        sketch = _sketch(2 * d, g)
        L, B = _exact(sketch[:d]), _exact(_int_matmul(P, sketch[d:].T))
        LB = _int_matmul(L, B)
        if len(_rref_mod(LB, _LIFT_PRIME)[1]) < d:
            # fewer than d pivots leave the blocks short of spanning
            B = _exact(P[:, _rref_mod(P, _LIFT_PRIME)[1]])
            L = _exact(B.ints.T)
            LB = _int_matmul(L, B)
        system = np.hstack([LB] + [_int_matmul(_int_matmul(L, A), B) for A in hecke.values()])
        P_bound, s2 = int(np.abs(P).max()), {}
        for p, T2 in squares_t.items():
            if T2.bound * P_bound * g * g >= _INT64_LIMIT:
                raise OverflowError("tr(T_%d^2 P) at level %d may overflow int64" % (p, N))
            s2[p], rem = divmod(int(np.vdot(T2.ints, P)), scale)
            if rem:
                raise ArithmeticError(
                    "tr(T_%d^2) on sign space %s at level %d is not an integer" % (p, signs, N)
                )
        blocks.append((system, s2))
    if sum(system.shape[0] for system, _ in blocks) != g:
        raise ArithmeticError("the sign spaces at level %d do not span" % N)
    return blocks


@dataclass(frozen=True)
class HeckeCharPoly:
    N: int
    p: int
    coeffs: Tuple[int, ...]  # low degree first, monic

    def to_int_poly(self) -> IntPoly:
        return IntPoly(list(self.coeffs))


def _charpolys_hessenberg_mod(
    stack: np.ndarray, sizes: Sequence[int], q: int
) -> List[np.ndarray]:
    """The characteristic polynomial coefficients (low degree first) mod
    q of every X_t, from the stack of D x D matrices diag(X_t, 0) with
    X_t of size d_t = sizes[t] <= D, by one batched Hessenberg reduction.

    chi(diag(X, 0)) = x^(D - d) chi(X), so the D - d lowest
    coefficients of each padded charpoly must vanish: they are checked
    (ArithmeticError otherwise) and dropped.  Every int64 dot product
    here has at most D terms below q^2, so D (q - 1)^2 < 2^63 is
    required of the padded size D.  The similarity updates are reduced
    as a - (a // q) q, which numpy runs faster than its int64 %."""
    count, D = stack.shape[0], stack.shape[1]
    if D * (q - 1) ** 2 >= _INT64_LIMIT:
        raise OverflowError(
            "charpoly of a %d x %d matrix mod %d may overflow int64" % (D, D, q)
        )
    H = stack % q
    at = np.arange(count)
    for j in range(D - 2):
        # swap row and column j + 1 with the first row below it that is
        # nonzero in column j, where one is (argmax of none is 0)
        piv = j + 1 + np.argmax(H[:, j + 1 :, j] != 0, axis=1)
        if (piv != j + 1).any():
            top = H[at, j + 1].copy()
            H[at, j + 1] = H[at, piv]
            H[at, piv] = top
            left = H[at, :, j + 1].copy()
            H[at, :, j + 1] = H[at, :, piv]
            H[at, :, piv] = left
        inv = np.array(
            [pow(int(x), -1, q) if x else 0 for x in H[:, j + 1, j]], dtype=np.int64
        )
        f = H[:, j + 2 :, j] * inv[:, None] % q
        if f.any():
            # rows j + 1 and below vanish left of column j
            block = H[:, j + 2 :, j:]
            block -= f[:, :, None] * H[:, j + 1, None, j:]
            block -= block // q * q
            col = H[:, :, j + 1] + (H[:, :, j + 2 :] @ f[:, :, None])[:, :, 0]
            H[:, :, j + 1] = col - col // q * q
    # p_0 = 1; p_m = (x - H[m-1,m-1]) p_(m-1)
    #             - sum_i H[i-1,m-1] (prod_(k=i-1..m-2) H[k+1,k]) p_(i-1)
    # p_m has degree m, so only its first m + 1 entries are touched
    P = np.zeros((count, D + 1, D + 1), dtype=np.int64)
    P[:, 0, 0] = 1
    sub = np.diagonal(H, -1, axis1=1, axis2=2)
    # suffix[:, i] = prod_(k=i..m-2) sub[:, k], kept for i = 0..m-2
    suffix = np.zeros((count, D), dtype=np.int64)
    for m in range(1, D + 1):
        new = P[:, m, : m + 1]
        new[:, 1:] = P[:, m - 1, :m]
        new[:, :m] = (new[:, :m] - H[:, m - 1, m - 1, None] * P[:, m - 1, :m]) % q
        if m >= 2:
            suffix[:, m - 2] = 1
            suffix[:, : m - 1] = suffix[:, : m - 1] * sub[:, m - 2, None] % q
            w = H[:, : m - 1, m - 1] * suffix[:, : m - 1] % q
            dots = (w[:, None, :] @ P[:, : m - 1, : m - 1])[:, 0]
            new[:, : m - 1] = (new[:, : m - 1] - dots) % q
    out = []
    for t, d in enumerate(sizes):
        if P[t, D, : D - d].any():
            raise ArithmeticError(
                "the charpoly of a %d x %d block zero-padded to %d x %d mod %d "
                "is not divisible by x^%d" % (d, d, D, D, q, D - d)
            )
        out.append(P[t, D, D - d :].copy())  # a view would keep all of P alive
    return out


def _crt_moduli(D: int) -> Iterator[int]:
    """Primes below isqrt((2^63 - 1) // D), largest first: the largest
    moduli q with D (q - 1)^2 < 2^63, so that the batched charpoly of
    blocks padded to D x D, and every row reduction, fits int64 mod q."""
    q = isqrt((2 ** 63 - 1) // max(D, 1)) - 1
    while q > 2:
        if isprime(q):
            yield q
        q -= 1


def _trace_bound(d: int, s2: int) -> int:
    """Bound on every |c_k| of a monic degree-d polynomial (d >= 1) whose
    roots a_i are real with sum a_i^2 = s2 >= 0: the least integer b
    with b^2 >= C(d, k)^2 (s2 / d)^k for every k, compared in integers.

    |e_k(a)| <= e_k(|a|) <= C(d, k) (sum |a_i| / d)^k by Maclaurin's
    inequality, and sum |a_i| / d <= (sum |a_i|^2 / d)^(1/2) by the
    power-mean inequality; sum |a_i|^2 = s2 because the a_i are real."""
    need = max(-(-comb(d, k) ** 2 * s2 ** k // d ** k) for k in range(d + 1))
    return isqrt(need - 1) + 1


# held-out moduli each CRT-lifted charpoly is re-verified against
_VERIFICATION_MODULI = 2


def hecke_charpolys_multimodular(
    N: int,
    primes: Sequence[int],
    progress=None,
) -> Dict[int, HeckeCharPoly]:
    """Cuspidal Hecke characteristic polynomials at level N for the
    given good primes.

    The integer matrices of T_p and of the Atkin-Lehner involutions W_Q
    are built once, and the cuspidal space is split into the joint sign
    spaces of the W_Q, which every T_p preserves.  Each modulus solves
    for T_p on every sign space and computes those block charpolys in
    one batched call.  T_p is self-adjoint for the Petersson product,
    so its eigenvalues are real, and Deligne's bound puts them in
    [-2 sqrt(p), 2 sqrt(p)]; so a block's power sum s_2 = tr(T_p^2),
    exact before any lift, lies in [0, 4 p d] (ArithmeticError
    otherwise) and bounds its coefficients by ``_trace_bound``.  A
    block's charpoly is CRT-lifted from the fewest moduli whose product
    exceeds twice that bound, re-verified against the next
    ``_VERIFICATION_MODULI`` (2) moduli and checked to have
    e_1^2 - 2 e_2 = s_2, and the block charpolys are multiplied over Z.
    All bounds are known before the first modulus, so ``progress(i, n)``,
    if given, is called after the i-th of the n moduli."""
    for p in primes:
        check_hecke_prime(N, p)
    g = genus_x0(N)
    basis = _cuspidal_basis(N)
    matrices = _hecke_matrices(N, basis, primes)
    involutions = _atkin_lehner_involutions(N, basis, matrices)
    # per block, [L B | L T_p B ...]: row reduction mod q gives [I | X_p ...]
    # with T_p B = B X_p, X_p in column slot[p]
    slot = {p: k for k, p in enumerate(matrices, 1)}
    blocks = _sign_blocks(N, involutions, matrices, g)
    systems = [system for system, _ in blocks]
    bounds = {}
    for j, (system, s2) in enumerate(blocks):
        d = system.shape[0]
        for p in matrices:
            if not 0 <= s2[p] <= 4 * p * d:
                raise ArithmeticError(
                    "tr(T_%d^2) = %d on a %d-dimensional sign space at level %d "
                    "is outside [0, %d]" % (p, s2[p], d, N, 4 * p * d)
                )
            # s2 <= 4pd gives (s2/d)^(k/2) <= (2 sqrt p)^k, so this is never
            # above max_k C(d, k) ceil(2 sqrt p)^k, the bound from Deligne alone
            bounds[(j, p)] = 2 * _trace_bound(d, s2[p])
    candidates = _crt_moduli(max((Y.shape[0] for Y in systems), default=0))
    moduli: List[int] = []

    def plan():
        # the product of all moduli but the held-out ones covers every bound
        while bounds and prod(moduli[:-_VERIFICATION_MODULI]) <= max(
            bounds.values()
        ):
            moduli.append(next(candidates))

    plan()
    residues: Dict[Tuple[int, int], List[np.ndarray]] = {key: [] for key in bounds}
    i = 0
    while i < len(moduli):
        q = moduli[i]
        # a block takes residues until its bound and the held-out moduli
        covered = prod(moduli[: max(i - _VERIFICATION_MODULI, 0)])
        active = [key for key, bound in bounds.items() if covered <= bound]
        solved = {j: _rref_mod(systems[j], q) for j in {j for j, _ in active}}
        if any(
            pivots != list(range(systems[j].shape[0]))
            for j, (_, pivots) in solved.items()
        ):
            # some L_s B_s is singular mod q: use the next prime instead
            del moduli[i]
            plan()
            continue
        # every block of this modulus, zero-padded to the largest, in one call
        sizes = [systems[j].shape[0] for j, _ in active]
        stack = np.zeros((len(active), max(sizes), max(sizes)), dtype=np.int64)
        for t, (j, p) in enumerate(active):
            d, k = sizes[t], slot[p]
            stack[t, :d, :d] = solved[j][0][:, k * d : (k + 1) * d]
        for key, charpoly in zip(active, _charpolys_hessenberg_mod(stack, sizes, q)):
            residues[key].append(charpoly)
        i += 1
        if progress is not None:
            progress(i, len(moduli))

    out = {}
    for p in matrices:
        charpoly = IntPoly([1])
        for j in range(len(systems)):
            got = residues[(j, p)]
            n = len(got) - _VERIFICATION_MODULI
            lifted = _crt_lift(got[:n], moduli[:n])
            for check, q in zip(got[n:], moduli[n:]):
                if any(c % q != int(r) for c, r in zip(lifted, check)):
                    raise ArithmeticError(
                        "CRT lift of a T_%d block charpoly fails verification "
                        "mod %d" % (p, q)
                    )
            if lifted[-1] != 1:
                raise ArithmeticError("lifted characteristic polynomial not monic")
            # lifted = x^d - e_1 x^(d-1) + e_2 x^(d-2) - ...
            d, s2 = len(lifted) - 1, blocks[j][1][p]
            if lifted[d - 1] ** 2 - 2 * (lifted[d - 2] if d > 1 else 0) != s2:
                raise ArithmeticError(
                    "a lifted T_%d block charpoly at level %d has e_1^2 - 2 e_2 "
                    "!= tr(T_%d^2) = %d" % (p, N, p, s2)
                )
            charpoly = charpoly * IntPoly(lifted)
        out[p] = HeckeCharPoly(N=N, p=p, coeffs=charpoly.coeffs)
    return out


def _crt_lift(residue_arrays: List[np.ndarray], moduli: List[int]) -> List[int]:
    """The integers in the symmetric range mod prod(moduli) with the
    given residues, coefficient by coefficient."""
    M = prod(moduli)
    # the CRT weight of q is 1 mod q and 0 mod every other modulus
    weights = [M // q * pow(M // q % q, -1, q) for q in moduli]
    out = []
    for column in zip(*(arr.tolist() for arr in residue_arrays)):
        acc = sum(r * w for r, w in zip(column, weights)) % M
        if acc > M // 2:
            acc -= M
        out.append(acc)
    return out
