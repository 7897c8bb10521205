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
once and reused for every prime's integer matrix.

The cuspidal matrix of each T_p is integral in the basis of free
classes, so it is built once over Z.  The relation solve (3 nonzeros
per row) and the cuspidal basis (one row per cusp class) take their
matrices as sparse rows: each is row-reduced modulo one 26-bit prime by
sparse elimination, lifted to the symmetric range and proved exact over
Z by a sparse product.  Every dense row reduction clears a pivot's
column with one rank-1 update of the rows gathered where that column is
nonzero.

The Atkin-Lehner involutions W_Q (Q || N a prime power) are built the
same way, each from the one matrix [[Q, y], [N, Q w]] of determinant Q,
and proved exactly to be commuting involutions that commute with every
T_p.  So T_p preserves each joint sign space V_s of the W_Q, and its
characteristic polynomial is the product of those on the V_s.  Each
V_s, about g / 2^k wide, gets an integer basis B_s once: d_s pivot
columns of the projector P_s = prod(I + s_i W_i), whose trace is
2^k d_s.  The pivots are read off a (d_s + 4) x g sketch S P_s, with S
fixed-seed and {-1, 0, 1}-valued, instead of the g x g projector.
Each CRT modulus q then row-reduces [B_s | T_p B_s] on d_s rows where
B_s is invertible to read off T_p on V_s (a modulus where that block is
singular is skipped) and computes all its block charpolys in one
batched Hessenberg reduction, each block zero-padded to the largest.
Each block is lifted from the coefficient bound that Deligne's
|a_p| <= 2 sqrt(p) gives at its own size and re-verified against
held-out moduli.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from math import comb, gcd, isqrt, prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
    # remaining freedom: the units t = 1 (mod N/g) carry d1 to exactly
    # the d = d1 (mod N/g) with gcd(d, g) = 1; the least is canonical
    d = d1 % step
    while gcd(d, g) != 1:
        d += step
    return (g, d)


def p1_list(N: int) -> List[Tuple[int, int]]:
    """All canonical representatives of P^1(Z/N), sorted."""
    if N == 1:
        return [(0, 0)]
    out = {(0, 1)}
    for d in range(N):
        out.add((1, d))
    for g in divisors(N):
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
    symbols: List[Tuple[int, int]]
    index: Dict[Tuple[int, int], int]
    cls: List[int]  # symbol -> class id, or -1 if forced zero
    sgn: List[int]  # symbol -> sign relative to class representative
    n_classes: int
    class_rep: List[int]  # class id -> a symbol index with sign +1
    rows: List[Tuple[Tuple[int, int], ...]]  # 3-term relations, (class, coeff)
    cusp_reps: List[Tuple[int, int]]  # star-merged cusp classes
    boundary: List[Tuple[Tuple[int, int], ...]]  # class id -> (cusp, coeff)


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


def _path_images(
    N: int, matrices: Sequence[Tuple[int, int, int, int]], sym_index: int
) -> Tuple[Tuple[int, int], ...]:
    """The sum of the images m.x of the sym_index-th canonical symbol x
    under the given integer matrices m = (m11, m12, m21, m22), as a list
    of (symbol index, +-1) contributions; independent of the coefficient
    field."""
    sk = skeleton(N)
    c, d = sk.symbols[sym_index]
    a, b, c0, d0 = _lift_to_sl2z(N, c, d)
    # the underlying path is {alpha, beta} with alpha = g.0 = b/d0,
    # beta = g.infinity = a/c0 (denominator 0 means infinity), and
    # {m.alpha, m.beta} = {infinity, m.beta} - {infinity, m.alpha}
    contributions: List[Tuple[int, int]] = []

    def add_endpoint(num, den, sign):
        if den < 0:
            num, den = -num, -den
        for (cc, dd) in _infty_path(num, den):
            key = p1_normalize(N, cc, dd)
            if key is None:
                continue
            contributions.append((sk.index[key], sign))

    for m11, m12, m21, m22 in matrices:
        add_endpoint(m11 * a + m12 * c0, m21 * a + m22 * c0, 1)  # m.beta
        add_endpoint(m11 * b + m12 * d0, m21 * b + m22 * d0, -1)  # m.alpha
    return tuple(contributions)


@lru_cache(maxsize=None)
def _hecke_paths(N: int, p: int, sym_index: int) -> Tuple[Tuple[int, int], ...]:
    """T_p applied to the sym_index-th canonical symbol, through the
    coset family [[1,k],[0,p]] (k = 0..p-1) and [[p,0],[0,1]]."""
    cosets = [(1, k, 0, p) for k in range(p)] + [(p, 0, 0, 1)]
    return _path_images(N, cosets, sym_index)


def _atkin_lehner_matrix(N: int, Q: int) -> Tuple[int, int, int, int]:
    """W_Q = [[Q, y], [N, Q w]] of determinant Q for Q || N, with
    w = Q^-1 (mod N/Q) and y = (Q w - 1)/(N/Q)."""
    w = pow(Q, -1, N // Q)
    return (Q, (Q * w - 1) // (N // Q), N, Q * w)


def check_hecke_prime(N: int, p) -> None:
    """Raise ValueError unless p is a prime that does not divide the
    level N: the coset formula for T_p is only valid for such p."""
    if isinstance(p, bool) or not isinstance(p, int) or not isprime(p):
        raise ValueError("T_p needs a prime p, got p = %r" % (p,))
    if N % p == 0:
        raise ValueError("p = %d divides the level %d" % (p, N))


# ---------------------------------------------------------------------------
# integer Hecke matrices and multimodular characteristic polynomials

_INT64_LIMIT = 1 << 63
_FLOAT64_EXACT = 1 << 53
# the one-time row reductions run modulo this prime and are lifted to Z
_LIFT_PRIME = (1 << 26) - 5
# _sign_blocks reads each projector's pivots off d_s + 4 sketch rows
_SKETCH_SEED = 0x5EED_B10C
_SKETCH_EXTRA_ROWS = 4


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


def _sparse_int_matmul(rows, E: np.ndarray) -> np.ndarray:
    """M @ E over Z, as int64, for the matrix M whose rows are given as
    (column, value) pairs (values at one column add up) and an int64
    matrix E.

    Entry t of every row is applied in one vectorized step.  Every
    partial sum has absolute value <= max_i sum |M[i]| * max|E|, so the
    product is refused when that bound reaches 2^63."""
    width = max(map(len, rows), default=0)
    cols = np.zeros((len(rows), width), dtype=np.intp)
    vals = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        if row:
            cols[i, : len(row)], vals[i, : len(row)] = zip(*row)
    worst = int(np.abs(vals).sum(axis=1).max(initial=0)) * int(np.abs(E).max(initial=0))
    if worst >= _INT64_LIMIT:
        raise OverflowError(
            "sparse integer product bound max row sum * max|E| = %d reaches 2^63"
            % worst
        )
    out = np.zeros((len(rows), E.shape[1]), dtype=np.int64)
    for t in range(width):
        out += vals[:, t, None] * E[cols[:, t]]
    return out


def _integer_kernel(rows, n: int, N: int, what: str):
    """(E, free): the kernel basis, with E[free] = I, of the n-column
    integer matrix M whose rows are given as (column, value) pairs, as
    an integer matrix.

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
    slot = np.full(n, -1, dtype=np.intp)
    slot[free] = np.arange(len(free))
    # E[pivots] = -rref[:, free], read off the dicts in one pass
    sizes = [len(row) for row in rref]
    total = sum(sizes)
    ks = np.fromiter(chain.from_iterable(rref), dtype=np.intp, count=total)
    vs = np.fromiter(
        chain.from_iterable(row.values() for row in rref), dtype=np.int64, count=total
    )
    at = np.repeat(np.array(pivots, dtype=np.intp), sizes)
    keep = slot[ks] >= 0
    E = np.zeros((n, len(free)), dtype=np.int64)
    E[free, np.arange(len(free))] = 1
    E[at[keep], slot[ks[keep]]] = -vs[keep] % q
    E[E > q // 2] -= q
    identity = np.eye(len(free), dtype=np.int64)
    if not np.array_equal(E[free], identity) or _sparse_int_matmul(rows, E).any():
        raise ArithmeticError(
            "the integer lift of the %s at level %d is not exact" % (what, N)
        )
    return E, free


def _cuspidal_basis(N: int):
    """(expr, free, K, free_b): expr[k] writes class k in the basis of
    the free classes, and the columns of K (K[free_b] = I) are the
    cuspidal basis in those coordinates; field-independent, so built
    once per level."""
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
    return expr, free, K, free_b


def _cuspidal_matrix(N: int, basis, paths, name: str) -> np.ndarray:
    """The integer g x g matrix, in the cuspidal basis, of the operator
    that sends the symbol of index i to ``paths(i)``."""
    sk = skeleton(N)
    expr, free, K, free_b = basis
    # C[k, j]: signed count of class k in the image of free class j
    ks, js, vs = [], [], []
    for j, c in enumerate(free):
        for sym_idx, sign in paths(sk.class_rep[c]):
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
        raise ArithmeticError(
            "cuspidal subspace is not %s-stable at level %d" % (name, N)
        )
    return A


def _hecke_matrices(N: int, basis, primes: Sequence[int]) -> Dict[int, np.ndarray]:
    return {
        p: _cuspidal_matrix(N, basis, partial(_hecke_paths, N, p), "T_%d" % p)
        for p in primes
    }


def _atkin_lehner_involutions(
    N: int, basis, matrices: Dict[int, np.ndarray]
) -> List[np.ndarray]:
    """W_Q in the cuspidal basis for each prime power Q || N, proved
    exactly to be commuting involutions that commute with every T_p."""
    identity = np.eye(basis[2].shape[1], dtype=np.int64)
    involutions: Dict[str, np.ndarray] = {}
    for ell, e in factorint(N).items():
        name = "W_%d" % ell ** e
        image = [_atkin_lehner_matrix(N, ell ** e)]
        W = _cuspidal_matrix(N, basis, partial(_path_images, N, image), name)
        if not np.array_equal(_int_matmul(W, W), identity):
            raise ArithmeticError("%s^2 != 1 at level %d" % (name, N))
        others = [*involutions.items()] + [("T_%d" % p, A) for p, A in matrices.items()]
        for other, A in others:
            if not np.array_equal(_int_matmul(W, A), _int_matmul(A, W)):
                raise ArithmeticError(
                    "%s does not commute with %s at level %d" % (name, other, N)
                )
        involutions[name] = W
    return list(involutions.values())


def _sketch(rows: int, cols: int) -> np.ndarray:
    """A rows x cols int8 matrix with entries in {-1, 0, 1}, drawn from
    a fixed-seed stdlib stream."""
    draw = np.frombuffer(random.Random(_SKETCH_SEED).randbytes(rows * cols), np.uint8)
    return (draw % 3).astype(np.int8).reshape(rows, cols) - 1


def _sign_blocks(N: int, involutions: List[np.ndarray], g: int):
    """(B_s, rows_s) for each nonzero joint sign space V_s of the
    involutions: the integer columns of B_s are a basis of V_s, and
    B_s[rows_s] is invertible.

    B_s is a set of pivot columns of the integer projector
    P_s = prod(I + s_i W_i), whose image is V_s and whose trace is
    2^k d_s, d_s = dim V_s.  (The reduced echelon bases of the V_s are
    not integral, so the kernel lift does not apply.)  The pivots are
    read off S_s P_s, where S_s is the leading d_s + 4 rows of one
    fixed-seed sketch with entries in {-1, 0, 1}: the row space of
    S_s P_s lies in that of P_s, so when its rank mod q is d_s the two
    row spaces, their echelon forms and their pivots are equal.  If the
    rank comes out lower, P_s itself is reduced."""
    identity = np.eye(g, dtype=np.int64)

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

    sketch = _sketch(g + _SKETCH_EXTRA_ROWS, g)
    blocks = []
    for signs, P in projectors((), identity, involutions):
        d, rem = divmod(int(np.trace(P)), 1 << len(involutions))
        S = sketch[: d + _SKETCH_EXTRA_ROWS]
        _, cols = _rref_mod(_int_matmul(S, P), _LIFT_PRIME)
        if len(cols) < d:
            _, cols = _rref_mod(P, _LIFT_PRIME)
        if rem or len(cols) != d:
            raise ArithmeticError(
                "sign space %s at level %d has trace %d and rank %d"
                % (signs, N, int(np.trace(P)), len(cols))
            )
        if d:
            B = P[:, cols]
            blocks.append((B, _rref_mod(B.T, _LIFT_PRIME)[1]))
    if sum(B.shape[1] for B, _ in blocks) != g:
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


def _crt_moduli(g: int) -> Iterator[int]:
    """Primes below min(2^26, isqrt((2^63 - 1) // g)), largest first, so
    that a charpoly of a g x g matrix modulo any of them fits int64."""
    q = min(1 << 26, isqrt((2 ** 63 - 1) // max(g, 1))) - 1
    while q > 2:
        if isprime(q):
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

    The integer matrices of T_p and of the Atkin-Lehner involutions W_Q
    are built once, and the cuspidal space is split into the joint sign
    spaces of the W_Q, which every T_p preserves.  Each modulus solves
    for T_p on every sign space and computes those block charpolys in
    one batched call.  A block's charpoly is CRT-lifted from the fewest
    moduli whose product exceeds twice the coefficient bound from
    Deligne's |a_p| <= 2 sqrt(p) at the block's size, re-verified
    against the next ``_VERIFICATION_MODULI`` (2) moduli, and the block
    charpolys are multiplied over Z.  ``progress(i, n)``, if given, is called after
    the i-th of the n moduli."""
    for p in primes:
        check_hecke_prime(N, p)
    g = genus_x0(N)
    basis = _cuspidal_basis(N)
    matrices = _hecke_matrices(N, basis, primes)
    involutions = _atkin_lehner_involutions(N, basis, matrices)
    # per block, [B_s | T_p B_s ...] on rows_s: row reduction mod q gives
    # [I | X_p ...] with T_p B_s = B_s X_p, X_p in column slot[p]
    slot = {p: k for k, p in enumerate(matrices, 1)}
    systems = [
        np.hstack([B[rows]] + [_int_matmul(A[rows], B) for A in matrices.values()])
        for B, rows in _sign_blocks(N, involutions, g)
    ]
    # isqrt(4p - 1) + 1 = ceil(2 sqrt(p))
    bounds = {
        (j, p): 2 * _coeff_bound(Y.shape[0], isqrt(4 * p - 1) + 1)
        for j, Y in enumerate(systems)
        for p in matrices
    }
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
            # some B_s[rows_s] is singular mod q: use the next prime instead
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
