"""Independent oracles that the tests (and the demos) compare the
library against; none of them is on a ``certify`` path.

* eta-product q-expansions: for a handful of small levels the unique
  weight-2 newform is a product of Dedekind eta functions
  (eta(tau)^2 eta(11 tau)^2 at level 11, eta(1)eta(2)eta(7)eta(14) at
  level 14, eta(1)eta(3)eta(5)eta(15) at level 15), so its coefficients
  a_p can be read off a truncated product of Euler factors with no
  modular-symbol machinery at all;
* the case split of the irreducibility ledger: every (dimension,
  determinant-exponent) profile of a proper decomposition of J[ell],
  with the family that excludes it; the ledger hard-codes its three
  families;
* the dimension-3 system of the irreducibility ledger, solved by
  exhaustive search over F_ell^2;
* the integer Hecke matrices T_p on the cuspidal plus-space, which
  the library only uses inside its multimodular charpoly engine;
* P^1(Z/N) by scalar normalization, the sign classes by a union-find,
  the cusp classes by pairwise equivalence tests, and T_p through the
  p + 1 degeneracy cosets with continued-fraction paths and a dense
  assembly, which the table index, the Klein-group orbits, the cusp
  keys, Merel's matrices and the sparse assembly replaced;
* deg gcd(h, r) per counting lane by a masked, inversion-free
  polynomial remainder sequence, which the counting kernel's divsteps
  replaced;
* |C(F_{p^m})| by enumerating P^2(F_{p^m}), for small fields;
* the eliminants of the singular scan and the old iterated-elimination
  bad-prime candidates by sympy's bivariate subresultants, which
  Kronecker substitution into ``int_resultant`` and then the Macaulay
  resultant of the partials replaced;
* changes of coordinates and irreducibility over Q by sympy's sparse
  ``PolyRing`` (``compose`` and ``factor_list``), which direct
  substitution and the Macaulay resultant replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, isqrt
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from quartic_galois.arith import divisors
from quartic_galois.curve import LPolynomial, TernaryQuarticForm
from quartic_galois.fields import make_field
from quartic_galois.modsym import (
    _cuspidal_basis,
    _hecke_matrices,
    _lift_to_sl2z,
    _reduce_cusp,
    check_hecke_prime,
    skeleton,
)

# ---------------------------------------------------------------------------
# eta products


@dataclass(frozen=True)
class EtaProductSpec:
    """The product of eta(d*tau)^r over the listed (d, r) pairs,
    truncated at q-degree D (after normalizing the leading power)."""

    factors: Tuple[Tuple[int, int], ...]
    truncation: int

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation degree must be >= 1")
        for d, r in self.factors:
            if d < 1 or r < 1:
                raise ValueError("eta multipliers and exponents must be >= 1")
        self.leading_power  # validates 24 | sum(d * r)

    @property
    def leading_power(self) -> int:
        total = sum(d * r for d, r in self.factors)
        if total % 24:
            raise ValueError(
                "sum of d*r is %d, not divisible by 24: leading q-power "
                "is not integral" % total
            )
        return total // 24


def eta_product_qexp(spec: EtaProductSpec) -> List[int]:
    """Integer coefficients c_0..c_D of the normalized expansion
    q^(-t) * prod eta(d tau)^r = prod_n (1 - q^(d n))^r, with
    t = sum(d r)/24 the leading power."""
    spec.leading_power  # validates integrality
    D = spec.truncation
    series = [0] * (D + 1)
    series[0] = 1
    for d, r in spec.factors:
        for _ in range(r):
            n = 1
            while d * n <= D:
                # multiply by (1 - q^(d n)) in place, truncating at D
                step = d * n
                for k in range(D, step - 1, -1):
                    series[k] -= series[k - step]
                n += 1
    return series


def newform_ap(factors: Sequence[Tuple[int, int]], p: int) -> int:
    """a_p of the eta-product newform f = q^t * (normalized expansion):
    the q^p coefficient of f, i.e. index p - t of the expansion."""
    spec = EtaProductSpec(factors=tuple(factors), truncation=p)
    t = spec.leading_power
    if p < t:
        raise ValueError("truncation below the leading power")
    return eta_product_qexp(spec)[p - t]


# the eta-product newforms used as oracles, keyed by level
ETA_NEWFORMS = {
    11: ((1, 2), (11, 2)),
    14: ((1, 1), (2, 1), (7, 1), (14, 1)),
    15: ((1, 1), (3, 1), (5, 1), (15, 1)),
}


# ---------------------------------------------------------------------------
# the case split of the irreducibility ledger


@dataclass(frozen=True)
class CaseProfile:
    """A multiset of (dimension, determinant-exponent) pairs.

    ``dims`` is a partition of 6 into at least two parts; ``exps[i]`` is
    the exponent e_i of the cyclotomic character in the determinant of
    the i-th factor, constrained by 0 <= e_i <= d_i, sum e_i = 3, and
    the multiset identity {e_i} = {d_i - e_i} coming from the Weil
    pairing.
    """

    dims: Tuple[int, ...]
    exps: Tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) < 2 or sum(self.dims) != 6:
            raise ValueError("dims must be a partition of 6 with >= 2 parts")
        if len(self.exps) != len(self.dims):
            raise ValueError("one exponent per dimension required")
        if any(not 0 <= e <= d for d, e in zip(self.dims, self.exps)):
            raise ValueError("exponents must satisfy 0 <= e_i <= d_i")
        if sum(self.exps) != 3:
            raise ValueError("exponents must sum to 3")
        if sorted(self.exps) != sorted(
            d - e for d, e in zip(self.dims, self.exps)
        ):
            raise ValueError("multiset {e_i} must equal {d_i - e_i}")

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(zip(self.dims, self.exps)))

    @property
    def family(self) -> str:
        """Which exclusion family handles this profile."""
        if 1 in self.dims:
            return "dim1"
        if min(self.dims) == 3:
            return "dim3"
        return "dim2"


def _partitions(n: int, max_part: int) -> Iterable[Tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(1, min(n, max_part) + 1):
        for rest in _partitions(n - first, first):
            yield rest + (first,)


def enumerate_case_profiles() -> Tuple[CaseProfile, ...]:
    """All valid profiles, canonicalized.

    Profiles related by the global swap e_i -> d_i - e_i describe the
    same decomposition with the roles of paired factors exchanged; each
    such class is represented once, by the lexicographically smaller
    labeling (so a (3,3) profile always shows an exponent <= 1).
    """
    seen = {}
    for dims in _partitions(6, 6):
        if len(dims) < 2:
            continue

        def search(i, left, acc):
            if i == len(dims):
                if left == 0:
                    yield tuple(acc)
                return
            for e in range(0, min(dims[i], left) + 1):
                yield from search(i + 1, left - e, acc + [e])

        for exps in search(0, 3, []):
            if sorted(exps) != sorted(d - e for d, e in zip(dims, exps)):
                continue
            pairs = tuple(sorted(zip(dims, exps)))
            dual = tuple(sorted((d, d - e) for d, e in zip(dims, exps)))
            key = min(pairs, dual)
            if key not in seen:
                d_sorted, e_sorted = zip(*key)
                seen[key] = CaseProfile(dims=d_sorted, exps=e_sorted)
    return tuple(sorted(seen.values(), key=lambda c: c.pairs))




# ---------------------------------------------------------------------------
# the dimension-3 system by exhaustive search

# the tests compare the search with dim3_obstruction at every odd ell
# up to this bound
ORACLE_BOUND = 50


@dataclass(frozen=True)
class Dim3Solution:
    ell: int
    e: int
    solutions: FrozenSet[Tuple[int, int]]


def dim3_solutions(lp: LPolynomial, e: int, ell: int) -> Dim3Solution:
    """Exhaustive solutions over F_ell^2 of the coefficient-matching
    system for P_p = (T^3 - uT^2 + vT - p^e)(T^3 - p^(1-e)vT^2 +
    p^(2-e)uT - p^(3-e)):

        p^(1-e) v + u = -a
        p^(2-e) u + p^(1-e) u v + v = b
        p^(3-e) + p^(2-e) u^2 + p^(1-e) v^2 + p^e = -c
    """
    if e not in (0, 1):
        raise ValueError("determinant exponent e must be 0 or 1")
    odd_prime = ell > 2 and all(ell % d for d in range(2, isqrt(ell) + 1))
    if ell == lp.p or not odd_prime:
        raise ValueError("ell must be an odd prime different from p")
    p, a, b, c = lp.p, lp.a, lp.b, lp.c
    p1, p2, p3, pe = p ** (1 - e), p ** (2 - e), p ** (3 - e), p ** e
    sols = set()
    for u in range(ell):
        for v in range(ell):
            if (p1 * v + u + a) % ell:
                continue
            if (p2 * u + p1 * u * v + v - b) % ell:
                continue
            if (p3 + p2 * u * u + p1 * v * v + pe + c) % ell:
                continue
            sols.add((u, v))
    return Dim3Solution(ell=ell, e=e, solutions=frozenset(sols))


# ---------------------------------------------------------------------------
# integer Hecke matrices


def integer_hecke_matrices(N: int, primes: Sequence[int]) -> Dict[int, np.ndarray]:
    """T_p on the cuspidal plus-space at level N, for each given good
    prime p, as an integer g x g matrix (int64) in the cuspidal basis K
    with K[free_b] = I, built by the same exact steps as
    ``hecke_charpolys_multimodular``."""
    for p in primes:
        check_hecke_prime(N, p)
    return _hecke_matrices(N, _cuspidal_basis(N), primes)


# ---------------------------------------------------------------------------
# P^1(Z/N), the sign and cusp classes and T_p by scalar Python


def coeff_bound(n: int, eigen_bound: int) -> int:
    """Bound on every |c_k| of a monic degree-n polynomial whose roots
    all have absolute value <= eigen_bound: max_k C(n, k) eigen_bound^k
    (with eigen_bound = ceil(2 sqrt p), the bound from Deligne's bound alone)."""
    return max(comb(n, k) * eigen_bound ** k for k in range(n + 1))


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


def union_find_sign_classes(N: int):
    """(cls, sgn, class_rep) of the 2-term and star relations x = -x.S,
    x = x.eta on ``p1_list(N)``, by a union-find that merges each x
    with x.S and x.eta in index order: the classes are numbered in order
    of first symbol, represented by their roots, and a class whose signs
    contradict each other is forced zero (class -1, sign 0)."""
    symbols = p1_list(N)
    index = {s: i for i, s in enumerate(symbols)}
    n = len(symbols)
    parent, rel, zero = list(range(n)), [1] * n, [False] * n

    def find(i):
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        s = 1
        for j in reversed(path):
            s *= rel[j]
            parent[j], rel[j] = i, s
        return i

    def union(i, j, s):
        # impose value(i) = s * value(j)
        ri, rj = find(i), find(j)
        if ri == rj:
            zero[ri] |= rel[i] != s * rel[j]
            return
        parent[rj], rel[rj] = ri, rel[i] * s * rel[j]
        zero[ri] |= zero[rj]

    for i, (c, d) in enumerate(symbols):
        union(i, index[p1_normalize(N, d, -c)], -1)
        union(i, index[p1_normalize(N, -c, d)], 1)
    cls, sgn, class_rep, root_to_class = [-1] * n, [0] * n, [], {}
    for i in range(n):
        r = find(i)
        if not zero[r]:
            cls[i] = root_to_class.setdefault(r, len(class_rep))
            if cls[i] == len(class_rep):
                class_rep.append(r)
            sgn[i] = rel[i]
    return cls, sgn, class_rep


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


def scan_cusp_classes(N: int):
    """(cusp_reps, boundary) of ``skeleton(N)`` recomputed by testing each
    boundary cusp against the classes found so far with
    ``_cusps_equivalent``, with and without the star involution."""
    sk = skeleton(N)
    cusp_reps: List[Tuple[int, int]] = []

    def cusp_class(num, den):
        cu = _reduce_cusp(num, den)
        for j, rep in enumerate(cusp_reps):
            if _cusps_equivalent(N, cu, rep) or _cusps_equivalent(N, (-cu[0], cu[1]), rep):
                return j
        cusp_reps.append(cu)
        return len(cusp_reps) - 1

    boundary = []
    for r in sk.class_rep:
        a, b, c0, d0 = _lift_to_sl2z(N, *sk.symbols[r])
        acc: Dict[int, int] = {}
        for j, v in ((cusp_class(a, c0), 1), (cusp_class(b, d0), -1)):
            acc[j] = acc.get(j, 0) + v
        boundary.append(tuple(sorted((k, v) for k, v in acc.items() if v)))
    return cusp_reps, boundary


def _infty_path(num: int, den: int) -> List[Tuple[int, int]]:
    """Symbols (c, d) with {infinity, num/den} = sum of [(c:d)]: one
    (q_j, (-1)^(j-1) q_(j-1)) per convergent denominator q_j (q_(-1) = 0)."""
    terms = []
    q_prev, q_prev2, sign = 0, 1, -1
    while den:
        q, rem = divmod(num, den)
        q_j = q * q_prev + q_prev2
        terms.append((q_j, sign * q_prev))
        num, den = den, rem
        q_prev, q_prev2, sign = q_j, q_prev, -sign
    return terms


@lru_cache(maxsize=None)
def coset_hecke_paths(N: int, p: int, sym_index: int) -> Tuple[Tuple[int, int], ...]:
    """T_p of the sym_index-th symbol of ``p1_list(N)`` as (symbol index,
    +-1) contributions, through the coset family [[1,k],[0,p]]
    (k = 0..p-1) and [[p,0],[0,1]]: each image path {m.alpha, m.beta} =
    {oo, m.beta} - {oo, m.alpha} of the lift's path {b/d, a/c}, expanded
    by continued fractions (Manin's trick)."""
    symbols, index = _p1_index(N)
    a, b, c0, d0 = _lift_to_sl2z(N, *symbols[sym_index])
    out = []
    for m11, m12, m21, m22 in [(1, k, 0, p) for k in range(p)] + [(p, 0, 0, 1)]:
        for num, den, sign in (
            (m11 * a + m12 * c0, m21 * a + m22 * c0, 1),
            (m11 * b + m12 * d0, m21 * b + m22 * d0, -1),
        ):
            if den < 0:
                num, den = -num, -den
            for cc, dd in _infty_path(num, den):
                key = p1_normalize(N, cc, dd)
                if key is not None:
                    out.append((index[key], sign))
    return tuple(out)


@lru_cache(maxsize=None)
def _p1_index(N: int):
    symbols = p1_list(N)
    return symbols, {s: i for i, s in enumerate(symbols)}


def dense(csr, ncols: int) -> np.ndarray:
    """The int64 matrix with ncols columns whose rows are given as CSR
    arrays (indptr, columns, values)."""
    indptr, cols, vals = csr
    out = np.zeros((len(indptr) - 1, ncols), dtype=np.int64)
    out[np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), cols] = vals
    return out


def coset_hecke_matrix(N: int, p: int) -> np.ndarray:
    """T_p in the library's cuspidal basis, from ``coset_hecke_paths`` and
    the dense product expr^T C K in int64 (C: the signed class counts of
    the image of each free class), checked K A = M."""
    sk = skeleton(N)
    basis = _cuspidal_basis(N)
    expr = dense(basis.expr, len(basis.free))
    K = dense(basis.K, len(basis.free_b))
    C = np.zeros((sk.n_classes, len(basis.free)), dtype=np.int64)
    for j, k in enumerate(basis.free):
        for i, sign in coset_hecke_paths(N, p, sk.class_rep[k]):
            if sk.cls_of[i] >= 0:
                C[sk.cls_of[i], j] += sign * sk.sgn_of[i]
    M = expr.T @ C @ K
    A = M[basis.free_b]
    assert np.array_equal(K @ A, M)
    return A


# ---------------------------------------------------------------------------
# gcd degrees by a remainder sequence


def _deg(parr: np.ndarray) -> np.ndarray:
    """Degree per lane of polynomials stored (m, slot, lanes); -1 for 0."""
    nz = np.any(parr != 0, axis=0)
    top = parr.shape[1] - 1 - np.argmax(nz[::-1], axis=0)
    return np.where(nz.any(axis=0), top, -1)


def _shift(parr: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Each lane's polynomial times y^s, dropping slots that overflow."""
    idx = np.arange(parr.shape[1])[:, None] - s
    out = np.take_along_axis(parr, np.maximum(idx, 0)[None], axis=1)
    return out * (idx >= 0)


def remainder_sequence_degrees(vf, h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """deg gcd(h, r) per lane, h monic of degree d ((m, d, lanes) holds
    a0..a_{d-1}), r of degree < d ((m, d, lanes)), on the lanes of the
    counting kernel's ``_VecField`` ``vf``."""
    m, d, lanes = h.shape
    A = np.zeros((m, d + 1, lanes), dtype=vf.dtype)
    A[:, :d] = h
    A[0, d] = 1
    B = np.zeros_like(A)
    B[:, :d] = r
    degA, degB = np.full(lanes, d), _deg(B)
    one = np.zeros((m, 1, lanes), dtype=vf.dtype)
    one[0] = 1
    for _ in range(64):
        # a lane is done once B is zero (gcd A) or a unit (gcd 1)
        active = degB >= 1
        if not active.any():
            break
        # A <- lc(B) A - lc(A) y^(degA - degB) B on the active lanes;
        # elsewhere lc(B) is taken as 1 and B is shifted out of range
        lcA = np.take_along_axis(A, degA[None, None], axis=1)
        lcB = np.take_along_axis(B, degB[None, None], axis=1)
        lcB = np.where(active, lcB, one)
        shifted = _shift(B, np.where(active, degA - degB, d + 1))
        acc = np.zeros((2 * m - 1, d + 1, lanes), dtype=vf.dtype)
        for i in range(m):
            acc[i:i + m] += lcB[i] * A
            acc[i:i + m] -= lcA[i] * shifted
        A = vf.reduce(acc)
        degA = _deg(A)
        swap = degA < degB
        if swap.any():
            A, B = np.where(swap, B, A), np.where(swap, A, B)
            degA, degB = np.maximum(degA, degB), np.minimum(degA, degB)
    else:
        raise ArithmeticError("polynomial remainder sequence did not terminate")
    return np.where(degB == 0, 0, degA)


# ---------------------------------------------------------------------------
# point counts by enumeration


def brute_count(curve: TernaryQuarticForm, p: int, m: int) -> int:
    """|C(F_{p^m})| by evaluating the form at every point of
    P^2(F_{p^m}): (1 : y : z), (0 : 1 : z) and (0 : 0 : 1)."""
    F = make_field(p, m)
    els = list(F.elements())
    one, zero = F.one(), F.zero()
    points = [(one, y, z) for y in els for z in els]
    points += [(zero, one, z) for z in els] + [(zero, zero, one)]
    return sum(F.is_zero(curve.evaluate(F, pt)) for pt in points)


# ---------------------------------------------------------------------------
# eliminants by sympy's subresultants

@lru_cache(maxsize=None)
def _ring(names: str):
    """sympy's sparse integer polynomial ring in ``names``, imported on
    first use so that the demos, which use the other oracles, run
    without sympy."""
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    return ring(names, ZZ)[0]


def _affine(coeff_map, first: int, second: int):
    """A homogeneous coefficient map on the chart where the third
    variable is 1, as an element of the ring in (u, v) = (first, second),
    so that u is the variable a resultant eliminates."""
    return _ring("u,v").from_dict(
        {(e[first], e[second]): c for e, c in coeff_map.items()}
    )


def sympy_eliminant(f_map, g_map, first: int, second: int) -> List[int]:
    """Res over Z[second] of two coefficient maps on the chart where the
    third variable is 1, eliminating ``first``, by sympy's subresultant
    PRS: dense coefficients, low degree first ([] for zero)."""
    r = _affine(f_map, first, second).resultant(_affine(g_map, first, second))
    return [int(c) for c in r.to_dense()[::-1]]


def sympy_bad_prime_candidates(curve: TernaryQuarticForm) -> int:
    """The gcd of the nonzero |Res_v(Res_u(f, f_u), Res_u(f, f_v))| over
    the three charts and both orders of their variables (u, v), by
    sympy's subresultants; 0 when every value vanishes."""
    maps = [curve.coeffs] + [curve.partial(t) for t in range(3)]
    vals = []
    for chart in range(3):
        u, v = (t for t in range(3) if t != chart)
        for first, second in ((u, v), (v, u)):
            g, gu, gv = (_affine(maps[t], first, second) for t in (0, 1 + u, 1 + v))
            vals.append(abs(int(g.resultant(gu).resultant(g.resultant(gv)))))
    return gcd(*vals)


# ---------------------------------------------------------------------------
# changes of coordinates and factorization over Q by sympy's PolyRing

def sympy_in_coordinates(curve: TernaryQuarticForm, a, b, c) -> Dict:
    """The coefficient map of F(Xa + Yb + Zc) by ``PolyRing.compose``."""
    xyz = _ring("x,y,z")
    X, Y, Z = xyz.gens
    images = [a[v] * X + b[v] * Y + c[v] * Z for v in range(3)]
    f = xyz.from_dict(curve.coeffs)
    return dict(f.compose(list(zip(xyz.gens, images))).items())


def sympy_is_irreducible_over_q(curve: TernaryQuarticForm) -> bool:
    factors = _ring("x,y,z").from_dict(curve.coeffs).factor_list()[1]
    return len(factors) == 1 and factors[0][1] == 1
