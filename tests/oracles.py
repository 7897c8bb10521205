"""Independent oracles that the tests (and the demos) compare the
library against; none of them is on a ``certify`` path.

* eta-product q-expansions: for a handful of small levels the unique
  weight-2 newform is a product of Dedekind eta functions
  (eta(tau)^2 eta(11 tau)^2 at level 11, eta(1)eta(2)eta(7)eta(14) at
  level 14, eta(1)eta(3)eta(5)eta(15) at level 15), so its coefficients
  a_p can be read off a truncated product of Euler factors with no
  modular-symbol machinery at all;
* the dimension-3 system of the irreducibility ledger, solved by
  exhaustive search over F_ell^2;
* the integer Hecke matrices T_p on the cuspidal plus-space, which
  the library only uses inside its multimodular charpoly engine;
* deg gcd(h, r) per counting lane by a masked, inversion-free
  polynomial remainder sequence, which the counting kernel's divsteps
  replaced;
* |C(F_{p^m})| by enumerating P^2(F_{p^m}), for small fields;
* the eliminants of the bad-prime search and the singular scan by
  sympy's bivariate subresultants, which Kronecker substitution into
  ``int_resultant`` replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.rings import ring

from quartic_galois.curve import LPolynomial, TernaryQuarticForm
from quartic_galois.fields import make_field
from quartic_galois.modsym import _cuspidal_basis, _hecke_matrices, check_hecke_prime

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
    if ell == lp.p or ell % 2 == 0 or not sympy.isprime(ell):
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

# an affine chart whose generator 0 is the variable a resultant eliminates
_ELIM = ring("u,v", ZZ)[0]


def _affine(coeff_map, first: int, second: int):
    """A homogeneous coefficient map on the chart where the third
    variable is 1, as an element of ``_ELIM`` in (first, second)."""
    return _ELIM.from_dict(
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
