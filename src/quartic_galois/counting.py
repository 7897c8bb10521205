"""Exact point counting on plane quartics over F_{p^m}, vectorized.

The affine count over a field of q = p^m elements runs one coordinate x
over F_q as numpy "lanes".  For each lane the curve restricts to a monic
quartic h_x(y), and the number of its distinct roots in F_q is
deg gcd(y^q - y, h_x).  That degree comes from y^p mod h_x by
square-and-multiply from y^t, t the top three bits of p, then
y^(p^k) = sum sigma(c_j) (y^p)^j for y^(p^(k-1)) = sum c_j y^j, and
eight branch-free, inversion-free divsteps (Bernstein-Yang), all run
simultaneously on every lane.

Frobenius orbits.  The curve has coefficients in F_p, so the Frobenius
sigma(x) = x^p maps h_x to h_{sigma(x)} = sigma(h_x), and the two have
the same number of distinct roots.  Only one x per orbit is counted:
the one whose base-p index is smallest in its orbit, weighted by the
orbit size (the least k >= 1 with sigma^k(x) = x).  Frobenius is
F_p-linear on coordinate vectors, so it is one sparse m x m map mod p.
F_{p^3} needs p + (p^3 - p)/3 lanes and F_{p^2} needs p + (p^2 - p)/2.

Block layout.  The indices 0..q-1 are cut into ranges of _BLOCK * m,
and each range is filtered to its orbit representatives just before
its kernel runs, so the whole field is never held at once.  A range
holds from 0 to _BLOCK * m representatives (14 of the 32 ranges of
F_{73^3} hold none, and one holds 12,288); an empty one skips the
kernel.  Within a block, field elements are integer coordinate vectors
mod p in the canonical polynomial basis, stored structure-of-arrays as
(m, slot, lanes): coordinate first, then polynomial slot, then lane,
so every coordinate of every slot is one contiguous lane vector.  The
lanes are int32 when the kernel's range bound for (p, m) fits in 31
bits (every m = 3 field in the budget, m = 2 up to p = 401) and int64
otherwise, and residues are taken by floor division, a - (a // p) * p,
which numpy vectorizes where its ``%`` does not.  All arithmetic is
exact.

Threads.  Numpy releases the interpreter lock inside the kernel, so
blocks run in parallel on threads.  :func:`l_polynomial_table` plans
every count of the table first; a count of one block then runs on the
calling thread, and the blocks of all the other counts share one pool
with one thread per usable CPU (``os.sched_getaffinity``, so ``taskset``
limits it), largest field first.  The sums are exact, so the answer does
not depend on the thread count or order.

The public entry points are :func:`count_points`, :func:`l_polynomial`
and :func:`l_polynomial_table`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .curve import (
    LPolynomial,
    TernaryQuarticForm,
    coordinate_line_poly,
    singular_points,
)
from .fields import make_field
from .polys import FqPoly

_FIELD_BUDGET = 10 ** 7
_BRUTE_LIMIT = 512
_BLOCK = 4096  # a kernel block is a range of _BLOCK * m field indices
_THREADS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)
_INT32_LIMIT = 2 ** 31  # lane range bounds below this run on int32


class BadReductionError(ValueError):
    """The curve is singular over the requested prime."""


class BudgetExceededError(ValueError):
    """The requested field exceeds the configured size budget."""


class _VecField:
    """Vectorized F_{p^m} arithmetic on integer arrays of shape (m, ...).

    Axis 0 holds the coordinates in the polynomial basis, so each
    coordinate is one contiguous array over the trailing (slot, lane)
    axes.  The reduction and Frobenius tables are built per (p, m) when
    the field is made, as sparse (row, column, constant) terms.
    ``dtype`` is int32 when every value the kernel forms stays below
    2^31, else int64; :meth:`mod` reduces to [0, p) by floor division,
    negative inputs included.
    """

    def __init__(self, p: int, m: int):
        # the kernel sums at most 16m products of residues before one
        # reduction multiplies them by constants below p
        bound = 16 * m * p * p * (1 + (m - 1) * p)
        if bound >= 2 ** 63:
            raise OverflowError("F_%d^%d overflows int64 lanes" % (p, m))
        self.dtype = np.int32 if bound < _INT32_LIMIT else np.int64
        fd = make_field(p, m)
        self.p, self.m = p, m
        # rows[t] = x^(m+t) in the polynomial basis, t = 0..m-2
        rows = []
        if m > 1:
            cur = [(-c) % p for c in fd.modulus[:m]]
            rows.append(cur)
            for _ in range(m - 2):
                shifted = [0] + cur[:-1]
                over = cur[-1]
                cur = [
                    (shifted[i] + over * rows[0][i]) % p for i in range(m)
                ]
                rows.append(cur)
        self.red = [
            (i, m + t, c)
            for t, row in enumerate(rows)
            for i, c in enumerate(row)
            if c
        ]
        basis = [tuple(int(i == k) for i in range(m)) for k in range(m)]
        self.frob = [
            (i, k, c)
            for k in range(m)
            for i, c in enumerate(fd.frobenius(basis[k]))
            if c
        ]

    def mod(self, a: np.ndarray) -> np.ndarray:
        """a mod p in [0, p), as a - (a // p) * p in one new array."""
        q = a // self.p
        q *= self.p
        return np.subtract(a, q, out=q)

    def reduce(self, acc: np.ndarray) -> np.ndarray:
        """Coordinates mod p of a product given by its 2m - 1 unreduced
        polynomial-basis coefficients along axis 0 (overwrites acc)."""
        out = acc[:self.m]
        for i, k, c in self.red:
            out[i] += c * acc[k]
        return self.mod(out)

    def frobenius(self, a: np.ndarray) -> np.ndarray:
        """a^p, coordinate vectors mapped by the F_p-linear Frobenius."""
        out = np.zeros_like(a)
        for i, k, c in self.frob:
            out[i] += c * a[k]
        return self.mod(out)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        m = self.m
        shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
        acc = np.zeros((2 * m - 1,) + shape, dtype=self.dtype)
        for i in range(m):
            acc[i:i + m] += a[i] * b
        return self.reduce(acc)


def _choose_chart(
    curve: TernaryQuarticForm, p: int
) -> Optional[Tuple[int, int, int]]:
    """A variable ordering (iterate, root, chart) whose pure fourth-power
    root coefficient is a unit mod p, or None."""
    for root, iter_, chart in permutations(range(3)):
        exps = [0, 0, 0]
        exps[root] = 4
        if curve.coeff(*exps) % p != 0:
            return (iter_, root, chart)
    return None


def _brute_count(curve: TernaryQuarticForm, p: int, m: int) -> int:
    F = make_field(p, m)
    els = list(F.elements())
    one, zero = F.one(), F.zero()
    n = 0
    for yv in els:
        for zv in els:
            if F.is_zero(curve.evaluate(F, (one, yv, zv))):
                n += 1
    for zv in els:
        if F.is_zero(curve.evaluate(F, (zero, one, zv))):
            n += 1
    if F.is_zero(curve.evaluate(F, (zero, zero, one))):
        n += 1
    return n


# ---------------------------------------------------------------------------
# vectorized root counting


def _gcd_degrees(vf: _VecField, h4: np.ndarray, r: np.ndarray) -> np.ndarray:
    """deg gcd(h, r) per lane, h monic quartic ((m, 4, lanes) holds
    a0..a3), r of degree <= 3 ((m, 4, lanes)).

    Polynomial divsteps (Bernstein-Yang, "Fast constant-time gcd
    computation and modular inversion", TCHES 2019, Theorem 6.2) on
    f = y^4 h(1/y) and g = y^3 r(1/y) from delta = 1: a step swaps f
    and g where delta > 0 and g(0) != 0, negating delta, then sets
    g <- (f(0) g - g(0) f) / y and adds 1 to delta.  After 7 steps
    delta = 2 deg gcd(h, r).  Each step lowers the sum of the formal
    degrees of f and g (4 + 3 at the start) by one and f(0) never
    vanishes, so an 8th step leaves g = 0 on every lane, which is
    checked, and delta // 2 the degree.  Every lane takes the same
    fixed slices; g is formed from the pair before the swap, which on
    swapped lanes only negates it.
    """
    m, _, lanes = h4.shape
    f = np.zeros((m, 5, lanes), dtype=vf.dtype)
    f[0, 0] = 1
    f[:, 1:] = h4[:, ::-1]
    g = r[:, ::-1]
    delta = np.ones(lanes, dtype=np.int64)
    for _ in range(8):
        swap = (delta > 0) & g[:, 0].any(axis=0)
        # slots 1.. of f(0) g - g(0) f; slot 0 is zero
        acc = np.zeros((2 * m - 1, 4, lanes), dtype=vf.dtype)
        for i in range(m):
            acc[i:i + m, :3] += f[i, 0] * g[:, 1:]
            acc[i:i + m] -= g[i, 0] * f[:, 1:]
        np.copyto(f[:, :4], g, where=swap)
        np.copyto(f[:, 4], 0, where=swap)
        g = vf.reduce(acc)
        delta = np.where(swap, -delta, delta) + 1
    if g.any():
        raise ArithmeticError("gcd divsteps did not reach g = 0")
    return delta // 2


def _orbit_reps(
    vf: _VecField, lo: int, hi: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The elements with base-p index in [lo, hi) that have the smallest
    index in their Frobenius orbit, as (m, lanes) digits, together with
    their orbit sizes."""
    p, m = vf.p, vf.m
    n = np.arange(lo, hi, dtype=vf.dtype)
    place = p ** np.arange(m, dtype=vf.dtype)
    x = vf.mod(n // place[:, None])
    size = np.full(n.shape, m, dtype=vf.dtype)
    keep = np.ones(n.shape, dtype=bool)
    image = x
    for k in range(1, m):
        image = vf.frobenius(image)
        idx = place @ image
        keep &= n <= idx
        size = np.where((idx == n) & (size == m), k, size)
    return x[:, keep], size[keep]


def _frobenius_residues(
    vf: _VecField, coeff_rows: List[List[Tuple[int, int]]], x: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(h4, r) per lane x: the low coefficients of the monic quartic
    h_x(y) and r = y^q - y mod h_x, so that deg gcd(h_x, r) is the
    number of distinct roots of h_x in F_q.

    ``coeff_rows[j]`` lists (coefficient, power-of-iterate) pairs making
    up the (already monic-normalized) y^j coefficient, j = 0..3.  The
    y-power temporaries die with this frame, before the gcd runs.
    """
    p, m = vf.p, vf.m
    lanes = x.shape[1]
    xpow = [np.zeros((m, lanes), dtype=vf.dtype)]
    xpow[0][0] = 1
    for _ in range(4):
        xpow.append(vf.mul(xpow[-1], x))
    h4 = np.zeros((m, 4, lanes), dtype=vf.dtype)
    for j, row in enumerate(coeff_rows):
        for c, d in row:
            h4[:, j] += c * xpow[d]
    h4 = vf.mod(h4)

    def times_y(u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        out[:, 1:] = u[:, :3]
        return vf.mod(out + vf.mul(u[:, 3:], pow4))

    # y^4, y^5, y^6 mod h, stacked as (m, 3, 4, lanes)
    pow4 = vf.mod(-h4)
    pow5 = times_y(pow4)
    high_pows = np.stack([pow4, pow5, times_y(pow5)], axis=1)

    def square(u: np.ndarray) -> np.ndarray:
        # u^2 as a polynomial in (x, y), each cross term taken once
        acc = np.zeros((2 * m - 1, 7, lanes), dtype=vf.dtype)
        twice = 2 * u
        for i in range(m):
            for j in range(4):
                acc[2 * i, 2 * j] += u[i, j] * u[i, j]
                if j < 3:
                    acc[2 * i, 2 * j + 1:j + 4] += twice[i, j] * u[i, j + 1:]
                if i < m - 1:
                    acc[2 * i + 1:i + m, j:j + 4] += twice[i, j] * u[i + 1:]
        # fold y^4..y^6 back with the lane's own powers, then reduce x
        high = vf.reduce(acc[:, 4:])
        low = acc[:, :4]
        for i in range(m):
            for k in range(3):
                low[i:i + m] += high[i, k] * high_pows[:, k]
        return vf.reduce(low)

    def combine(c: np.ndarray, polys: List[np.ndarray]) -> np.ndarray:
        # sum over j of c_j * polys[j], c of shape (m, 4, lanes)
        acc = np.zeros((2 * m - 1, 4, lanes), dtype=vf.dtype)
        for i in range(m):
            for j, poly in enumerate(polys):
                acc[i:i + m] += c[i, j] * poly
        return vf.reduce(acc)

    # Y = y^p by square-and-multiply from y^t, t the top three bits of p
    # (or t = p < 4), then y^(p^k) = sum sigma(c_j) Y^j where
    # y^(p^(k-1)) = sum c_j y^j, since u -> u^p is a ring map
    bits = bin(p)[2:]
    if p < 4:
        r = np.zeros((m, 4, lanes), dtype=vf.dtype)
        r[0, p] = 1
    else:
        t = int(bits[:3], 2)
        r = times_y(high_pows[:, 2]) if t == 7 else high_pows[:, t - 4].copy()
    for bit in bits[3:]:
        r = square(r)
        if bit == "1":
            r = times_y(r)
    if m > 1:
        one = np.zeros_like(r)
        one[0, 0] = 1
        ys = [r]
        for _ in range(3):
            ys.append(times_y(ys[-1]))
        r2 = square(r)
        ypows = [one, r, r2, combine(r2, ys)]
        for _ in range(m - 1):
            r = combine(vf.frobenius(r), ypows)
    r[0, 1] -= 1
    return h4, vf.mod(r)


class _Plan(NamedTuple):
    """|C(F_q)| is ``known`` plus the sum of ``count_block`` over
    ``blocks``, the index ranges of the affine chart."""

    q: int
    known: int
    count_block: Optional[Callable[[Tuple[int, int]], int]]
    blocks: List[Tuple[int, int]]


def _plan_count(curve: TernaryQuarticForm, p: int, m: int) -> _Plan:
    """Checks (p, m) against the budget and the chart, and counts what
    needs no kernel: the brute fallback or the line at infinity."""
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    q = p ** m
    if q > _FIELD_BUDGET:
        raise BudgetExceededError(
            "field size %d exceeds the %d budget" % (q, _FIELD_BUDGET)
        )
    chart = _choose_chart(curve, p)
    if chart is None:
        if q <= _BRUTE_LIMIT:
            return _Plan(q, _brute_count(curve, p, m), None, [])
        raise BudgetExceededError(
            "no coordinate has a unit pure fourth power mod %d and the "
            "field is too large for brute enumeration" % p
        )
    iter_var, root_var, chart_var = chart
    vf = _VecField(p, m)
    # monic normalization: divide by the pure root^4 coefficient
    exps = [0, 0, 0]
    exps[root_var] = 4
    lead = curve.coeff(*exps) % p
    lead_inv = pow(lead, -1, p)
    coeff_rows: List[List[Tuple[int, int]]] = [[] for _ in range(4)]
    for (i, j, k), c in curve.coeffs.items():
        e = (i, j, k)
        jr = e[root_var]
        if jr == 4:
            continue
        coeff_rows[jr].append((c * lead_inv % p, e[iter_var]))

    def count_block(block: Tuple[int, int]) -> int:
        x, orbit_size = _orbit_reps(vf, *block)
        if not orbit_size.size:
            return 0
        try:
            roots = _gcd_degrees(vf, *_frobenius_residues(vf, coeff_rows, x))
        except ArithmeticError as exc:
            exc.prime = p
            raise
        return int(orbit_size @ roots)

    step = _BLOCK * m
    blocks = [(lo, min(lo + step, q)) for lo in range(0, q, step)]

    # the line chart_var = 0: points (u : 1 : 0) plus (1 : 0 : 0).  The
    # line polynomial g has F_p coefficients, so its number of roots in
    # F_q, deg gcd(g, x^q - x), is computed over F_p.
    F = make_field(p, 1)
    g = coordinate_line_poly(curve.coeffs, F, iter_var, chart_var)
    if g.is_zero():
        line = q + 1  # the whole line lies on the curve
    else:
        x = FqPoly.x(F)
        line = g.gcd(x.pow_mod(q, g) - x).degree
        exps = [0, 0, 0]
        exps[iter_var] = 4
        if curve.coeff(*exps) % p == 0:
            line += 1
    return _Plan(q, line, count_block, blocks)


def _run_plans(plans: List[_Plan]) -> List[int]:
    """The counts of ``plans``, in order.  A count of one block runs on
    the calling thread, where a hand-off would cost more than the
    kernel; the blocks of the others share one pool of _THREADS threads,
    largest field first.  The sums are exact, so the thread order cannot
    change a count."""
    def inline(plan: _Plan) -> int:
        return plan.known + sum(map(plan.count_block, plan.blocks))

    pooled = sorted(
        (i for i, plan in enumerate(plans) if len(plan.blocks) > 1),
        key=lambda i: -plans[i].q,
    )
    if not pooled:
        return list(map(inline, plans))
    with ThreadPoolExecutor(max_workers=_THREADS) as pool:
        futures = {
            i: [pool.submit(plans[i].count_block, b) for b in plans[i].blocks]
            for i in pooled
        }
        counts = [
            None if i in futures else inline(plan)
            for i, plan in enumerate(plans)
        ]
        for i, blocks in futures.items():
            counts[i] = plans[i].known + sum(f.result() for f in blocks)
    return counts


def count_points(curve: TernaryQuarticForm, p: int, m: int) -> int:
    """Exact |C(F_{p^m})| as a set of projective points.

    The caller is responsible for checking smoothness of the fiber (see
    :func:`l_polynomial`); the count itself is well defined regardless.
    """
    return _run_plans([_plan_count(curve, p, m)])[0]


def l_polynomial_table(
    curve: TernaryQuarticForm, primes: Sequence[int]
) -> List[LPolynomial]:
    """The L-polynomials at ``primes``, in ascending order, each from
    counts over F_p, F_{p^2}, F_{p^3} via Newton's identities, with the
    Weil root bounds verified.

    Each prime is checked for good reduction and its three counts are
    planned, in ascending order, before any block is counted.  The first
    ValueError or ArithmeticError stops the planning; the primes below
    it are still counted and verified, so the error raised is that of
    the smallest failing prime, which it carries as ``exc.prime``.
    """
    primes = sorted(primes)
    plans: List[_Plan] = []
    failure = None
    for p in primes:
        try:
            if not singular_points(curve, p).is_good:
                raise BadReductionError(
                    "curve has bad (or unresolved) reduction at %d" % p
                )
            row = [_plan_count(curve, p, m) for m in (1, 2, 3)]
        except (ValueError, ArithmeticError) as exc:
            exc.prime, failure = p, exc
            break
        plans.extend(row)
    counts = _run_plans(plans)
    lpolys = []
    for i, p in enumerate(primes[:len(plans) // 3]):
        try:
            lp = LPolynomial.from_counts(p, counts[3 * i:3 * i + 3])
            lp.verify_weil()
        except (ValueError, ArithmeticError) as exc:
            exc.prime = p
            raise
        lpolys.append(lp)
    if failure is not None:
        raise failure
    return lpolys


def l_polynomial(curve: TernaryQuarticForm, p: int) -> LPolynomial:
    """The L-polynomial at a prime of good reduction (see
    :func:`l_polynomial_table`)."""
    return l_polynomial_table(curve, [p])[0]
