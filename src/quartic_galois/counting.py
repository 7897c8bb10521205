"""Exact point counting on plane quartics over F_{p^m}, vectorized.

Projection.  Once per prime, the count projects the curve C: F = 0 from
one F_p-point, the centre: the smooth point P of C of smallest index on
the first lines of P^2(F_p), else the point off C that
``curve.point_off_curve`` finds.  From P the coordinates change so that
P is (0 : 0 : 1) and its tangent line is X = 0.  The quartic G in the
new coordinates then has no Z^4 term and a Z^3 coefficient cX with
c != 0 (Taylor's expansion at P, in any characteristic).  The chart
X = 1 runs one coordinate t over F_q, q = p^m, as numpy "lanes", and
each lane counts the distinct roots in F_q of the monic cubic
h_t(z) = G(1, t, z) / c.  The tangent line adds P and the roots in F_q
of G(0, 1, z), of degree <= 2 over F_p, found by an ``FqPoly`` gcd
(q + 1 points if the line lies on C).  From a centre off C, the Z^4
coefficient of G is a unit, each h_t is a monic quartic and X = 0 is
counted the same way.  Only a form that is zero mod p has no centre.

Roots.  The number of distinct roots of a monic h of degree d in {3, 4}
in F_q is deg gcd(y^q - y, h), and the kernel reads d from the shape of
h.  That degree comes from y^p mod h by square-and-multiply from y^t,
t the top three bits of p, using the d - 1 powers y^d .. y^(2d-2) mod h,
then y^(p^k) = sum sigma(c_j) (y^p)^j for y^(p^(k-1)) = sum c_j y^j,
and 2d branch-free, inversion-free divsteps (Bernstein-Yang), all run
simultaneously on every lane.

Frobenius orbits.  The curve has coefficients in F_p, so the Frobenius
sigma(x) = x^p maps h_x to h_{sigma(x)} = sigma(h_x), and the two have
the same number of distinct roots.  Only one lane x per orbit is counted:
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
blocks run in parallel on threads.  A count of one block (every count
of the default table but F_{41^3}, F_{43^3} and F_{73^3}) runs on the
calling thread; the blocks of a larger count are mapped through a pool
started for that count alone, with one thread per usable CPU
(``os.sched_getaffinity``, so ``taskset`` limits it).  The sums are
exact, so the answer does not depend on the thread count or order.

The public entry points are :func:`count_points` and
:func:`l_polynomial`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .curve import LPolynomial, Point, TernaryQuarticForm, singular_points
from .curve import frame_through, point_off_curve
from .fields import make_field
from .polys import FqPoly

_FIELD_BUDGET = 10 ** 7
_BLOCK = 4096  # a kernel block is a range of _BLOCK * m field indices
_THREADS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)
_INT32_LIMIT = 2 ** 31  # lane range bounds below this run on int32
_SEARCH_LINES = 16  # the centre search covers this many lines


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
        # reduction multiplies them by constants below p; the count was
        # made for quartic lanes (d = 4), and cubic lanes sum fewer
        bound = 16 * m * p * p * (1 + (m - 1) * p)
        if bound >= 2 ** 63:
            raise OverflowError("F_%d^%d overflows int64 lanes" % (p, m))
        self.dtype = np.int32 if bound < _INT32_LIMIT else np.int64
        fd = make_field(p, m)
        self.p, self.m = p, m
        # x^(m+t) in the polynomial basis, t = 0..m-2
        self.red = [
            (i, m + t, c)
            for t in range(m - 1)
            for i, c in enumerate(fd.pow(fd.gen(), m + t))
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


class _Projection(NamedTuple):
    """C seen from one F_p-point: |C(F_q)| is ``extra`` (the centre, if
    it lies on C) plus the roots in F_q of the F_p polynomial ``line``
    (q + 1 points when it is zero) plus, for every lane t in F_q, the
    distinct roots in F_q of the monic h_t(y) of degree
    d = len(coeff_rows) whose y^j coefficient is the sum of c t^e over the
    (c, e) in ``coeff_rows[j]``."""

    coeff_rows: List[List[Tuple[int, int]]]
    line: FqPoly
    extra: int


def _centre(curve: TernaryQuarticForm, p: int) -> Tuple[Point, bool]:
    """(P, True) for the smooth point P of C(F_p) of smallest index among
    the first _SEARCH_LINES lines of P^2(F_p), else (b, False) for the
    point b off C that ``curve.point_off_curve`` finds.

    Index 0 is (0 : 0 : 1), 1 + z is (0 : 1 : z) and p + 1 + yp + z is
    (1 : y : z).  Blocks of indices are tested at once on int64 lanes,
    every product of two residues reduced mod p.  The cap keeps the
    search O(p).  Every form that is nonzero mod p has a centre: for
    p >= 5 a point off C lies on a 5 x 5 grid (``point_off_curve``).  For
    p in {2, 3} the smooth search covers the plane, and F -> (F, grad F)
    at the points of P^2(F_p) has rank 15 on quartic forms, so it is
    injective: with no smooth point, F is nonzero somewhere on the plane.
    """
    forms = [
        [(e, c % p) for e, c in coeffs.items() if c % p]
        for coeffs in [curve.coeffs] + [curve.partial(v) for v in range(3)]
    ]
    total = min(p * p + p + 1, _SEARCH_LINES * p + 1)
    for lo in range(0, total, _BLOCK):
        n = np.arange(lo, min(lo + _BLOCK, total), dtype=np.int64)
        y, z = np.divmod(n - p - 1, p)
        affine = n > p
        pt = np.stack([
            affine.astype(np.int64),
            np.where(affine, y, n > 0),
            np.where(affine, z, np.where(n > 0, n - 1, 1)),
        ])
        pw = [[np.ones_like(n), c] for c in pt]
        for v in range(3):
            for _ in range(3):
                pw[v].append(pw[v][-1] * pt[v] % p)
        vals = []
        for terms in forms:
            acc = np.zeros_like(n)
            for (i, j, k), c in terms:
                acc += c * (pw[0][i] * pw[1][j] % p * pw[2][k] % p)
            vals.append(acc % p)
        hit = np.flatnonzero(
            (vals[0] == 0) & ((vals[1] != 0) | (vals[2] != 0) | (vals[3] != 0))
        )
        if hit.size:
            return tuple(int(c) for c in pt[:, hit[0]]), True
    off = point_off_curve(curve, p)
    if off is None:
        raise ArithmeticError("a nonzero quartic has no centre mod %d" % p)
    return off, False


def _project(
    curve: TernaryQuarticForm, p: int, a: Point, b: Point, c: Point
) -> _Projection:
    """The projection of C from the F_p-point c, in the coordinates
    (X : Y : Z) -> X a + Y b + Z c.

    G = F(Xa + Yb + Zc) restricts on the chart X = 1 to G(1, t, z).  If
    c is off C, its z^4 coefficient F(c) is a unit and each lane t
    counts the roots of a quartic.  If c is a smooth point whose tangent
    line is spanned by b and c, and a is off that line, then by Taylor's
    expansion at c (valid in any characteristic) G has no Z^4 term and
    the Z^3 coefficient g . a X, g the gradient at c, so each lane counts
    the roots of a cubic.  The line X = 0 holds the roots of G(0, 1, z),
    of degree <= 2 for a smooth c, and c itself if it is on C.
    """
    G = {e: k % p for e, k in curve.in_coordinates(a, b, c).items() if k % p}
    d = 4 if (0, 0, 4) in G else 3
    if (4 - d, 0, d) not in G or d == 3 and (0, 1, 3) in G:
        raise ArithmeticError("the projection has no constant leading term")
    lead_inv = pow(G[4 - d, 0, d], -1, p)
    coeff_rows: List[List[Tuple[int, int]]] = [[] for _ in range(d)]
    for (_, e, j), k in G.items():
        if j < d:
            coeff_rows[j].append((k * lead_inv % p, e))
    line = FqPoly.from_ints(
        make_field(p, 1), [G.get((0, 4 - j, j), 0) for j in range(5)]
    )
    return _Projection(coeff_rows, line, int(d == 3))


def _project_from(
    curve: TernaryQuarticForm, p: int, point: Point
) -> _Projection:
    """The projection of C from its smooth F_p-point P.

    a = e_i for the first i with g_i = dF/dx_i(P) nonzero, and
    b = g_i e_j - g_j e_i for the first j != i that keeps b off P, so b
    and P span the tangent line g . v = 0 (P is on it by Euler's
    relation 4F = sum x_i dF/dx_i) and a is off it.
    """
    grad = [
        sum(c * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2]
            for e, c in curve.partial(v).items()) % p
        for v in range(3)
    ]
    i = next(v for v in range(3) if grad[v])
    for j in (v for v in range(3) if v != i):
        b = [0, 0, 0]
        b[i], b[j] = -grad[j] % p, grad[i]
        if any((b[u] * point[v] - b[v] * point[u]) % p
               for u, v in ((0, 1), (0, 2), (1, 2))):
            break
    return _project(curve, p, tuple(int(v == i) for v in range(3)), tuple(b), point)


def _projection(
    curve: TernaryQuarticForm, p: int
) -> Optional[_Projection]:
    """The projection from the centre that :func:`_centre` finds, or None
    for a form that is zero mod p.  A centre off C is completed to a
    frame by ``curve.frame_through``."""
    if not any(c % p for c in curve.coeffs.values()):
        return None
    point, smooth = _centre(curve, p)
    if smooth:
        return _project_from(curve, p, point)
    a, _, c = frame_through(point)
    return _project(curve, p, a, c, point)


# ---------------------------------------------------------------------------
# vectorized root counting


def _gcd_degrees(vf: _VecField, h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """deg gcd(h, r) per lane, h monic of degree d ((m, d, lanes) holds
    a0..a_{d-1}), r of degree < d ((m, d, lanes)).

    Polynomial divsteps (Bernstein-Yang, "Fast constant-time gcd
    computation and modular inversion", TCHES 2019, Theorem 6.2) on
    f = y^d h(1/y) and g = y^(d-1) r(1/y) from delta = 1: a step swaps f
    and g where delta > 0 and g(0) != 0, negating delta, then sets
    g <- (f(0) g - g(0) f) / y and adds 1 to delta.  After 2d - 1 steps
    delta = 2 deg gcd(h, r).  Each step lowers the sum of the formal
    degrees of f and g (d + d - 1 at the start) by one and f(0) never
    vanishes, so a last step leaves g = 0 on every lane, which is
    checked, and delta // 2 the degree.  Every lane takes the same
    fixed slices; g is formed from the pair before the swap, which on
    swapped lanes only negates it.
    """
    m, d, lanes = h.shape
    f = np.zeros((m, d + 1, lanes), dtype=vf.dtype)
    f[0, 0] = 1
    f[:, 1:] = h[:, ::-1]
    g = r[:, ::-1]
    delta = np.ones(lanes, dtype=np.int64)
    for _ in range(2 * d):
        swap = (delta > 0) & g[:, 0].any(axis=0)
        # slots 1.. of f(0) g - g(0) f; slot 0 is zero
        acc = np.zeros((2 * m - 1, d, lanes), dtype=vf.dtype)
        for i in range(m):
            acc[i:i + m, :d - 1] += f[i, 0] * g[:, 1:]
            acc[i:i + m] -= g[i, 0] * f[:, 1:]
        np.copyto(f[:, :d], g, where=swap)
        np.copyto(f[:, d], 0, where=swap)
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
    """(h, r) per lane x: the low coefficients of the monic h_x(y) of
    degree d = len(coeff_rows) and r = y^q - y mod h_x, so that
    deg gcd(h_x, r) is the number of distinct roots of h_x in F_q.

    ``coeff_rows[j]`` lists (coefficient, power-of-iterate) pairs making
    up the (already monic-normalized) y^j coefficient, j = 0..d-1.  The
    y-power temporaries die with this frame, before the gcd runs.
    """
    p, m, d = vf.p, vf.m, len(coeff_rows)
    lanes = x.shape[1]
    xpow = [np.zeros((m, lanes), dtype=vf.dtype)]
    xpow[0][0] = 1
    for _ in range(4):
        xpow.append(vf.mul(xpow[-1], x))
    h = np.zeros((m, d, lanes), dtype=vf.dtype)
    for j, row in enumerate(coeff_rows):
        for c, e in row:
            h[:, j] += c * xpow[e]
    h = vf.mod(h)

    def times_y(u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        out[:, 1:] = u[:, :d - 1]
        return vf.mod(out + vf.mul(u[:, d - 1:], high_pows[:, 0]))

    # y^d .. y^(2d-2) mod h, stacked as (m, d - 1, d, lanes)
    high_pows = np.empty((m, d - 1, d, lanes), dtype=vf.dtype)
    high_pows[:, 0] = vf.mod(-h)
    for k in range(1, d - 1):
        high_pows[:, k] = times_y(high_pows[:, k - 1])

    def square(u: np.ndarray) -> np.ndarray:
        # u^2 as a polynomial in (x, y), each cross term taken once
        acc = np.zeros((2 * m - 1, 2 * d - 1, lanes), dtype=vf.dtype)
        twice = 2 * u
        for i in range(m):
            for j in range(d):
                acc[2 * i, 2 * j] += u[i, j] * u[i, j]
                if j < d - 1:
                    acc[2 * i, 2 * j + 1:j + d] += twice[i, j] * u[i, j + 1:]
                if i < m - 1:
                    acc[2 * i + 1:i + m, j:j + d] += twice[i, j] * u[i + 1:]
        # fold y^d..y^(2d-2) back with the lane's own powers, then reduce x
        high = vf.reduce(acc[:, d:])
        low = acc[:, :d]
        for i in range(m):
            for k in range(d - 1):
                low[i:i + m] += high[i, k] * high_pows[:, k]
        return vf.reduce(low)

    def combine(c: np.ndarray, polys: List[np.ndarray]) -> np.ndarray:
        # sum over j of c_j * polys[j], c of shape (m, d, lanes)
        acc = np.zeros((2 * m - 1, d, lanes), dtype=vf.dtype)
        for i in range(m):
            for j, poly in enumerate(polys):
                acc[i:i + m] += c[i, j] * poly
        return vf.reduce(acc)

    # Y = y^p by square-and-multiply from y^t, t the top three bits of p
    # (or t = p < 8): a monomial for t < d, a held power up to y^(2d-2),
    # else times y from there; then y^(p^k) = sum sigma(c_j) Y^j where
    # y^(p^(k-1)) = sum c_j y^j, since u -> u^p is a ring map
    bits = bin(p)[2:]
    t = int(bits[:3], 2)
    if t < d:
        r = np.zeros((m, d, lanes), dtype=vf.dtype)
        r[0, t] = 1
    else:
        r = high_pows[:, min(t, 2 * d - 2) - d].copy()
        for _ in range(t - (2 * d - 2)):
            r = times_y(r)
    for bit in bits[3:]:
        r = square(r)
        if bit == "1":
            r = times_y(r)
    if m > 1:
        one = np.zeros_like(r)
        one[0, 0] = 1
        ypows = [one, r, square(r)]
        if d == 4:
            ys = [r]
            for _ in range(3):
                ys.append(times_y(ys[-1]))
            ypows.append(combine(ypows[2], ys))
        for _ in range(m - 1):
            r = combine(vf.frobenius(r), ypows)
    r[0, 1] -= 1
    return h, vf.mod(r)


def _check_budget(p: int, m: int) -> None:
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if p ** m > _FIELD_BUDGET:
        raise BudgetExceededError(
            "field size %d exceeds the %d budget" % (p ** m, _FIELD_BUDGET)
        )


def _count(p: int, m: int, projection: Optional[_Projection]) -> int:
    """|C(F_{p^m})| from the projection: the whole plane when there is
    none (the form is zero mod p), else the line it leaves out plus the
    lanes, cut into blocks.  A count of one block runs on the calling
    thread, where a hand-off would cost more than the kernel; the blocks
    of a larger field are mapped through a pool of _THREADS threads.
    The sums are exact, so the thread order cannot change the count."""
    q = p ** m
    if projection is None:
        return q * q + q + 1
    vf = _VecField(p, m)
    step = _BLOCK * m

    def count_block(lo: int) -> int:
        x, orbit_size = _orbit_reps(vf, lo, min(lo + step, q))
        if not orbit_size.size:
            return 0
        roots = _gcd_degrees(
            vf, *_frobenius_residues(vf, projection.coeff_rows, x)
        )
        return int(orbit_size @ roots)

    # the line polynomial g has F_p coefficients, so its number of roots
    # in F_q, deg gcd(g, x^q - x), is computed over F_p
    g = projection.line
    if g.is_zero():
        line = q + 1  # the whole line lies on the curve
    else:
        x = FqPoly.x(g.field)
        line = g.gcd(x.pow_mod(q, g) - x).degree + projection.extra
    blocks = range(0, q, step)
    if len(blocks) == 1:
        return line + count_block(0)
    with ThreadPoolExecutor(max_workers=_THREADS) as pool:
        return line + sum(pool.map(count_block, blocks))


def count_points(curve: TernaryQuarticForm, p: int, m: int) -> int:
    """Exact |C(F_{p^m})| as a set of projective points.

    The caller is responsible for checking smoothness of the fiber (see
    :func:`l_polynomial`); the count itself is well defined regardless.
    Every form is counted, the one that is zero mod p as the whole plane;
    only a field over the size budget raises ``BudgetExceededError``.
    """
    _check_budget(p, m)
    return _count(p, m, _projection(curve, p))


def l_polynomial(curve: TernaryQuarticForm, p: int) -> LPolynomial:
    """The L-polynomial at a prime of good reduction, from the counts
    over F_p, F_{p^2}, F_{p^3} via Newton's identities, with the Weil
    root bounds verified.

    The fiber is checked for good reduction and every field against the
    budget before the projection is found, once for the prime and shared
    by its three counts.
    """
    if not singular_points(curve, p).is_good:
        raise BadReductionError(
            "curve has bad (or unresolved) reduction at %d" % p
        )
    for m in (1, 2, 3):
        _check_budget(p, m)
    projection = _projection(curve, p)
    lp = LPolynomial.from_counts(
        p, [_count(p, m, projection) for m in (1, 2, 3)]
    )
    lp.verify_weil()
    return lp
