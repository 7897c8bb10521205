"""Plane quartic geometry over Z and over finite fields.

The central type is :class:`TernaryQuarticForm`, a homogeneous integer
quartic in (x, y, z).  This module locates the primes of bad reduction,
finds and classifies the singular points of each bad fiber, and houses
:class:`LPolynomial`, the stored form of the degree-6 Frobenius
characteristic polynomial.

The bad primes divide B = 2 |Res(f_x, f_y, f_z)|, the Macaulay resultant
of the three partials as a ratio of two ``polys._bareiss_det``
determinants.  By Euler's relation 4f = x f_x + y f_y + z f_z its odd
prime factors are exactly the odd primes where the fiber is singular;
the relation is empty at p = 2, so 2 is always a candidate and its fiber
is always scanned.  Each fiber is moved so that an F_p-point off it is
(0 : 1 : 0), eliminated over Z[x] by ``polys.bivariate_resultant``, then
restricted to lines and handled as univariate ``FqPoly`` over F_q.  A
rational singular point is classified by the 2-jet of f there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from .arith import isprime
from .fields import FieldDescriptor, make_field
from .polys import FqPoly, IntPoly, _bareiss_det, bivariate_resultant, factor_fq

Monomial = Tuple[int, int, int]
Point = Tuple[int, int, int]

_VARIABLE_NAMES = ("x", "y", "z")


# ---------------------------------------------------------------------------
# the quartic form


class TernaryQuarticForm:
    """Homogeneous degree-4 form in (x, y, z) with integer coefficients,
    stored sparsely as a map (i, j, k) -> coefficient with i+j+k = 4."""

    def __init__(self, coeffs: Dict[Monomial, int]):
        clean: Dict[Monomial, int] = {}
        for (i, j, k), c in coeffs.items():
            if i < 0 or j < 0 or k < 0 or i + j + k != 4:
                raise ValueError("bad monomial exponents (%d,%d,%d)" % (i, j, k))
            c = int(c)
            if c:
                clean[(i, j, k)] = c
        if not clean:
            raise ValueError("the zero form does not define a curve")
        self.coeffs: Dict[Monomial, int] = dict(sorted(clean.items()))

    # -- construction / serialization ------------------------------------

    @classmethod
    def from_json_obj(cls, obj) -> "TernaryQuarticForm":
        try:
            monomials = obj["monomials"]
            coeffs = {
                (int(m["i"]), int(m["j"]), int(m["k"])): int(m["coeff"])
                for m in monomials
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("malformed curve JSON: %s" % exc) from exc
        return cls(coeffs)

    def to_json_obj(self) -> dict:
        return {
            "monomials": [
                {"i": i, "j": j, "k": k, "coeff": str(c)}
                for (i, j, k), c in self.coeffs.items()
            ]
        }

    @classmethod
    def load(cls, path) -> "TernaryQuarticForm":
        """The curve stored at ``path``; the bundled curve when it is None."""
        if path is None:
            return cls.bundled_curve()
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_obj(json.load(fh))

    @classmethod
    def bundled_curve(cls) -> "TernaryQuarticForm":
        """The curve shipped with the package (the certified quartic)."""
        data = (
            resources.files("quartic_galois") / "data" / "curve.json"
        ).read_text(encoding="utf-8")
        return cls.from_json_obj(json.loads(data))

    # -- basic algebra ----------------------------------------------------

    def coeff(self, i: int, j: int, k: int) -> int:
        return self.coeffs.get((i, j, k), 0)

    def partial(self, var: int) -> Dict[Monomial, int]:
        """Partial derivative as a (degree-3) sparse exponent map."""
        out: Dict[Monomial, int] = {}
        for (i, j, k), c in self.coeffs.items():
            e = (i, j, k)[var]
            if e:
                key = tuple(
                    v - (1 if t == var else 0) for t, v in enumerate((i, j, k))
                )
                out[key] = out.get(key, 0) + e * c
        return {k: v for k, v in out.items() if v}

    def evaluate_int(self, x: int, y: int, z: int) -> int:
        return _eval_map(self.coeffs, x, y, z)

    def in_coordinates(
        self, a: Sequence[int], b: Sequence[int], c: Sequence[int]
    ) -> Dict[Monomial, int]:
        """The coefficient map of F(Xa + Yb + Zc) for integer vectors
        a, b, c, in the exponents of (X, Y, Z)."""
        # X^u Y^v Z^w (u, v, w <= 4) has the key 25u + 5v + w, so keys add
        # as exponents do; powers[t][e] = (a[t] X + b[t] Y + c[t] Z)^e
        # without the zero terms, so a frame of unit vectors is cheap
        powers = []
        for t in range(3):
            line = [(k, d) for k, d in ((25, a[t]), (5, b[t]), (1, c[t])) if d]
            pw = [[(0, 1)]]
            for _ in range(4):
                acc: Dict[int, int] = {}
                for key, coeff in pw[-1]:
                    for step, d in line:
                        acc[key + step] = acc.get(key + step, 0) + coeff * d
                pw.append(list(acc.items()))
            powers.append(pw)
        out = [0] * 125
        for (i, j, k), coeff in self.coeffs.items():
            for key0, c0 in powers[0][i]:
                for key1, c1 in powers[1][j]:
                    key01, c01 = key0 + key1, coeff * c0 * c1
                    for key2, c2 in powers[2][k]:
                        out[key01 + key2] += c01 * c2
        return {(n // 25, n // 5 % 5, n % 5): t for n, t in enumerate(out) if t}

    def evaluate(self, F: FieldDescriptor, pt) -> tuple:
        """Evaluate over a finite field at a triple of field elements."""
        x, y, z = pt
        acc = F.zero()
        for (i, j, k), c in self.coeffs.items():
            t = F.mul(F.pow(x, i), F.mul(F.pow(y, j), F.pow(z, k)))
            acc = F.add(acc, F.scalar_mul(c, t))
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TernaryQuarticForm) and self.coeffs == other.coeffs
        )

    def __repr__(self):
        parts = []
        for (i, j, k), c in self.coeffs.items():
            mono = "*".join(
                "%s%s" % (n, "" if e == 1 else "^%d" % e)
                for n, e in zip(_VARIABLE_NAMES, (i, j, k))
                if e
            )
            mag = "" if abs(c) == 1 else "%d*" % abs(c)
            parts.append(("- " if c < 0 else "+ ") + mag + mono)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


def _eval_map(coeffs: Dict[Monomial, int], x: int, y: int, z: int) -> int:
    acc = 0
    for (i, j, k), c in coeffs.items():
        acc += c * x ** i * y ** j * z ** k
    return acc


# ---------------------------------------------------------------------------
# L-polynomials


@dataclass(frozen=True)
class LPolynomial:
    """P_p(T) = T^6 + aT^5 + bT^4 + cT^3 + pbT^2 + p^2 aT + p^3.

    The functional equation T^6 P(p/T) = p^3 P(T) holds by construction;
    only (p, a, b, c) are stored.
    """

    p: int
    a: int
    b: int
    c: int

    @classmethod
    def from_counts(cls, p: int, counts: Sequence[int]) -> "LPolynomial":
        """Invert :meth:`power_sums`: given N_m = |C(F_{p^m})| for
        m = 1, 2, 3, the power sums s_m = p^m + 1 - N_m give the
        elementary symmetric e_1, e_2, e_3 of the Frobenius eigenvalues
        by Newton's identities, and (a, b, c) = (-e_1, e_2, -e_3).

        Raises ArithmeticError when a Newton division is not exact (a
        counting inconsistency).
        """
        if len(counts) < 3:
            raise ValueError("need counts over F_p, F_{p^2}, F_{p^3}")
        s1, s2, s3 = (p ** m + 1 - int(n) for m, n in zip((1, 2, 3), counts))
        e1 = s1
        e2 = _exact_div(e1 * s1 - s2, 2)
        e3 = _exact_div(e2 * s1 - e1 * s2 + s3, 3)
        return cls(p=p, a=-e1, b=e2, c=-e3)

    def to_int_poly(self) -> IntPoly:
        p, a, b, c = self.p, self.a, self.b, self.c
        return IntPoly([p ** 3, p ** 2 * a, p * b, c, b, a, 1])

    def to_json_obj(self) -> dict:
        """One row of the L-polynomial table: (p, a, b, c) and P_p(T)."""
        return {
            "p": self.p,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "polynomial": self.to_int_poly().pretty("T"),
        }

    def __call__(self, t: int) -> int:
        return self.to_int_poly()(t)

    def power_sums(self, m_max: int) -> List[int]:
        """s_m = sum of m-th powers of the Frobenius eigenvalues, for
        m = 1..m_max, via Newton's identities."""
        p, a, b, c = self.p, self.a, self.b, self.c
        e = [1, -a, b, -c, p * b, -p ** 2 * a, p ** 3]  # e_0..e_6, signed
        s: List[int] = []
        for m in range(1, m_max + 1):
            acc = 0
            for i in range(1, min(m, 6) + 1):
                term = e[i] * (s[m - i - 1] if m - i >= 1 else 0)
                acc += (-1) ** (i - 1) * term
            if m <= 6:
                acc += (-1) ** (m - 1) * m * e[m]
            s.append(acc)
        return s

    def verify_weil(self) -> None:
        """Check the power-sum consequences of |lambda| = sqrt(p):
        s_m^2 <= 36 p^m for m = 1..12.  Raises on violation."""
        for m, s_m in enumerate(self.power_sums(12), start=1):
            if s_m * s_m > 36 * self.p ** m:
                raise ArithmeticError(
                    "Weil bound violated at p=%d, m=%d (s_m=%d)"
                    % (self.p, m, s_m)
                )

    def point_count(self, m: int) -> int:
        """|C(F_{p^m})| predicted by this L-polynomial."""
        return self.p ** m + 1 - self.power_sums(m)[m - 1]


def _exact_div(n: int, k: int) -> int:
    q, r = divmod(n, k)
    if r:
        raise ArithmeticError(
            "zeta congruence produced non-integer coefficient %d/%d" % (n, k)
        )
    return q


# ---------------------------------------------------------------------------
# bad primes


# the 36 monomials of degree 7, and the 9 of them divisible by the cubes
# of two variables, which index the extraneous minor
_DEGREE_7 = tuple(
    (i, j, 7 - i - j) for i in range(7, -1, -1) for j in range(7 - i, -1, -1)
)
_EXTRANEOUS = tuple(
    n for n, e in enumerate(_DEGREE_7) if sum(v >= 3 for v in e) == 2
)
# unimodular changes of coordinates x = A X (A by rows), tried in this
# order until the extraneous minor is nonzero.  For the moved form g with
# h_ij = [X^i Y^j] g, the minor is -(4 h_40)^3 (h_13 h_31 - 16 h_40 h_04)
# times a quartic in the h_ij, so the first column u of A must be off the
# curve: h_40 = f(u).  Hence u = (1, 0, 0), (0, 1, 0) and (0, 0, 1) first
# (the identity and the two cyclic permutations), then (1, 1, 2) by a
# shear and (1, 1, 1) by the Pascal matrix.
_MACAULAY_FRAMES = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((1, 0, 0), (1, 1, 0), (2, 3, 1)),
    ((1, 1, 1), (1, 2, 3), (1, 3, 6)),
)


def _macaulay_matrix(cubics: Sequence[Dict[Monomial, int]]) -> List[List[int]]:
    """The Macaulay matrix in degree 7 of three ternary cubics: the row
    of a monomial e holds the coefficients of (e / x_i^3) * cubics[i]
    for the first variable x_i whose cube divides e, over the columns
    ``_DEGREE_7``."""
    column = {e: n for n, e in enumerate(_DEGREE_7)}
    rows = []
    for e in _DEGREE_7:
        i = next(t for t in range(3) if e[t] >= 3)
        shift = tuple(v - 3 * (t == i) for t, v in enumerate(e))
        row = [0] * len(_DEGREE_7)
        for (u, v, w), c in cubics[i].items():
            row[column[u + shift[0], v + shift[1], w + shift[2]]] = c
        rows.append(row)
    return rows


def partials_resultant(curve: TernaryQuarticForm) -> int:
    """Res(f_x, f_y, f_z), the Macaulay resultant of the three partial
    cubics, up to sign (Macaulay 1902; Cox, Little and O'Shea, *Using
    Algebraic Geometry*, GTM 185, ch. 3 sec. 4).

    It vanishes mod a prime p exactly when the partials have a common
    zero over the algebraic closure of F_p, and it is 0 exactly when the
    curve is singular over Q-bar.  It is det(M) / det(M'), where M is the
    36 x 36 Macaulay matrix in degree 7 and M' its 9 x 9 extraneous
    minor.  M' can vanish in the given coordinates, so the curve is
    first moved by each change of ``_MACAULAY_FRAMES`` in turn: a change
    of determinant +-1 leaves |Res| as it is.  Raises ArithmeticError
    when every minor vanishes.
    """
    for frame in _MACAULAY_FRAMES:
        moved = TernaryQuarticForm(curve.in_coordinates(*zip(*frame)))
        mat = _macaulay_matrix([moved.partial(t) for t in range(3)])
        minor = _bareiss_det([[mat[r][c] for c in _EXTRANEOUS] for r in _EXTRANEOUS])
        if minor:
            res, rem = divmod(_bareiss_det(mat), minor)
            if rem:
                raise ArithmeticError(
                    "the extraneous minor does not divide the Macaulay determinant"
                )
            return res
    raise ArithmeticError("every extraneous minor of the Macaulay matrix vanishes")


def find_bad_prime_candidates(curve: TernaryQuarticForm) -> int:
    """B = 2 |Res(f_x, f_y, f_z)|, divisible by every prime of bad
    reduction of the model.

    By Euler's relation 4f = x f_x + y f_y + z f_z, at an odd prime p a
    common zero of the partials is a singular point of the fiber and
    conversely, so the odd prime factors of B are exactly the odd primes
    where the fiber is singular.  At p = 2 the relation says nothing,
    hence the factor 2: the prime 2 is always scanned downstream.
    Raises ValueError when Res = 0, that is when the curve is singular
    over Q-bar (a smooth plane quartic is geometrically irreducible, so
    this also rejects every reducible form).
    """
    res = partials_resultant(curve)
    if res == 0:
        raise ValueError(
            "Res(f_x, f_y, f_z) = 0: the curve is singular over Q-bar"
        )
    return 2 * abs(res)


def _rows(coeff_map: Dict[Monomial, int], elim: int, keep: int) -> List[IntPoly]:
    """A homogeneous coefficient map on the chart where the third
    variable is 1, as polynomials in ``keep`` indexed by their degree in
    ``elim``; row 0 is its restriction to the line ``elim`` = 0."""
    rows = [[0] * 5 for _ in range(5)]
    for e, c in coeff_map.items():
        rows[e[elim]][e[keep]] = c
    return [IntPoly(r) for r in rows]


# ---------------------------------------------------------------------------
# singular fibers


@dataclass(frozen=True)
class SingularPoint:
    """A singular point of the fiber mod p.

    ``coords`` holds integers for F_p-rational points and coordinate
    tuples (elements of the canonical F_{p^2}) for quadratic points; in
    both cases the last nonzero coordinate is normalized to 1.  The node
    flags are only computed for F_p-rational points.
    """

    coords: tuple
    field_degree: int
    ordinary_node: Optional[bool]
    total_space_regular: Optional[bool]


@dataclass(frozen=True)
class SingularFiberReport:
    p: int
    points: Tuple[SingularPoint, ...]
    complete: bool

    @property
    def is_good(self) -> bool:
        return self.complete and not self.points


def classify_node(
    curve: TernaryQuarticForm, p: int, point: Sequence[int]
) -> Dict[str, bool]:
    """Classify an F_p-rational singular point of the fiber mod p.

    With pt the point's integer representative whose last nonzero
    coordinate is 1 and u, v the other two unit vectors,
    ``in_coordinates(u, v, pt)`` at Z = 1 gives the Taylor expansion
    F(pt + U u + V v) = a + a1 U + a2 V + q20 U^2 + q11 UV + q02 V^2 + ...,
    and:

    * ``ordinary_node``: the quadratic part is nondegenerate mod p,
      q11^2 - 4 q20 q02 != 0;
    * ``total_space_regular``: F is not in (p, U, V)^2, that is
      a != 0 mod p^2.  Since p divides a, a1 and a2,
      F(pt + p alpha) = a (mod p^2) for every integer vector alpha, so
      no other lift of the point (a Newton-style shift included) changes
      this.
    """
    pt = [int(v) % p for v in point]
    chart = max((t for t in range(3) if pt[t]), default=None)
    if chart is None:
        raise ValueError("(0:0:0) is not a projective point")
    inv = pow(pt[chart], -1, p)
    pt = [v * inv % p for v in pt]
    u, v = (tuple(int(s == t) for s in range(3)) for t in range(3) if t != chart)
    jet = curve.in_coordinates(u, v, pt)
    a, a1, a2, q20, q11, q02 = (
        jet.get(e, 0) for e in ((0, 0, 4), (1, 0, 3), (0, 1, 3), (2, 0, 2), (1, 1, 2), (0, 2, 2))
    )
    if a % p or a1 % p or a2 % p:
        raise ValueError("point is not a singular point of the fiber mod %d" % p)
    return {
        "ordinary_node": (q11 * q11 - 4 * q20 * q02) % p != 0,
        "total_space_regular": a % (p * p) != 0,
    }


def _at_x(coeff_map: Dict[Monomial, int], K: FieldDescriptor, x0) -> FqPoly:
    """f(x0, y, 1) as an FqPoly in y over K."""
    powers = [K.one()]
    for _ in range(4):
        powers.append(K.mul(powers[-1], x0))
    out = [K.zero()] * 5
    for (i, j, _k), c in coeff_map.items():
        out[j] = K.add(out[j], K.scalar_mul(c, powers[i]))
    return FqPoly(K, out)


def _gcd_all(K: FieldDescriptor, polys) -> FqPoly:
    """The monic gcd of polys over K; zero when all of them are zero."""
    return reduce(FqPoly.gcd, polys, FqPoly.zero(K))


def _split_over_fp2(f: FqPoly) -> Tuple[list, bool]:
    """The roots of a nonzero f (over F_p or F_{p^2}) in the canonical
    F_{p^2}, sorted, and whether f splits there into linear factors."""
    K2 = make_field(f.field.p, 2)
    if f.field.m == 1:
        f = FqPoly.from_ints(K2, f.to_ints())
    if f.degree <= 0:
        return [], True
    factors = [g for g, _ in factor_fq(f)]
    roots = sorted(K2.neg(g.coeffs[0]) for g in factors if g.degree == 1)
    return roots, len(roots) == len(factors)


def point_off_curve(curve: TernaryQuarticForm, p: int) -> Optional[Point]:
    """An F_p-point b with F(b) != 0 mod p, or None when F vanishes on all
    of P^2(F_p).  The search runs over (u : 1 : v), 0 <= u, v < min(p, 5),
    from (0 : 1 : 0), then for p <= 3 over the line y = 0.  For p >= 5 and
    F nonzero mod p, F(u, 1, v) has degree <= 4 in each variable, so it
    cannot vanish on the 5 x 5 grid (Alon, "Combinatorial
    Nullstellensatz", Combin. Probab. Comput. 8 (1999), Lemma 2.1)."""
    n = min(p, 5)
    pts = [(u, 1, v) for u in range(n) for v in range(n)]
    if p < 5:
        pts += [(u, 0, 1) for u in range(p)] + [(1, 0, 0)]
    return next((b for b in pts if curve.evaluate_int(*b) % p), None)


def frame_through(b: Sequence[int]) -> Tuple[Point, Point, Point]:
    """Columns (a, b, c) of a change of coordinates: a and c are the unit
    vectors other than e_k, k the first index with b_k != 0, so the
    determinant is +-b_k and F(Xa + Yb + Zc) has the Y^4 coefficient
    F(b).  The frame through (0, 1, 0) is the identity."""
    k = next(v for v in range(3) if b[v])
    a, c = (tuple(int(u == v) for u in range(3)) for v in range(3) if v != k)
    return a, tuple(b), c


def singular_points(curve: TernaryQuarticForm, p: int) -> SingularFiberReport:
    """All common projective zeros of (f, f_x, f_y, f_z) over F_p and
    F_{p^2}, with node classification for the rational ones.

    Works by elimination on G(X, Y, Z) = f(Xa + Yb + Zc), in the frame
    (a, b, c) of :func:`frame_through` at the point b off the curve that
    :func:`point_off_curve` finds (the identity when the pure y^4
    coefficient is a unit).  The Y^4 coefficient f(b) of G is a unit mod
    p, so on the chart Z = 1 the X-coordinates of singular points are
    among the roots of g(X), the gcd of the reductions of the resultants
    Res_Y(G, G_*) over Z[X] (by ``bivariate_resultant``; only the monic
    gcd is used).  Each irreducible factor of g of degree <= 2 is split
    over F_{p^2}, and at each root x0 so is the gcd of G and its partials
    on the line X = x0.  A factor of degree >= 3 is probed for genuine
    solutions in its residue field; if any exist, ``complete`` is False.
    The line Z = 0 is split the same way, and (1:0:0) is tested directly.
    Each point is mapped back through the frame with its last nonzero
    coordinate set to 1; a point with all coordinates in F_p is rational.
    When every eliminant vanishes mod p (as on a fiber that is not
    reduced), or f vanishes on all of P^2(F_p) (only for p <= 3), the
    report is empty and ``complete`` is False.
    """
    if not isprime(p):
        raise ValueError("p must be prime")
    b = point_off_curve(curve, p)
    if b is None:
        return SingularFiberReport(p=p, points=(), complete=False)
    frame = frame_through(b)
    moved = TernaryQuarticForm(curve.in_coordinates(*frame))
    F, K2 = make_field(p, 1), make_field(p, 2)
    maps = [moved.coeffs] + [moved.partial(t) for t in range(3)]
    complete = True
    one, zero = K2.one(), K2.zero()
    found: List[tuple] = []  # (X, Y, Z) over F_{p^2}

    # --- affine chart Z = 1 ---------------------------------------------
    f = _rows(moved.coeffs, 1, 0)
    elim = (bivariate_resultant(f, _rows(m, 1, 0)) for m in maps[1:])
    gx = _gcd_all(F, (FqPoly.from_ints(F, r.coeffs) for r in elim))
    if gx.is_zero():
        return SingularFiberReport(p=p, points=(), complete=False)
    for factor, _mult in factor_fq(gx):
        if factor.degree <= 2:  # splits over F_{p^2}
            for x0 in _split_over_fp2(factor)[0]:
                ygcd = _gcd_all(K2, (_at_x(m, K2, x0) for m in maps))
                ys, split = _split_over_fp2(ygcd)
                complete &= split
                found += [(x0, y0, one) for y0 in ys]
        else:
            # residue-field probe: does a singular point live over
            # F_{p^d}?  Root of the factor = class of X.
            Kd = FieldDescriptor(p, factor.degree, tuple(factor.to_ints()))
            if _gcd_all(Kd, (_at_x(m, Kd, Kd.gen()) for m in maps)).degree > 0:
                complete = False

    # --- line Z = 0, where G(X, 1, 0) has the unit constant term f(b) ------
    lines = (FqPoly.from_ints(F, _rows(m, 2, 0)[0].coeffs) for m in maps)
    xs, split = _split_over_fp2(_gcd_all(F, lines))
    complete &= split
    found += [(x0, one, zero) for x0 in xs]
    # the point (1:0:0)
    if all(_eval_map(m, 1, 0, 0) % p == 0 for m in maps):
        found.append((one, zero, zero))

    moved_back = set()  # X a + Y b + Z c, with last nonzero coordinate 1
    for pt in found:
        v = [reduce(K2.add, map(K2.scalar_mul, row, pt)) for row in zip(*frame)]
        scale = K2.inv(next(c for c in reversed(v) if any(c)))
        moved_back.add(tuple(K2.mul(c, scale) for c in v))
    quadratic = {pt for pt in moved_back if any(c[1] for c in pt)}
    rational = {tuple(c[0] for c in pt) for pt in moved_back - quadratic}
    pts = [
        SingularPoint(coords, 1, **classify_node(curve, p, coords))
        for coords in sorted(rational)
    ]
    pts += [SingularPoint(coords, 2, None, None) for coords in sorted(quadratic)]
    return SingularFiberReport(p=p, points=tuple(pts), complete=complete)
