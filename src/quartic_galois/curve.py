"""Plane quartic geometry over Z and over finite fields.

The central type is :class:`TernaryQuarticForm`, a homogeneous integer
quartic in (x, y, z).  This module locates the primes of bad reduction
(by iterated resultant elimination), finds and classifies the singular
points of each bad fiber, and houses :class:`LPolynomial`, the stored
form of the degree-6 Frobenius characteristic polynomial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import comb, gcd, isqrt
from typing import Dict, List, Optional, Sequence, Tuple

import sympy

from .fields import FieldDescriptor, make_field
from .polys import FqPoly, IntPoly, factor_fq

Monomial = Tuple[int, int, int]

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

    def store(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_obj(), fh, indent=2)
            fh.write("\n")

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

    def content(self) -> int:
        return gcd(*self.coeffs.values())

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

    def evaluate(self, F: FieldDescriptor, pt) -> tuple:
        """Evaluate over a finite field at a triple of field elements."""
        x, y, z = pt
        acc = F.zero()
        for (i, j, k), c in self.coeffs.items():
            t = F.mul(F.pow(x, i), F.mul(F.pow(y, j), F.pow(z, k)))
            acc = F.add(acc, F.scalar_mul(c, t))
        return acc

    def sympy_expr(self):
        x, y, z = sympy.symbols("x y z")
        return sum(
            c * x ** i * y ** j * z ** k for (i, j, k), c in self.coeffs.items()
        )

    def is_irreducible_over_q(self) -> bool:
        expr = self.sympy_expr()
        factors = sympy.factor_list(expr)[1]
        return len(factors) == 1 and factors[0][1] == 1

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

    def reduce_mod(self, ell: int) -> FqPoly:
        return self.to_int_poly().reduce_mod(ell)

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

    def triple(self) -> Tuple[int, int, int]:
        return (self.a, self.b, self.c)


def _exact_div(n: int, k: int) -> int:
    q, r = divmod(n, k)
    if r:
        raise ArithmeticError(
            "zeta congruence produced non-integer coefficient %d/%d" % (n, k)
        )
    return q


# ---------------------------------------------------------------------------
# bad primes


def find_bad_prime_candidates(curve: TernaryQuarticForm) -> int:
    """A nonzero integer B divisible by every prime of bad reduction.

    Dehomogenize on each coordinate chart, take iterated resultants of
    (f, f_u, f_v) eliminating both affine variables in both orders, and
    combine the nonzero eliminants by gcd.  Spurious prime factors are
    possible and are filtered by the per-prime singular scan downstream.
    """
    if not curve.is_irreducible_over_q():
        raise ValueError("curve is not irreducible over Q")
    xyz = sympy.symbols("x y z")
    f = curve.sympy_expr()
    vals: List[int] = []
    for chart in range(3):
        others = [v for t, v in enumerate(xyz) if t != chart]
        sub = {xyz[chart]: 1}
        g = f.subs(sub)
        gu = f.diff(others[0]).subs(sub)
        gv = f.diff(others[1]).subs(sub)
        for first, second in (others, list(reversed(others))):
            r1 = sympy.resultant(g, gu, first)
            r2 = sympy.resultant(g, gv, first)
            r = sympy.resultant(r1, r2, second)
            if r != 0:
                vals.append(abs(int(r)))
    if not vals:
        raise ValueError("all eliminants vanish: curve is singular over Q")
    return gcd(*vals)


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

    Translates the point to the origin of an affine chart, expands
    F = a + a1*U + a2*V + Q(U, V) modulo (U, V)^3 with integer
    representatives, and reads off:

    * ``ordinary_node``: the quadratic part Q is nondegenerate mod p;
    * ``total_space_regular``: after one Newton-style corrective shift
      (U, V) -> (U + alpha1, V + alpha2) with alpha_i in pZ chosen to
      kill the linear terms mod p^2, the constant term has p-adic
      valuation exactly 1.
    """
    pt = [int(v) % p for v in point]
    chart = max((t for t in range(3) if pt[t] % p), default=None)
    if chart is None:
        raise ValueError("(0:0:0) is not a projective point")
    inv = pow(pt[chart], -1, p)
    pt = [v * inv % p for v in pt]
    affine_vars = [t for t in range(3) if t != chart]
    u0, v0 = pt[affine_vars[0]], pt[affine_vars[1]]

    def jet_coeff(s: int, t: int, modulus: int) -> int:
        acc = 0
        for (i, j, k), c in curve.coeffs.items():
            e = (i, j, k)
            iu, iv = e[affine_vars[0]], e[affine_vars[1]]
            if iu >= s and iv >= t:
                acc += (
                    c
                    * comb(iu, s)
                    * pow(u0, iu - s, modulus)
                    * comb(iv, t)
                    * pow(v0, iv - t, modulus)
                )
        return acc % modulus

    p2 = p * p
    a = jet_coeff(0, 0, p2)
    a1 = jet_coeff(1, 0, p2)
    a2 = jet_coeff(0, 1, p2)
    if a % p or a1 % p or a2 % p:
        raise ValueError("point is not a singular point of the fiber mod %d" % p)
    q20 = jet_coeff(2, 0, p)
    q11 = jet_coeff(1, 1, p)
    q02 = jet_coeff(0, 2, p)
    disc = (q11 * q11 - 4 * q20 * q02) % p
    ordinary = disc != 0

    if ordinary and p % 2 == 1:
        # Newton shift: solve [2q20 q11; q11 2q02] alpha = -(a1/p, a2/p)
        det = (4 * q20 * q02 - q11 * q11) % p
        dinv = pow(det, -1, p)
        b1, b2 = (-(a1 // p)) % p, (-(a2 // p)) % p
        al1 = dinv * (2 * q02 * b1 - q11 * b2) % p
        al2 = dinv * (-q11 * b1 + 2 * q20 * b2) % p
        shift = [0, 0, 0]
        shift[affine_vars[0]] = p * al1
        shift[affine_vars[1]] = p * al2
        moved = [pt[t] + shift[t] for t in range(3)]
        b = curve.evaluate_int(*moved) % p2
        assert b % p == 0
        regular = b != 0
    else:
        # the constant term mod p^2 is independent of the integer lift at
        # a singular point, so valuation 1 can be read off directly
        regular = a % p2 != 0
    return {"ordinary_node": ordinary, "total_space_regular": regular}


def _restrict_to_line(coeff_map: Dict[Monomial, int], F: FieldDescriptor, x0):
    """f(x0, y, 1) as an FqPoly in y (chart z = 1, x specialized)."""
    out = [F.zero()] * 5
    for (i, j, k), c in coeff_map.items():
        term = F.scalar_mul(c, F.pow(x0, i))
        out[j] = F.add(out[j], term)
    return FqPoly(F, out)


def singular_points(curve: TernaryQuarticForm, p: int) -> SingularFiberReport:
    """All common projective zeros of (f, f_x, f_y, f_z) over F_p and
    F_{p^2}, with node classification for the rational ones.

    Works by elimination: on the chart z = 1 the x-coordinates of
    singular points are among the roots of g(x) = gcd of the reductions
    of the integer resultants Res_y(f, f_*); each irreducible factor of g
    of degree <= 2 is then resolved by univariate gcds over the matching
    extension field.  Degree >= 3 factors are probed for genuine
    solutions in their residue field; if any exist, ``complete`` is
    False.  The line z = 0 is handled separately.  Soundness of the
    reduction step uses that the leading y-coefficient of f survives
    mod p (guaranteed here: the certifier's curves have a unit pure
    y^4 coefficient; degenerate inputs yield ``complete=False``).
    """
    if not sympy.isprime(p):
        raise ValueError("p must be prime")
    F = make_field(p, 1)
    partials = [curve.partial(t) for t in range(3)]
    complete = True
    rational: List[Tuple[int, int, int]] = []
    quadratic: List[tuple] = []

    # --- affine chart z = 1 ---------------------------------------------
    if curve.coeff(0, 4, 0) % p == 0:
        # leading y-coefficient dies: fall back to a full F_p scan and
        # give up on extension-field completeness
        complete = False
        for x0 in range(p):
            for y0 in range(p):
                if all(
                    _eval_map(m, x0, y0, 1) % p == 0
                    for m in [curve.coeffs] + partials
                ):
                    rational.append((x0, y0, 1))
    else:
        xs, ys, zs = sympy.symbols("x y z")
        f_aff = curve.sympy_expr().subs(zs, 1)
        elim: List[IntPoly] = []
        for dvar in range(3):
            g_aff = sum(
                c * xs ** i * ys ** j for (i, j, k), c in partials[dvar].items()
            )
            r = sympy.resultant(f_aff, g_aff, ys)
            elim.append(IntPoly(sympy.Poly(r, xs).all_coeffs()[::-1]))
        gx = FqPoly.zero(F)
        for r in elim:
            if not r.is_zero():
                gx = gx.gcd(r.reduce_mod(p, F)) if not gx.is_zero() else r.reduce_mod(p, F).monic()
        if gx.is_zero():
            # all three eliminants vanish mod p: positive-dimensional
            # singular locus candidate; report honestly
            complete = False
            for x0 in range(p):
                for y0 in range(p):
                    if all(
                        _eval_map(m, x0, y0, 1) % p == 0
                        for m in [curve.coeffs] + partials
                    ):
                        rational.append((x0, y0, 1))
        elif gx.degree > 0:
            for factor, _mult in factor_fq(gx):
                d = factor.degree
                if d == 1:
                    x0 = F.neg(factor.coeffs[0])
                    ygcd = _y_gcd_at(curve, partials, F, x0)
                    for yfac, _m in factor_fq(ygcd) if ygcd.degree > 0 else []:
                        if yfac.degree == 1:
                            y0 = F.neg(yfac.coeffs[0])
                            rational.append((x0[0], y0[0], 1))
                        elif yfac.degree == 2:
                            K2 = make_field(p, 2)
                            for y0 in FqPoly.from_ints(
                                K2, yfac.to_ints()
                            ).roots():
                                quadratic.append(
                                    ((K2.from_int(x0[0]), y0, K2.one()), K2)
                                )
                        else:
                            complete = False
                elif d == 2:
                    K2 = make_field(p, 2)
                    for x0 in FqPoly.from_ints(K2, factor.to_ints()).roots():
                        ygcd = _y_gcd_at(curve, partials, K2, x0)
                        for yfac, _m in (
                            factor_fq(ygcd) if ygcd.degree > 0 else []
                        ):
                            if yfac.degree == 1:
                                y0 = K2.neg(yfac.coeffs[0])
                                quadratic.append(((x0, y0, K2.one()), K2))
                            else:
                                complete = False
                else:
                    # residue-field probe: does a singular point live over
                    # F_{p^d}?  Root of the factor = class of x.
                    Kd = FieldDescriptor(p, d, tuple(factor.to_ints()))
                    x0 = Kd.gen()
                    if _y_gcd_at(curve, partials, Kd, x0).degree > 0:
                        complete = False

    # --- line z = 0 ------------------------------------------------------
    line_polys = []
    for m in [curve.coeffs] + partials:
        coeffs = [F.zero()] * 5
        for (i, j, k), c in m.items():
            if k == 0:
                coeffs[i] = F.add(coeffs[i], F.from_int(c))
        line_polys.append(FqPoly(F, coeffs))  # in x, with y = 1
    lg = FqPoly.zero(F)
    for lp_ in line_polys:
        if not lp_.is_zero():
            lg = lg.gcd(lp_) if not lg.is_zero() else lp_.monic()
    if lg.is_zero():
        complete = False
    elif lg.degree > 0:
        for factor, _m in factor_fq(lg):
            if factor.degree == 1:
                x0 = F.neg(factor.coeffs[0])
                rational.append((x0[0], 1, 0))
            elif factor.degree == 2:
                K2 = make_field(p, 2)
                for x0 in FqPoly.from_ints(K2, factor.to_ints()).roots():
                    quadratic.append(((x0, K2.one(), K2.zero()), K2))
            else:
                complete = False
    # the point (1:0:0)
    if all(_eval_map(m, 1, 0, 0) % p == 0 for m in [curve.coeffs] + partials):
        rational.append((1, 0, 0))

    pts: List[SingularPoint] = []
    for coords in sorted(set(rational)):
        flags = classify_node(curve, p, coords)
        pts.append(
            SingularPoint(
                coords=coords,
                field_degree=1,
                ordinary_node=flags["ordinary_node"],
                total_space_regular=flags["total_space_regular"],
            )
        )
    for coords, _K in sorted(set(quadratic), key=lambda t: t[0]):
        pts.append(
            SingularPoint(
                coords=coords,
                field_degree=2,
                ordinary_node=None,
                total_space_regular=None,
            )
        )
    return SingularFiberReport(p=p, points=tuple(pts), complete=complete)


def _y_gcd_at(curve, partials, K: FieldDescriptor, x0) -> FqPoly:
    """gcd over K of f(x0, y, 1) and all three partials at x = x0."""
    g = FqPoly.zero(K)
    for m in [curve.coeffs] + partials:
        poly = _restrict_to_line(m, K, x0)
        if poly.is_zero():
            continue
        g = g.gcd(poly) if not g.is_zero() else poly.monic()
    return g
