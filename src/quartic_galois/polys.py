"""Univariate polynomial arithmetic over Z and finite fields.

Two representations are used:

* ``IntPoly`` -- a thin wrapper over a dense coefficient list (low degree
  first) with int entries.
* ``FqPoly`` -- dense coefficient list of field elements over a
  :class:`~quartic_galois.fields.FieldDescriptor`.

Over a prime field (``field.m == 1``) the arithmetic of ``FqPoly`` --
``+``, ``-``, ``*``, ``divmod``, ``gcd``, ``monic``, ``derivative`` and
``pow_mod`` -- runs on plain int lists with one ``% p`` per output
coefficient, not a ``FieldDescriptor`` call and a 1-tuple per
coefficient operation; the result goes back into the same ``(c,)``
tuples.  Over F_{p^m} with m >= 2 an element is a vector of m
coordinates whose product reduces by the field's modulus, so those
fields keep the element-by-element path.  The field of the operands
alone picks the path.

Factorization over finite fields runs distinct-degree splitting followed
by Cantor-Zassenhaus equal-degree splitting on the radical, then reads
multiplicities off by trial division; the equal-degree stage draws from a
fixed-seed pseudo-random stream, so the factor list (sorted by degree,
then coefficient vector) is identical across runs.

Resultants over Z are exact integer computations: a monic-divisor
reduction fast path (used when one operand has very large degree, as with
Hecke characteristic polynomials) followed by a fraction-free Bareiss
determinant of the Sylvester matrix.  No floating point anywhere.  The
signed r_p of ``irreducibility.dim2_resultants`` go into the certificate,
so they stay here: sympy 1.14's resultant has the opposite sign when
deg f < deg g and deg f * deg g is odd (``(T - 2).resultant(T**3 + 3*T**2
- 3)`` in ``ring("T", ZZ)`` and ``sympy.resultant`` give -17, not 17).
Every resultant over Z goes through ``int_resultant``, with its sign:
``curve.py`` eliminates over Z[x] by ``bivariate_resultant``, which packs
x = 2^K into it.
"""

from __future__ import annotations

import random
from itertools import zip_longest
from typing import List, Sequence, Tuple

from .fields import Element, FieldDescriptor, make_field

_CZ_SEED = 0x5EED_CA55

# Sylvester matrices up to this total degree go straight to Bareiss;
# larger inputs must first shrink through the monic-reduction fast path.
_BAREISS_CUTOFF = 64


# ---------------------------------------------------------------------------
# integer polynomials


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# Kronecker substitution: a polynomial over Z becomes the integer
# sum c_k 2^(K k) and back.  K is a multiple of 8 and every |c_k| is
# below 2^(K-1), so the signed base-2^K digits are unique; biased by
# 2^(K-1) they become bytes, which packs and unpacks in linear time.


def _digit_bits(bound: int) -> int:
    """The least multiple of 8, K, with 2^(K-1) > bound >= 0."""
    return (bound.bit_length() // 8 + 1) * 8


def _bias(n: int, K: int) -> int:
    """2^(K-1) in each of n base-2^K digits."""
    return int.from_bytes((1 << (K - 1)).to_bytes(K // 8, "little") * n, "little")


def _pack(coeffs: Sequence[int], K: int) -> int:
    """sum_k coeffs[k] 2^(K k)."""
    half, width = 1 << (K - 1), K // 8
    biased = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(biased, "little") - _bias(len(coeffs), K)


def _unpack(value: int, K: int) -> List[int]:
    """The signed base-2^K digits of value, low first: :func:`_pack`'s
    inverse.  With n digits, the top one nonzero, |value| is above
    2^(K(n-1)-1) and below 2^(Kn-1), so n = bit_length // K + 1."""
    half, width = 1 << (K - 1), K // 8
    n = abs(value).bit_length() // K + 1
    raw = (value + _bias(n, K)).to_bytes(n * width, "little")
    return [
        int.from_bytes(raw[i:i + width], "little") - half
        for i in range(0, len(raw), width)
    ]


class IntPoly:
    """Dense polynomial over Z, coefficients low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        self.coeffs = tuple(_trim([int(c) for c in coeffs]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPoly([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPoly([x - y for x, y in zip(a, b)])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        """The product by Kronecker substitution, one int product."""
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly([])
        # no coefficient of the product exceeds this
        bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
        K = _digit_bits(bound)
        return IntPoly(_unpack(_pack(a, K) * _pack(b, K), K))

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scale(self, c: int) -> "IntPoly":
        return IntPoly([c * a for a in self.coeffs])

    def monic_rem(self, other: "IntPoly") -> "IntPoly":
        """Remainder of self by a *monic* other, exactly over Z."""
        if other.lc() != 1:
            raise ValueError("divisor is not monic")
        rem = list(self.coeffs)
        d = other.degree
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c:
                for j in range(d):
                    rem[k - d + j] -= c * other.coeffs[j]
            rem[k] = 0
        return IntPoly(rem[:d])

    def reduce_mod(self, ell: int) -> "FqPoly":
        return FqPoly.from_ints(make_field(ell, 1), self.coeffs)

    def __repr__(self):
        return "IntPoly(%r)" % (list(self.coeffs),)

    def pretty(self, var: str = "T") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                term = "%s%s" % (mag, var if i == 1 else "%s^%d" % (var, i))
            parts.append(("- " if c < 0 else "+ ") + term)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


def _bareiss_det(mat: List[List[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss
    elimination (all intermediate divisions are exact)."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _sylvester_resultant(f: IntPoly, g: IntPoly) -> int:
    m, n = f.degree, g.degree
    size = m + n
    mat = [[0] * size for _ in range(size)]
    fr = list(reversed(f.coeffs))
    gr = list(reversed(g.coeffs))
    for i in range(n):
        for j, c in enumerate(fr):
            mat[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(gr):
            mat[n + i][i + j] = c
    return _bareiss_det(mat)


def int_resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant over Z: Res(f, g) = lc(f)^deg(g) * prod g(alpha_i) over
    the roots alpha_i of f, with Res(f, g) = (-1)^(deg f deg g) Res(g, f).

    When one operand is monic and much larger than the other (a Hecke
    characteristic polynomial against a cubic), the larger one is first
    reduced modulo the monic one — an exact integer operation — using
    Res(A, B) = lc(A)^(deg B − deg B') Res(A, B') for B' = B mod A.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of a zero polynomial")
    sign = 1
    a, b = f, g
    while a.degree > 0 and b.degree > 0 and a.degree + b.degree > _BAREISS_CUTOFF:
        if a.degree < b.degree:
            if (a.degree * b.degree) % 2:
                sign = -sign
            a, b = b, a
        if b.lc() != 1:
            raise ValueError(
                "resultant of large non-monic polynomials is not supported "
                "(degrees %d, %d)" % (f.degree, g.degree)
            )
        r = a.monic_rem(b)
        if r.is_zero():
            return 0
        if (a.degree * b.degree) % 2:
            sign = -sign
        # Res(a, b) = (-1)^(da db) Res(b, a), and Res(b, a) = Res(b, r)
        # because lc(b) = 1
        a, b = b, r
    if a.degree == 0:
        return sign * a.lc() ** b.degree
    if b.degree == 0:
        return sign * b.lc() ** a.degree
    return sign * _sylvester_resultant(a, b)


def bivariate_resultant(f_rows: List[IntPoly], g_rows: List[IntPoly]) -> IntPoly:
    """Res_y(f, g) in Z[x] for f = sum_j f_rows[j](x) y^j and likewise g,
    with :func:`int_resultant`'s sign, by Kronecker substitution x = 2^K.

    No coefficient of Res_y exceeds B = (sum_j |f_j|_1)^deg_y(g) *
    (sum_j |g_j|_1)^deg_y(f), the permanent bound on the Sylvester matrix.
    With 2^(K-1) above B and every |row|_1 the signed base-2^K digits of
    the packed resultant are unique, and a packed row is zero only when
    the row is, so deg_y survives.  A zero operand gives the zero
    polynomial; two operands constant in y give 1.
    """
    rows = (f_rows, g_rows)
    df, dg = (max((j for j, r in enumerate(h) if r.coeffs), default=-1) for h in rows)
    if df < 0 or dg < 0:
        return IntPoly([])
    nf, ng = (sum(abs(c) for r in h for c in r.coeffs) for h in rows)
    K = _digit_bits(max(nf ** dg * ng ** df, nf, ng))
    res = int_resultant(*(IntPoly([r(1 << K) for r in h]) for h in rows))
    return IntPoly(_unpack(res, K))


# ---------------------------------------------------------------------------
# polynomials over finite fields

# Prime-field kernels: polynomials over F_p as trimmed lists of ints in
# [0, p), low degree first.  Sums of products stay unreduced until the
# coefficient is read (Python ints do not overflow).


def _pmul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, ai in enumerate(a):
        if ai:
            out[i : i + nb] = [o + ai * bj for o, bj in zip(out[i : i + nb], b)]
    return [c % p for c in out]  # lc(a) lc(b) != 0 in a field


def _pdivmod(a: list, b: list, p: int) -> Tuple[list, list]:
    """(quotient, remainder) of a by a nonzero b."""
    db = len(b) - 1
    dq = len(a) - 1 - db
    if dq < 0:
        return [], a
    inv_lc = pow(b[-1], -1, p)
    rem = a[:]
    quot = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + db] * inv_lc % p
        if c:
            quot[k] = c
            rem[k : k + db] = [r - c * bj for r, bj in zip(rem[k : k + db], b)]
    return quot, _trim([r % p for r in rem[:db]])


def _pmonic(a: list, p: int) -> list:
    if not a or a[-1] == 1:
        return a
    inv_lc = pow(a[-1], -1, p)
    return [c * inv_lc % p for c in a]


class FqPoly:
    """Dense polynomial over a finite field, coefficients low degree first.

    ``coeffs`` is a tuple of field elements (m-tuples of ints) with no
    trailing zero.  Over a prime field the methods unpack it once into
    an int list, run the ``_p*`` kernels above and pack the result; over
    F_{p^m}, m >= 2, they call the ``FieldDescriptor`` per coefficient.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs: Sequence[Element]):
        coeffs = list(coeffs)
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_ints(cls, field: FieldDescriptor, ints: Sequence[int]) -> "FqPoly":
        if field.m == 1:
            return _fp(field, _trim([c % field.p for c in ints]))
        return cls(field, [field.from_int(c) for c in ints])

    def _ints(self) -> list:
        return [c[0] for c in self.coeffs]

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "FqPoly":
        return cls(field, [])

    @classmethod
    def one(cls, field: FieldDescriptor) -> "FqPoly":
        return cls(field, [field.one()])

    @classmethod
    def x(cls, field: FieldDescriptor) -> "FqPoly":
        return cls(field, [field.zero(), field.one()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Element:
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other: "FqPoly") -> "FqPoly":
        F = self.field
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=F.zero())
        if F.m == 1:
            return _fp(F, _trim([(x + y) % F.p for (x,), (y,) in pairs]))
        return FqPoly(F, [F.add(x, y) for x, y in pairs])

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        F = self.field
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=F.zero())
        if F.m == 1:
            return _fp(F, _trim([(x - y) % F.p for (x,), (y,) in pairs]))
        return FqPoly(F, [F.sub(x, y) for x, y in pairs])

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        F = self.field
        if F.m == 1:
            return _fp(F, _pmul(self._ints(), other._ints(), F.p))
        if self.is_zero() or other.is_zero():
            return FqPoly.zero(F)
        out = [F.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if not F.is_zero(ai):
                for j, bj in enumerate(other.coeffs):
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return FqPoly(F, out)

    def scale(self, c: Element) -> "FqPoly":
        F = self.field
        return FqPoly(F, [F.mul(c, a) for a in self.coeffs])

    def monic(self) -> "FqPoly":
        F = self.field
        if F.m == 1:
            return _fp(F, _pmonic(self._ints(), F.p))
        if self.is_zero():
            return self
        return self.scale(F.inv(self.lc()))

    def divmod(self, other: "FqPoly") -> Tuple["FqPoly", "FqPoly"]:
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if F.m == 1:
            quot, rem = _pdivmod(self._ints(), other._ints(), F.p)
            return _fp(F, quot), _fp(F, rem)
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return FqPoly.zero(F), self
        quot = [F.zero()] * (dq + 1)
        inv_lc = F.inv(other.lc())
        for k in range(dq, -1, -1):
            c = F.mul(rem[k + other.degree], inv_lc)
            quot[k] = c
            if not F.is_zero(c):
                for j, bj in enumerate(other.coeffs):
                    rem[k + j] = F.sub(rem[k + j], F.mul(c, bj))
        return FqPoly(F, quot), FqPoly(F, rem[: other.degree])

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "FqPoly") -> "FqPoly":
        return self.divmod(other)[0]

    def gcd(self, other: "FqPoly") -> "FqPoly":
        """The monic gcd; zero when both operands are zero."""
        F = self.field
        if F.m == 1:
            a, b, p = self._ints(), other._ints(), F.p
            while b:
                a, b = b, _pdivmod(a, b, p)[1]
            return _fp(F, _pmonic(a, p))
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "FqPoly":
        F = self.field
        if F.m == 1:
            a = self._ints()
            return _fp(F, _trim([i * c % F.p for i, c in enumerate(a)][1:]))
        return FqPoly(
            F, [F.scalar_mul(i, c) for i, c in enumerate(self.coeffs)][1:]
        )

    def __call__(self, x: Element) -> Element:
        F = self.field
        acc = F.zero()
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def pow_mod(self, n: int, modulus: "FqPoly") -> "FqPoly":
        """self^n mod modulus for n >= 0 (the one polynomial for n = 0)."""
        F = self.field
        if F.m == 1:
            m, p = modulus._ints(), F.p
            result, base = [1], (self % modulus)._ints()
            while n:  # right to left, as below, without the last squaring
                if n & 1:
                    result = _pdivmod(_pmul(result, base, p), m, p)[1]
                n >>= 1
                if n:
                    base = _pdivmod(_pmul(base, base, p), m, p)[1]
            return _fp(F, result)
        result = FqPoly.one(F)
        base = self % modulus
        while n:
            if n & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            n >>= 1
        return result

    def is_squarefree(self) -> bool:
        if self.is_zero():
            return False
        if self.degree <= 0:
            return True
        d = self.derivative()
        if d.is_zero():
            return False
        return self.gcd(d).degree == 0

    def coeff_key(self) -> tuple:
        return tuple(self.coeffs)

    def to_ints(self) -> List[int]:
        """Coefficients as integers; only valid over prime fields."""
        if self.field.m != 1:
            raise ValueError("not a prime-field polynomial")
        return [c[0] for c in self.coeffs]

    def __repr__(self):
        return "FqPoly(F_%d^%d, %r)" % (self.field.p, self.field.m, list(self.coeffs))


def _fp(F: FieldDescriptor, ints: list) -> FqPoly:
    """The FqPoly over the prime field F with the trimmed, reduced ints."""
    f = object.__new__(FqPoly)
    f.field = F
    f.coeffs = tuple([(c,) for c in ints])
    return f


# ---------------------------------------------------------------------------
# factorization over finite fields


def _pth_root(f: FqPoly) -> FqPoly:
    """For f with zero derivative, return g with g^p = f (coefficientwise
    p-th roots of the x^(ip) coefficients; the root of c is c^(q/p))."""
    F = f.field
    p = F.p
    coeffs = []
    for i in range(0, f.degree + 1, p):
        c = f.coeffs[i] if i < len(f.coeffs) else F.zero()
        coeffs.append(F.pow(c, F.order // p))
    return FqPoly(F, coeffs)


def _radical(f: FqPoly) -> FqPoly:
    """Product of the distinct monic irreducible factors of f."""
    F = f.field
    f = f.monic()
    if f.degree <= 0:
        return FqPoly.one(F)
    d = f.derivative()
    if d.is_zero():
        return _radical(_pth_root(f))
    g = f.gcd(d)
    u = (f // g).monic()  # factors with multiplicity prime to char, once each
    if g.degree == 0:
        return u
    w = _radical(g)
    return (u * (w // w.gcd(u))).monic()


def _distinct_degree(f: FqPoly) -> List[Tuple[FqPoly, int]]:
    """Split a monic squarefree f into products of irreducibles of equal
    degree; returns (product, degree) pairs."""
    F = f.field
    out = []
    h = FqPoly.x(F)
    v = f
    d = 0
    while v.degree >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(F.order, v)
        g = v.gcd(h - FqPoly.x(F))
        if g.degree > 0:
            out.append((g, d))
            v = v // g
            h = h % v
    if v.degree > 0:
        out.append((v, v.degree))
    return out


def _equal_degree_split(f: FqPoly, d: int, rng: random.Random) -> List[FqPoly]:
    """Cantor-Zassenhaus split of a monic squarefree product of
    irreducibles all of degree d."""
    F = f.field
    if f.degree == d:
        return [f]
    q = F.order
    while True:
        a_coeffs = [F.element_from_index(rng.randrange(q)) for _ in range(f.degree)]
        a = FqPoly(F, a_coeffs)
        if a.degree < 1:
            continue
        g = f.gcd(a)
        if 0 < g.degree < f.degree:
            pass
        elif q % 2 == 1:
            b = a.pow_mod((q ** d - 1) // 2, f)
            g = f.gcd(b - FqPoly.one(F))
            if not (0 < g.degree < f.degree):
                continue
        else:
            # characteristic 2: use the trace map down to F_2
            t = a
            acc = a
            for _ in range(d * F.m - 1):
                t = (t * t) % f
                acc = acc + t
            g = f.gcd(acc)
            if not (0 < g.degree < f.degree):
                continue
        return _equal_degree_split(g.monic(), d, rng) + _equal_degree_split(
            (f // g).monic(), d, rng
        )


def factor_fq(f: FqPoly) -> List[Tuple[FqPoly, int]]:
    """Full factorization into monic irreducibles with multiplicities,
    sorted by (degree, coefficient vector) for reproducible output."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(_CZ_SEED)
    irreducibles: List[FqPoly] = []
    for prod, d in _distinct_degree(_radical(f)):
        irreducibles.extend(_equal_degree_split(prod.monic(), d, rng))
    factors: List[Tuple[FqPoly, int]] = []
    work = f.monic()
    for g in irreducibles:
        e = 0
        while True:
            quot, rem = work.divmod(g)
            if not rem.is_zero():
                break
            work = quot
            e += 1
        factors.append((g, e))
    if work.degree != 0:
        raise ArithmeticError(
            "trial division left a factor of degree %d" % work.degree
        )
    factors.sort(key=lambda t: (t[0].degree, t[0].coeff_key()))
    return factors


def is_irreducible_fq(f: FqPoly) -> bool:
    """True iff f has positive degree n and no irreducible factor of
    degree <= n/2, that is iff distinct-degree splitting finds nothing
    before its leftover of degree n."""
    n = f.degree
    return n > 0 and _distinct_degree(f.monic())[0][1] == n


def is_irreducible_mod(f: IntPoly, ell: int) -> bool:
    """True iff f mod ell is irreducible over F_ell.  Requires that the
    leading coefficient survives reduction (degree is preserved)."""
    if f.lc() % ell == 0:
        raise ValueError("leading coefficient vanishes mod %d" % ell)
    return is_irreducible_fq(f.reduce_mod(ell))


def multiplicative_order(f: FqPoly) -> int:
    """Least n >= 1 with f | x^n - 1.

    Requires f(0) != 0 and f squarefree.  Multiplies by x mod f until the
    power is 1: f(0) != 0 makes x a unit of F_q[x]/(f), a ring of q^deg(f)
    elements, so the loop ends with n < q^deg(f).
    """
    F = f.field
    if f.is_zero() or F.is_zero(f.coeffs[0]):
        raise ValueError("f(0) = 0: no polynomial x^n - 1 is divisible by x")
    if not f.is_squarefree():
        raise ValueError("f is not squarefree")
    x, one = FqPoly.x(F), FqPoly.one(F) % f
    power, n = x % f, 1
    while power != one:
        power, n = power * x % f, n + 1
    return n
