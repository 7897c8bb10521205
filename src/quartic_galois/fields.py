"""Exact arithmetic in finite fields F_{p^m}.

Elements of F_{p^m} are represented as tuples of m integers in [0, p),
giving the coordinates in the polynomial basis 1, x, ..., x^{m-1} modulo
the field's defining polynomial.  The defining polynomial is always the
*canonical* one: the first monic irreducible of degree m in the
enumeration where the coefficient vector (c_0, ..., c_{m-1}) of
x^m + c_{m-1} x^{m-1} + ... + c_0 is read as the base-p integer
c_0 + c_1 p + ... + c_{m-1} p^{m-1}, scanned in increasing order.
This makes field arithmetic reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Tuple

from .arith import isprime

Element = Tuple[int, ...]


@dataclass(frozen=True)
class FieldDescriptor:
    """A finite field F_{p^m} together with its canonical modulus.

    ``modulus`` holds the m+1 coefficients of the monic defining
    polynomial, low degree first (so modulus[m] == 1).  For m == 1 the
    modulus is x itself, i.e. (0, 1).
    """

    p: int
    m: int
    modulus: Tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p ** self.m

    def zero(self) -> Element:
        return (0,) * self.m

    def one(self) -> Element:
        return (1,) + (0,) * (self.m - 1)

    def from_int(self, n: int) -> Element:
        """Embed an integer via reduction mod p (prime subfield)."""
        return (n % self.p,) + (0,) * (self.m - 1)

    def gen(self) -> Element:
        """The class of x, a root of the modulus (for m == 1 this is 0)."""
        if self.m == 1:
            return (0,)
        return (0, 1) + (0,) * (self.m - 2)

    def add(self, a: Element, b: Element) -> Element:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a: Element, b: Element) -> Element:
        p, m = self.p, self.m
        if m == 1:
            return (a[0] * b[0] % p,)
        # schoolbook convolution, then reduce by the monic modulus
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            if c:
                for j in range(m):
                    prod[k - m + j] -= c * self.modulus[j]
            prod[k] = 0
        return tuple(v % p for v in prod[:m])

    def scalar_mul(self, c: int, a: Element) -> Element:
        p = self.p
        c %= p
        return tuple(c * x % p for x in a)

    def pow(self, a: Element, n: int) -> Element:
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = self.one()
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a: Element) -> Element:
        if a == self.zero():
            raise ZeroDivisionError("inversion of 0 in F_%d^%d" % (self.p, self.m))
        if self.m == 1:
            return (pow(a[0], -1, self.p),)
        # a^(q-2) -- fine at the field sizes this package needs
        return self.pow(a, self.order - 2)

    def is_zero(self, a: Element) -> bool:
        return all(c == 0 for c in a)

    def elements(self) -> Iterator[Element]:
        """All field elements, in lexicographic coordinate order with the
        constant coordinate varying fastest."""
        p, m = self.p, self.m
        for n in range(self.order):
            coords = []
            t = n
            for _ in range(m):
                coords.append(t % p)
                t //= p
            yield tuple(coords)

    def element_from_index(self, n: int) -> Element:
        p, m = self.p, self.m
        coords = []
        for _ in range(m):
            coords.append(n % p)
            n //= p
        return tuple(coords)

    def frobenius(self, a: Element) -> Element:
        return self.pow(a, self.p)


def _poly_has_root(coeffs, p: int) -> bool:
    """Whether the monic polynomial with the given coefficients (low
    degree first) has a root in F_p.  A quadratic at odd p has one iff
    its discriminant is a square (Euler's criterion), which takes
    O(log p) steps; for any other, every x in F_p is tried."""
    if len(coeffs) == 3 and p % 2:
        disc = coeffs[1] * coeffs[1] - 4 * coeffs[0]
        return pow(disc, (p - 1) // 2, p) != p - 1
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


@lru_cache(maxsize=None)
def make_field(p: int, m: int) -> FieldDescriptor:
    """Construct F_{p^m} with the canonical modulus (see module docstring).

    A candidate with a root in F_p is reducible; for m <= 3 having no
    root is also sufficient, and for m >= 4 distinct-degree splitting
    decides.
    """
    if not isprime(p):
        raise ValueError("p = %d is not prime" % p)
    if m < 1:
        raise ValueError("extension degree must be >= 1, got %d" % m)
    if m == 1:
        return FieldDescriptor(p, 1, (0, 1))
    # polys builds on this module, hence the function-level import
    from .polys import FqPoly, is_irreducible_fq

    prime_field = make_field(p, 1)
    for n in range(p ** m):
        coeffs = []
        t = n
        for _ in range(m):
            coeffs.append(t % p)
            t //= p
        candidate = tuple(coeffs) + (1,)
        if _poly_has_root(candidate, p):
            continue
        if m <= 3 or is_irreducible_fq(
            FqPoly.from_ints(prime_field, candidate)
        ):
            return FieldDescriptor(p, m, candidate)
    raise ArithmeticError("no irreducible degree-%d modulus mod %d" % (m, p))
