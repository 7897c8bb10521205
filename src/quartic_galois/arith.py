"""Integer number theory: primality, factorization, divisors, totient.

``isprime`` is the Miller-Rabin test to the first k prime bases, where
psi_k, the least composite that passes all of them, exceeds n.  With 13
bases (2 to 41) that covers n below psi_13, about 3.3 * 10^24 (Sorenson
and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
2017; the first 12 bases alone are fooled by psi_12, about 3.2 * 10^23).
A number at or above psi_13 that passes every base raises ValueError
rather than be guessed prime.  ``factorint`` divides out the primes
below 1000 and splits what is left by Pollard-Brent rho
(Brent, BIT 20, 1980) under a fixed budget of ``_RHO_STEPS`` steps per
call.  Exhausting the budget raises ArithmeticError, so a number with two
large prime factors (a product of two 100-bit primes, say, which no
general method here would split in reasonable time) gives a failed
obligation instead of a run that does not end.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Dict, List

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k for k = 1..13: no composite below psi_k passes the strong test to
# the first k bases
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
_SMALL_PRIMES = tuple(
    q for q in range(2, 1000) if all(q % d for d in range(2, int(q ** 0.5) + 1))
)
# Pollard-Brent rho steps (squarings mod n) allowed per factorint call
_RHO_STEPS = 1 << 22
# squarings between two gcds in Brent's cycle search
_RHO_BATCH = 128


def isprime(n: int) -> bool:
    """Whether the integer n is prime: exact below psi_13; at or above
    it a number that passes every base raises ValueError."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES[:25]:  # the primes below 100
        if n % q == 0:
            return n == q
    if n < 100 * 100:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_MR_BASES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    raise ValueError(
        "primality of a %d-bit integer is not decided" % n.bit_length()
    )


def factorint(n: int) -> Dict[int, int]:
    """The prime factorization {prime: exponent} of n >= 1, primes in
    increasing order.  Raises ArithmeticError when Pollard-Brent rho
    runs out of its step budget, and ValueError (from :func:`isprime`)
    on a cofactor at or above psi_13 (82 bits) that may be prime."""
    if n < 1:
        raise ValueError("factorint needs n >= 1, got %d" % n)
    out: Dict[int, int] = {}
    for q in _SMALL_PRIMES:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    budget = [_RHO_STEPS]
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if isprime(m):
            out[m] = out.get(m, 0) + e
            continue
        power = _perfect_power(m)
        if power is not None:
            stack.append((power[0], e * power[1]))
        else:
            d = _rho(m, budget)
            stack += [(d, e), (m // d, e)]
    return dict(sorted(out.items()))


def _perfect_power(m: int):
    """(r, k) with m = r^k for the least prime k, or None.  m has no
    prime factor below 1000, so r >= 1000 and 1000^k <= m."""
    for k in _SMALL_PRIMES:
        if 1000 ** k > m:
            return None
        r = _iroot(m, k)
        if r ** k == m:
            return r, k
    return None


def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) by Newton's method from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _rho(n: int, budget: List[int]) -> int:
    """A proper factor of the composite n by Brent's cycle search on
    y -> y^2 + c for c = 1, 2, ...; each squaring is charged to
    ``budget[0]``."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            budget[0] -= r + min(k, r)
            if budget[0] < 0:
                raise ArithmeticError(
                    "Pollard rho found no factor of a %d-bit integer within "
                    "%d steps" % (n.bit_length(), _RHO_STEPS)
                )
            r *= 2
        if g == n:  # the batch overshot: step again one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError("Pollard rho found no factor of %d" % n)


def primefactors(n: int) -> List[int]:
    """The primes dividing n, increasing; [] for n in {-1, 0, 1}."""
    n = abs(n)
    return list(factorint(n)) if n > 1 else []


def divisors(n: int) -> List[int]:
    """The positive divisors of n >= 1, increasing."""
    out = [1]
    for q, e in factorint(n).items():
        out = [d * q ** k for d in out for k in range(e + 1)]
    return sorted(out)


def totient(n: int) -> int:
    """Euler's phi of n >= 1."""
    return prod(q ** (e - 1) * (q - 1) for q, e in factorint(n).items())
