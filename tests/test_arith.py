"""Integer number theory against sympy's."""

import random
import time

import pytest
import sympy

from quartic_galois import arith, modsym
from quartic_galois.arith import divisors, factorint, isprime, primefactors, totient


def test_isprime_below_10_5():
    assert [n for n in range(10 ** 5) if isprime(n)] == list(sympy.primerange(10 ** 5))
    assert not isprime(-7)


def test_isprime_on_64_bit_integers():
    rng = random.Random(2026)
    samples = [rng.getrandbits(64) | 1 for _ in range(3000)]
    samples += [sympy.prevprime(rng.getrandbits(64)) for _ in range(200)]
    # the least strong pseudoprimes to the first 4, 5, 6, 7, 9 and 12
    # prime bases (psi_12 is past 64 bits)
    samples += [3215031751, 2152302898747, 3474749660383, 341550071728321,
                3825123056546413051, 318665857834031151167461]
    for n in samples:
        assert isprime(n) == sympy.isprime(n), n


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


def test_psi_table_holds_strong_pseudoprimes():
    # a mistyped psi_k would not pass the strong test to its k bases
    for k, psi in enumerate(arith._PSI, start=1):
        assert not sympy.isprime(psi)
        assert all(_strong_probable_prime(psi, a) for a in arith._MR_BASES[:k])
    for psi in arith._PSI[:-1]:  # the next base catches each
        assert not isprime(psi)


def test_isprime_refuses_to_guess_above_the_bound():
    # psi_13 itself passes all 13 bases
    for n in (arith._PSI[-1], sympy.nextprime(arith._PSI[-1])):
        with pytest.raises(ValueError, match="not decided"):
            isprime(n)
    assert not isprime(3 * arith._PSI[-1]) and not isprime(arith._PSI[-1] + 2)


def test_factorint_on_seeded_products():
    rng = random.Random(5)
    for _ in range(200):
        n = 1
        for _ in range(rng.randint(1, 6)):
            n *= sympy.randprime(2, 2 ** rng.randint(2, 24)) ** rng.randint(1, 4)
        assert factorint(n) == sympy.factorint(n), n
        assert primefactors(n) == sympy.primefactors(n)
    # repeated factors above the trial-division bound
    assert factorint(1009 ** 2 * 1013 ** 3) == {1009: 2, 1013: 3}
    assert factorint(2 ** 10 * (2 ** 31 - 1) ** 5) == {2: 10, 2 ** 31 - 1: 5}


def test_factorint_splits_40_bit_prime_pairs():
    rng = random.Random(40)
    for _ in range(3):
        p, q = (sympy.randprime(2 ** 39, 2 ** 40) for _ in range(2))
        assert factorint(p * q) == sympy.factorint(p * q)


def test_factorint_gives_up_at_the_step_cap(monkeypatch):
    monkeypatch.setattr(arith, "_RHO_STEPS", 1 << 12)
    rng = random.Random(100)
    p, q = (sympy.randprime(2 ** 99, 2 ** 100) for _ in range(2))
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="4096 steps"):
        factorint(p * q)
    assert time.perf_counter() - start < 1.0


def test_edge_cases():
    assert factorint(1) == {} and primefactors(1) == [] and primefactors(0) == []
    assert primefactors(-12) == [2, 3]
    with pytest.raises(ValueError):
        factorint(0)


def test_divisors_and_totient_below_2000():
    for n in range(1, 2001):
        assert divisors(n) == sympy.divisors(n)
        assert totient(n) == sympy.totient(n)


def test_genus_x0_unchanged_below_2000(monkeypatch):
    ours = [modsym.genus_x0(n) for n in range(1, 2001)]
    for name in ("primefactors", "divisors", "totient"):
        monkeypatch.setattr(modsym, name, getattr(sympy, name))
    assert ours == [modsym.genus_x0(n) for n in range(1, 2001)]
