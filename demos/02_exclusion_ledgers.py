"""
Excluding reducibility prime by prime
=====================================

For the mod-ell Galois image to be the full symplectic group it must,
first of all, act irreducibly.  A handful of integer invariants of the
L-polynomial table exclude all but finitely many ell at once, and
explicit witness primes dispatch the stragglers.  This script walks
through each exclusion mechanism on the bundled table.
"""

import sys
from math import prod
from pathlib import Path

import sympy

from quartic_galois.counting import l_polynomial
from quartic_galois.curve import (
    TernaryQuarticForm,
    find_bad_prime_candidates,
    singular_points,
)
from quartic_galois.irreducibility import (
    dim1_exclusion,
    dim2_qpoly,
    dim3_obstruction,
    enumerate_case_profiles,
    irreducibility_certify,
    witness_search,
)
from quartic_galois.mod2 import mod2_orders, mod2_verdict
from quartic_galois.primitivity import primitivity_witnesses

# the exhaustive dim-3 search is a test oracle, kept in tests/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import dim3_solutions  # noqa: E402

curve = TernaryQuarticForm.bundled_curve()
lpolys = [l_polynomial(curve, p) for p in (2, 3, 5, 17, 19, 23, 41, 43, 73)]
by_p = {lp.p: lp for lp in lpolys}
# the bad primes are the candidates whose fiber really is singular
bad_primes = tuple(
    p for p in sympy.primefactors(find_bad_prime_candidates(curve))
    if singular_points(curve, p).points
)
level = prod(bad_primes)
print("bad primes:", bad_primes, " level (their product):", level)
print()

# --- the case split ---------------------------------------------------------
# a putative invariant subspace gives a factorization of P_p whose
# degrees and determinant exponents are constrained; only a few shapes
# survive
print("surviving case profiles (degree, exponent pairs):")
for prof in enumerate_case_profiles():
    print("  %-24s handled by the %s family" % (prof.pairs, prof.family))
print()

# --- mod 2 ------------------------------------------------------------------
ev = mod2_orders(lpolys)
print("Frobenius orders attained mod 2:", sorted(ev.orders_attained))
print("mod-2 verdict:", mod2_verdict(ev)["verdict"])
print()

# --- dimension 1 ------------------------------------------------------------
# a one-dimensional constituent forces ell to divide P_p(1) * P_p(p)
print("dim-1 exclusion from P_2 alone:", sorted(dim1_exclusion([by_p[2]])))
print()

# --- dimension 2 ------------------------------------------------------------
# a two-dimensional constituent with determinant chi pairs the
# Frobenius roots; the trace of the pairing is a root of a cubic
for p in (2, 5):
    q = dim2_qpoly(by_p[p])
    print("Q_%d(x) = %s" % (p, q.pretty("x")))
print("(comparing the roots of these cubics with Hecke eigenvalues at")
print(" level %d is what the bundled Hecke data is for)" % level)
print()

# --- dimension 3 ------------------------------------------------------------
# a three-dimensional constituent forces an integer obstruction N(e)
# to vanish mod ell; the exhaustive search over F_ell^2 is the oracle
for e in (0, 1):
    n = dim3_obstruction(by_p[2], e)
    print("dim-3 obstruction N(%d) = %d, odd support %s"
          % (e, n, sorted(set(sympy.primefactors(n)) - {2})))
sols = dim3_solutions(by_p[2], 0, 5).solutions
print("exhaustive check at ell = 5, e = 0 finds solutions:", sorted(sols))
print()

# --- witnesses for the leftover primes --------------------------------------
for ell in (3, 5, 7, 11, 17, 41, 83):
    print("ell = %2d excluded by witness prime p = %s"
          % (ell, witness_search(lpolys, ell)))
print()

# --- the assembled ledger ---------------------------------------------------
ledger = irreducibility_certify(lpolys, bad_primes=bad_primes)
print("finite sets per mechanism:")
for name, s in ledger.finite_sets.items():
    print("  %-5s %s" % (name, sorted(s) if s is not None else "(needs Hecke data)"))
print("ledger complete without Hecke data:", ledger.complete)
print()

# --- primitivity ------------------------------------------------------------
wit = primitivity_witnesses(lpolys, sorted({3, 5} | set(bad_primes)))
print("primitivity witnesses:",
      {ell: w.p for ell, w in wit.items()})
