"""Irreducibility of J[ell] for every odd prime ell.

A proper decomposition of the 6-dimensional ell-torsion module has
Jordan-Holder factors whose dimensions d_i partition 6 into at least
two parts.  The determinant of the i-th factor is chi^(e_i), chi the
cyclotomic character, with 0 <= e_i <= d_i (tame-inertia exponents in
{0,1} at ell); the e_i sum to 3, and the Weil pairing makes the
multiset {e_i} equal to {d_i - e_i}.  Every profile that survives has a
1-dimensional factor, a 2-dimensional factor with determinant chi, or
is a pair of 3-dimensional factors, so three families cover the split.
The ledger hard-codes them; ``tests/oracles.py`` enumerates the
profiles, and a test checks that their families are the ledger's.  Each
family is then excluded outside an explicitly computed finite set of
primes:

* dimension 1: the Frobenius eigenvalue at a good prime p is 1 or p
  mod ell, so ell divides P_p(1) * P_p(p);
* dimension 2: the factor has determinant the cyclotomic character, is
  odd and irreducible, hence modular of weight 2, trivial nebentypus
  and level dividing the conductor (trusted fact TF-SERRE); its trace
  of Frobenius is then a root mod ell of both the Hecke characteristic
  polynomial H_p and the cubic Q_p built from P_p, so ell divides the
  resultant Res(H_p, Q_p);
* dimension 3: the two 3-dimensional factors pair up, and matching the
  T^5, T^4, T^3 coefficients of P_p against the paired factorization
  yields three polynomial equations in two unknowns (u, v) over F_ell
  whose elimination produces a nonzero integer divisible by every ell
  admitting a solution.

Primes inside any finite set are finished off by a direct witness: a
good prime p != ell with P_p irreducible mod ell.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from .arith import primefactors
from .curve import LPolynomial
from .polys import IntPoly, int_resultant, is_irreducible_mod


# ---------------------------------------------------------------------------
# witnesses and the dimension-1 family


def witness_search(
    lpolys: Sequence[LPolynomial], ell: int
) -> Optional[int]:
    """The first table prime p != ell with P_p irreducible mod ell."""
    for lp in sorted(lpolys, key=lambda q: q.p):
        if lp.p == ell:
            continue
        if is_irreducible_mod(lp.to_int_poly(), ell):
            return lp.p
    return None


def dim1_exclusion(lpolys: Sequence[LPolynomial]) -> FrozenSet[int]:
    """Odd primes compatible with a 1-dimensional Jordan-Holder factor.

    At a good prime p != ell such a factor makes 1 or p an eigenvalue
    of Frobenius mod ell (the tame-inertia exponent at ell is 0 or 1 by
    TF-RAYNAUD), so ell | P_p(1) * P_p(p); the constraints are combined
    across the supplied table by a gcd.
    """
    if not lpolys:
        raise ValueError("no L-polynomials supplied")
    g = gcd(*(lp(1) * lp(lp.p) for lp in lpolys))
    if g == 0:
        raise ArithmeticError(
            "P_p(1) * P_p(p) = 0, which the Weil bounds forbid at good p"
        )
    return frozenset(q for q in primefactors(g) if q % 2 == 1)


# ---------------------------------------------------------------------------
# the dimension-2 family


def dim2_qpoly(lp: LPolynomial) -> IntPoly:
    """The monic cubic whose roots are alpha = lambda + p/lambda as
    lambda runs over a half-set of Frobenius eigenvalues:
    x^3 + a x^2 + (b - 3p) x + (c - 2pa)."""
    p, a, b, c = lp.p, lp.a, lp.b, lp.c
    return IntPoly([c - 2 * p * a, b - 3 * p, a, 1])


def dim2_resultants(
    qpolys: Dict[int, IntPoly], hecke_polys: Dict[int, IntPoly]
) -> Dict[int, int]:
    """r_p = Res(H_p, Q_p) for every prime with both polynomials."""
    out = {}
    for p in sorted(qpolys):
        if p in hecke_polys:
            out[p] = int_resultant(hecke_polys[p], qpolys[p])
    return out


def dim2_exclusion(rps: Dict[int, int]) -> FrozenSet[int]:
    """The odd primes ell dividing gcd(r_p : p != ell), for the
    resultants r_p of :func:`dim2_resultants`; the gcd of no r_p is 0.

    A 2-dimensional factor with determinant the cyclotomic character is
    modular (TF-SERRE), so its Frobenius trace t_p is a common root mod
    ell of H_p and Q_p, forcing ell | r_p for every good p != ell.  So
    the set is the odd support of the full gcd, plus each odd p that
    divides the gcd of the other r's.
    """
    g = gcd(*rps.values())
    if g == 0:
        raise ValueError("all Hecke/Q resultants vanish; no dim-2 constraint")
    return frozenset(
        ell for ell in set(primefactors(g)) | set(rps)
        if ell % 2 and gcd(*(r for p, r in rps.items() if p != ell)) % ell == 0
    )


# ---------------------------------------------------------------------------
# the dimension-3 family


def dim3_obstruction(lp: LPolynomial, e: int) -> int:
    """A nonzero integer N(e) divisible by every odd prime ell != p at
    which the coefficient-matching system for P_p = (T^3 - uT^2 + vT -
    p^e)(T^3 - p^(1-e)vT^2 + p^(2-e)uT - p^(3-e)) has a solution:

        p^(1-e) v + u = -a
        p^(2-e) u + p^(1-e) u v + v = b
        p^(3-e) + p^(2-e) u^2 + p^(1-e) v^2 + p^e = -c

    The first equation is monic linear in u; substituting
    u = -a - p^(1-e) v into the other two leaves two univariate
    polynomials in v whose integer resultant is N(e).  A common
    solution mod ell makes v a common root mod ell, and since the
    leading coefficient -p^(2-2e) of the first residual is a unit mod
    ell, that forces ell | N(e).
    """
    if e not in (0, 1):
        raise ValueError("determinant exponent e must be 0 or 1")
    p, a, b, c = lp.p, lp.a, lp.b, lp.c
    p1, p2, p3, pe = p ** (1 - e), p ** (2 - e), p ** (3 - e), p ** e
    u = IntPoly([-a, -p1])  # u as a polynomial in v
    v = IntPoly([0, 1])
    r12 = u.scale(p2) + u * v.scale(p1) + v - IntPoly([b])
    r13 = u * u.scale(p2) + (v * v).scale(p1) + IntPoly([p3 + pe + c])
    if r12.is_zero() or r13.is_zero():
        raise ValueError("degenerate L-polynomial: eliminant vanishes")
    n = abs(int_resultant(r12, r13))
    if n == 0:
        raise ValueError("degenerate L-polynomial: resultant vanishes")
    return n


# ---------------------------------------------------------------------------
# the ledger


@dataclass(frozen=True)
class LedgerEntry:
    ell: int
    status: str  # "excluded" | "open"
    witness: str

    def to_json_obj(self) -> dict:
        return {"ell": self.ell, "status": self.status, "witness": self.witness}


@dataclass(frozen=True)
class ExclusionLedger:
    entries: Tuple[LedgerEntry, ...]
    families: Tuple[dict, ...]
    finite_sets: dict
    details: dict
    complete: bool

    @property
    def open_primes(self) -> Tuple[int, ...]:
        return tuple(e.ell for e in self.entries if e.status != "excluded")

    def to_json_obj(self) -> dict:
        return {
            "entries": [e.to_json_obj() for e in self.entries],
            "families": list(self.families),
            "finite_sets": {
                k: sorted(v) if v is not None else None
                for k, v in self.finite_sets.items()
            },
            "details": self.details,
            "complete": self.complete,
            # complete already requires every entry to be excluded
            "all_excluded": self.complete,
        }


def irreducibility_certify(
    lpolys: Sequence[LPolynomial],
    hecke_polys: Optional[Dict[int, IntPoly]] = None,
    *,
    bad_primes: Tuple[int, ...],
) -> ExclusionLedger:
    """Assemble the exclusion ledger for every odd prime ell.

    Each case family is excluded generically outside a finite computed
    prime set; every prime in any finite set (plus the base set, where
    the generic hypotheses of good reduction and trivial nebentypus are
    unavailable) is then finished by a direct irreducibility witness.
    ``bad_primes`` are the curve's bad primes; their product is the
    level of ``hecke_polys``.
    """
    if len(lpolys) < 2:
        raise ValueError("need an L-polynomial table")
    by_p = {lp.p: lp for lp in lpolys}
    level = prod(bad_primes)
    # odd primes where the trivial-nebentypus reduction could fail:
    # divisors of the order of (Z/level)^*
    escape = frozenset(
        q
        for q in primefactors(prod(b - 1 for b in bad_primes))
        if q % 2 == 1
    )
    base_set = frozenset(bad_primes) | escape

    # dimension 1: the table's smallest prime gives the published set
    anchor = by_p[min(by_p)]
    dim1_set = dim1_exclusion([anchor])
    poly = anchor.to_int_poly()

    # dimension 2
    dim2_ells: Optional[FrozenSet[int]] = None
    rps: Dict[int, int] = {}
    if hecke_polys:
        qpolys = {
            p: dim2_qpoly(lp)
            for p, lp in by_p.items()
            if p not in bad_primes and level % p != 0
        }
        rps = dim2_resultants(qpolys, hecke_polys)
        if rps:
            dim2_ells = dim2_exclusion(rps)
    dim2_set = (dim2_ells | escape) if dim2_ells is not None else None

    # dimension 3, anchored at the same smallest table prime
    n0 = dim3_obstruction(anchor, 0)
    n1 = dim3_obstruction(anchor, 1)
    dim3_set = frozenset(
        q
        for q in {3, 5, 7} | set(primefactors(n0 * n1))
        if q % 2 == 1
    )

    finite_sets = {
        "base": base_set,
        "dim1": dim1_set,
        "dim2": dim2_set,
        "dim3": dim3_set,
    }
    witness_required = set(base_set) | set(dim1_set) | set(dim3_set)
    if dim2_set is not None:
        witness_required |= set(dim2_set)

    entries = []
    for ell in sorted(witness_required):
        p = witness_search(lpolys, ell)
        if p is None:
            entries.append(
                LedgerEntry(
                    ell=ell,
                    status="open",
                    witness="no table prime has P_p irreducible mod %d" % ell,
                )
            )
        else:
            entries.append(
                LedgerEntry(
                    ell=ell,
                    status="excluded",
                    witness="P_%d irreducible mod %d" % (p, ell),
                )
            )

    families = (
        {
            "family": "dim1",
            "description": (
                "a 1-dimensional factor forces ell | P_%d(1) * P_%d(%d)"
                % (anchor.p, anchor.p, anchor.p)
            ),
            "finite_set": sorted(dim1_set),
            "fact_refs": ["TF-RAYNAUD"],
            "status": "excluded outside finite set",
        },
        {
            "family": "dim2",
            "description": (
                "a 2-dimensional factor with cyclotomic determinant is "
                "modular of weight 2 and level %d with trivial nebentypus "
                "(outside the escape set %s); its trace is a common root "
                "of H_p and Q_p mod ell" % (level, sorted(escape))
            ),
            "finite_set": sorted(dim2_set) if dim2_set is not None else None,
            "fact_refs": ["TF-SERRE"],
            "status": (
                "excluded outside finite set"
                if dim2_set is not None
                else "open (no Hecke data)"
            ),
        },
        {
            "family": "dim3",
            "description": (
                "paired 3-dimensional factors force the (u, v) "
                "coefficient system; elimination gives obstructions "
                "N(0)=%d, N(1)=%d" % (n0, n1)
            ),
            "finite_set": sorted(dim3_set),
            "fact_refs": ["TF-RAYNAUD", "TF-LEM52"],
            "status": "excluded outside finite set",
        },
    )

    details = {
        "level": level,
        "dim1_products": {
            str(anchor.p): [int(poly(1)), int(poly(anchor.p))]
        },
        "dim2_resultants": {str(p): rps[p] for p in sorted(rps)},
        "dim2_gcd": gcd(*rps.values()) if rps else None,
        "dim3_obstructions": {"0": n0, "1": n1},
        "nebentypus_escape": sorted(escape),
    }

    complete = dim2_set is not None and all(
        e.status == "excluded" for e in entries
    )
    return ExclusionLedger(
        entries=tuple(entries),
        families=families,
        finite_sets=finite_sets,
        details=details,
        complete=complete,
    )
