"""Irreducibility of J[ell] for every odd prime ell.

A proper decomposition of the 6-dimensional ell-torsion module forces a
Jordan-Holder factor of dimension 1, 2 or 3, and the determinant
bookkeeping (similitude character, tame-inertia exponents in {0,1} at
ell) cuts the possible (dimension, determinant-exponent) profiles down
to a short list enumerated by :func:`enumerate_case_profiles`.  Each
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
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

import sympy

from .curve import LPolynomial
from .polys import IntPoly, int_resultant, is_irreducible_mod


# ---------------------------------------------------------------------------
# the case split


@dataclass(frozen=True)
class CaseProfile:
    """A multiset of (dimension, determinant-exponent) pairs.

    ``dims`` is a partition of 6 into at least two parts; ``exps[i]`` is
    the exponent e_i of the cyclotomic character in the determinant of
    the i-th factor, constrained by 0 <= e_i <= d_i, sum e_i = 3, and
    the multiset identity {e_i} = {d_i - e_i} coming from the Weil
    pairing.
    """

    dims: Tuple[int, ...]
    exps: Tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) < 2 or sum(self.dims) != 6:
            raise ValueError("dims must be a partition of 6 with >= 2 parts")
        if len(self.exps) != len(self.dims):
            raise ValueError("one exponent per dimension required")
        if any(not 0 <= e <= d for d, e in zip(self.dims, self.exps)):
            raise ValueError("exponents must satisfy 0 <= e_i <= d_i")
        if sum(self.exps) != 3:
            raise ValueError("exponents must sum to 3")
        if sorted(self.exps) != sorted(
            d - e for d, e in zip(self.dims, self.exps)
        ):
            raise ValueError("multiset {e_i} must equal {d_i - e_i}")

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(zip(self.dims, self.exps)))

    @property
    def family(self) -> str:
        """Which exclusion family handles this profile."""
        if 1 in self.dims:
            return "dim1"
        if min(self.dims) == 3:
            return "dim3"
        return "dim2"


def _partitions(n: int, max_part: int) -> Iterable[Tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(1, min(n, max_part) + 1):
        for rest in _partitions(n - first, first):
            yield rest + (first,)


def enumerate_case_profiles() -> Tuple[CaseProfile, ...]:
    """All valid profiles, canonicalized.

    Profiles related by the global swap e_i -> d_i - e_i describe the
    same decomposition with the roles of paired factors exchanged; each
    such class is represented once, by the lexicographically smaller
    labeling (so a (3,3) profile always shows an exponent <= 1).
    """
    seen = {}
    for dims in _partitions(6, 6):
        if len(dims) < 2:
            continue

        def search(i, left, acc):
            if i == len(dims):
                if left == 0:
                    yield tuple(acc)
                return
            for e in range(0, min(dims[i], left) + 1):
                yield from search(i + 1, left - e, acc + [e])

        for exps in search(0, 3, []):
            if sorted(exps) != sorted(d - e for d, e in zip(dims, exps)):
                continue
            pairs = tuple(sorted(zip(dims, exps)))
            dual = tuple(sorted((d, d - e) for d, e in zip(dims, exps)))
            key = min(pairs, dual)
            if key not in seen:
                d_sorted, e_sorted = zip(*key)
                seen[key] = CaseProfile(dims=d_sorted, exps=e_sorted)
    return tuple(sorted(seen.values(), key=lambda c: c.pairs))


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
    return frozenset(q for q in sympy.primefactors(g) if q % 2 == 1)


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
        ell for ell in set(sympy.primefactors(g)) | set(rps)
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
    def all_excluded(self) -> bool:
        return self.complete and all(
            e.status == "excluded" for e in self.entries
        )

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
            "all_excluded": self.all_excluded,
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
        for q in sympy.primefactors(prod(b - 1 for b in bad_primes))
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
        usable = {p: h for p, h in hecke_polys.items() if p in qpolys}
        if usable:
            rps = dim2_resultants(qpolys, usable)
            dim2_ells = dim2_exclusion(rps)
    dim2_set = (dim2_ells | escape) if dim2_ells is not None else None

    # dimension 3, anchored at the same smallest table prime
    n0 = dim3_obstruction(anchor, 0)
    n1 = dim3_obstruction(anchor, 1)
    dim3_set = frozenset(
        q
        for q in {3, 5, 7} | set(sympy.primefactors(n0 * n1))
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
