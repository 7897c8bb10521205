"""Primitivity witnesses.

If the mod-ell representation were induced from (equivalently, if
J[ell] decomposed into blocks permuted by) a proper subgroup, the trace
of Frobenius would vanish mod ell at any prime p whose characteristic
polynomial P_p is irreducible mod ell while the permutation action
moves every block.  Exhibiting a single prime p with P_p irreducible
mod ell and trace a_p nonzero mod ell rules this out; the surrounding
reasoning (block sizes r in {2,3,6}, the everywhere-unramified
character argument, and the tame-inertia input) enters the certificate
as trusted facts TF-LEM52 and TF-LEM73.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from .curve import LPolynomial
from .irreducibility import witness_search

FACT_REFS = ("TF-LEM52", "TF-LEM73")


@dataclass(frozen=True)
class PrimitivityWitness:
    ell: int
    p: int
    checks: dict

    def to_json_obj(self) -> dict:
        return {"ell": self.ell, "p": self.p, "checks": dict(self.checks)}


def primitivity_witnesses(
    lpolys: Sequence[LPolynomial], ell_set: Iterable[int]
) -> Dict[int, Optional[PrimitivityWitness]]:
    """For each ell, the first table prime p != ell with P_p irreducible
    mod ell and trace of Frobenius a_p = -a nonzero mod ell: the
    irreducibility witness search over the table primes with ell | a_p
    removed.

    Gaps are recorded as ``None`` rather than raised; the pipeline
    decides whether a gap is fatal.
    """
    out: Dict[int, Optional[PrimitivityWitness]] = {}
    for ell in sorted(set(ell_set)):
        if ell % 2 == 0:
            raise ValueError("primitivity witnesses apply to odd primes only")
        p = witness_search([lp for lp in lpolys if lp.a % ell], ell)
        out[ell] = None if p is None else PrimitivityWitness(
            ell=ell,
            p=p,
            checks={"irreducible_mod_ell": True, "trace_nonzero_mod_ell": True},
        )
    return out
