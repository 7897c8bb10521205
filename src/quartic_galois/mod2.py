"""Mod-2 surjectivity from element orders of Frobenius images.

For an odd good prime p, the image of Frobenius in GSp_6(F_2) =
Sp_6(F_2) satisfies its own characteristic polynomial f_p = P_p mod 2.
When f_p is separable the order n_p of the Frobenius image equals the
multiplicative order of x in F_2[x]/(f_p).  Exhibiting elements of
orders 7, 9 and 15 pins the image down to all of Sp_6(F_2) via the
trusted fact TF-SP6F2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Sequence, Tuple

from .curve import LPolynomial
from .polys import factor_fq, multiplicative_order

_REQUIRED_ORDERS = frozenset({7, 9, 15})
_FACT_REFS = ("TF-SP6F2",)


@dataclass(frozen=True)
class Mod2Entry:
    p: int
    # factors of P_p mod 2 as coefficient tuples (low degree first),
    # with multiplicity 1 each since only separable f_p are recorded
    factorization: Tuple[Tuple[int, ...], ...]
    n_p: int


@dataclass(frozen=True)
class Mod2Evidence:
    entries: Tuple[Mod2Entry, ...]
    orders_attained: FrozenSet[int]

    def to_json_obj(self) -> dict:
        return {
            "entries": [
                {
                    "p": e.p,
                    "factorization": [list(f) for f in e.factorization],
                    "n_p": e.n_p,
                }
                for e in self.entries
            ],
            "orders_attained": sorted(self.orders_attained),
        }


def mod2_orders(lpolys: Sequence[LPolynomial]) -> Mod2Evidence:
    """Element-order evidence from the given L-polynomials.

    Primes p = 2 are filtered out (ell = p carries no mod-2 Frobenius
    information); primes whose f_p is inseparable over F_2 are skipped,
    since the order of the Frobenius image is then not determined by
    f_p alone.
    """
    if not lpolys:
        raise ValueError("no L-polynomials supplied")
    entries = []
    for lp in sorted(lpolys, key=lambda q: q.p):
        if lp.p == 2:
            continue
        f = lp.to_int_poly().reduce_mod(2)
        if not f.is_squarefree():
            continue
        factors = tuple(g.coeff_key() for g, _mult in factor_fq(f))
        entries.append(
            Mod2Entry(p=lp.p, factorization=factors, n_p=multiplicative_order(f))
        )
    return Mod2Evidence(
        entries=tuple(entries),
        orders_attained=frozenset(e.n_p for e in entries),
    )


def mod2_verdict(ev: Mod2Evidence) -> dict:
    """"surjective" iff orders 7, 9 and 15 are all attained.

    The group-theoretic step (no proper subgroup of Sp_6(F_2) contains
    elements of all three orders) is the trusted fact TF-SP6F2; its
    registry note, which says why order 9 is needed, is surfaced here
    verbatim.
    """
    from .facts import get_fact

    surjective = _REQUIRED_ORDERS <= ev.orders_attained
    return {
        "verdict": "surjective" if surjective else "inconclusive",
        "orders_attained": sorted(ev.orders_attained),
        "orders_required": sorted(_REQUIRED_ORDERS),
        "trusted_fact_refs": list(_FACT_REFS),
        "notes": list(get_fact("TF-SP6F2").notes),
    }
