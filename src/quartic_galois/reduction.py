"""Inertia certificates at the bad primes.

A bad fiber whose singularities are ordinary nodes with regular total
space puts the curve in the Picard-Lefschetz situation: for every prime
ell different from the residue characteristic, the image of inertia on
the ell-torsion is cyclic of order ell, and it is generated by a single
transvection exactly when the fiber has one node.  The geometric
hypotheses are verified exactly (by :mod:`quartic_galois.curve`); the
conclusion cites the trusted fact TF-PICLEF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .curve import SingularFiberReport

_FACT_REFS = ("TF-PICLEF",)

# the rule of select_transvection_prime, as quoted in certificates
TRANSVECTION_RULE = "p=11 when ell=7, otherwise p=7"


@dataclass(frozen=True)
class InertiaCertificate:
    p: int
    node_count: int
    inertia_order_statement: str
    transvection: bool
    trusted_fact_refs: Tuple[str, ...]

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "node_count": self.node_count,
            "inertia_order_statement": self.inertia_order_statement,
            "transvection": self.transvection,
            "trusted_fact_refs": list(self.trusted_fact_refs),
        }


def inertia_certificate(report: SingularFiberReport) -> InertiaCertificate:
    """Certify the inertia image at a bad prime from its fiber geometry.

    Requires a complete singular-point list in which every point is an
    ordinary node with regular total space; anything else is outside the
    Picard-Lefschetz hypotheses and raises ``ValueError``.
    """
    if not report.complete:
        raise ValueError(
            "singular-point search at p=%d is incomplete; cannot certify"
            % report.p
        )
    if not report.points:
        raise ValueError(
            "fiber at p=%d is smooth; no inertia certificate applies"
            % report.p
        )
    for pt in report.points:
        if pt.ordinary_node is not True or pt.total_space_regular is not True:
            raise ValueError(
                "singular point %r at p=%d is not a verified ordinary node "
                "with regular total space" % (pt.coords, report.p)
            )
    n = len(report.points)
    return InertiaCertificate(
        p=report.p,
        node_count=n,
        inertia_order_statement=(
            "cyclic of order ell for every prime ell != %d" % report.p
        ),
        transvection=(n == 1),
        trusted_fact_refs=_FACT_REFS,
    )


def select_transvection_prime(
    certs: Dict[int, InertiaCertificate], ell: int
) -> int:
    """The bad prime whose inertia supplies a transvection mod ell.

    The fixed selection rule (:data:`TRANSVECTION_RULE`) uses p=11 when
    ell=7, and p=7 otherwise (in particular p=7 when ell=11), so the
    requirement p != ell always holds on the certified curve.
    """
    p = 11 if ell == 7 else 7
    cert = certs.get(p)
    if cert is None or not cert.transvection:
        raise ValueError(
            "no transvection certificate available at p=%d (needed for "
            "ell=%d)" % (p, ell)
        )
    if p == ell:
        raise ValueError("transvection prime %d collides with ell" % p)
    return p
