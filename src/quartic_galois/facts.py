"""The trusted-fact registry.

Every certificate step that leans on a classical theorem instead of a
recomputation names a fact from this closed registry.  Facts carry a
citation into the standard literature; the computable hypotheses of each
fact are verified elsewhere in the package, only the conclusion is
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class TrustedFact:
    id: str
    statement: str
    citation: str
    notes: Tuple[str, ...] = ()


_FACTS = [
    TrustedFact(
        id="TF-PICLEF",
        statement=(
            "Picard-Lefschetz: for a family of curves over a discrete "
            "valuation ring, regular total space, whose special fiber has "
            "only ordinary nodes, the inertia group acts on H^1 of the "
            "generic fiber through symplectic transvections in the "
            "vanishing cycles, one per node; with a single node the image "
            "of tame inertia mod ell is generated by a transvection, and "
            "in general it is cyclic of order ell for every ell different "
            "from the residue characteristic."
        ),
        citation=(
            "P. Deligne, N. Katz, Groupes de monodromie en geometrie "
            "algebrique (SGA 7 II), Exp. XV, Lecture Notes in Math. 340, "
            "Springer, 1973."
        ),
    ),
    TrustedFact(
        id="TF-SP6F2",
        statement=(
            "A subgroup of Sp_6(F_2) containing elements of orders 7, 9 "
            "and 15 is the whole of Sp_6(F_2)."
        ),
        citation=(
            "J. H. Conway, R. T. Curtis, S. P. Norton, R. A. Parker, "
            "R. A. Wilson, Atlas of Finite Groups, Clarendon Press, 1985, "
            "p. 46 (S6(2), maximal subgroups and element orders)."
        ),
        notes=(
            "Order 9 is needed: of the eight maximal subgroups of S6(2) "
            "in the Atlas, only S_8 has order divisible by 315 = 7 * 9 * 5, "
            "and S_8 has elements of orders 7 and 15 (cycle types (7) and "
            "(3,5)) but none of order 9, which would need a 9-cycle.",
        ),
    ),
    TrustedFact(
        id="TF-ZS",
        statement=(
            "Classification of irreducible linear groups generated by "
            "transvections over a prime field of odd characteristic: such "
            "a group preserving a symplectic form and acting primitively "
            "contains the full symplectic group."
        ),
        citation=(
            "A. E. Zalesskii, V. N. Serezhkin, Linear groups generated by "
            "transvections, Izv. Akad. Nauk SSSR Ser. Mat. 40 (1976), "
            "26-49; see also W. M. Kantor, Subgroups of classical groups "
            "generated by long root elements, Trans. Amer. Math. Soc. 248 "
            "(1979), 347-379."
        ),
    ),
    TrustedFact(
        id="TF-PROP22",
        statement=(
            "A subgroup of GSp_2g(F_ell), ell odd, that contains a "
            "transvection and acts irreducibly and primitively on the "
            "underlying space contains Sp_2g(F_ell)."
        ),
        citation=(
            "Consequence of the transvection-group classification "
            "[TF-ZS]; cf. C. Hall, An open-image theorem for a general "
            "class of abelian varieties, Bull. Lond. Math. Soc. 43 "
            "(2011), 703-711, Lemma 6 and its proof."
        ),
    ),
    TrustedFact(
        id="TF-HALL",
        statement=(
            "If an abelian variety over a number field has, at some place "
            "of its base field, semistable reduction with toric dimension "
            "one, then for every odd ell not below that place the mod-ell "
            "image contains a transvection."
        ),
        citation=(
            "C. Hall, An open-image theorem for a general class of "
            "abelian varieties, Bull. Lond. Math. Soc. 43 (2011), "
            "703-711."
        ),
    ),
    TrustedFact(
        id="TF-PROP21",
        statement=(
            "A closed subgroup of GSp_2g(Z-hat) that surjects onto the "
            "similitude character and whose reduction contains "
            "Sp_2g(F_ell) for every prime ell is all of GSp_2g(Z-hat)."
        ),
        citation=(
            "J.-P. Serre, Lettre a Marie-France Vigneras du 10/2/1986, "
            "Oeuvres IV, no. 137, Springer, 2000; the key closure "
            "property of Sp_2g over Z_ell is Sp_2g(Z/ell) lifting, "
            "cf. Weisfeiler's strong-approximation arguments."
        ),
    ),
    TrustedFact(
        id="TF-SERRE",
        statement=(
            "Serre's modularity conjecture (theorem of Khare and "
            "Wintenberger): an odd, irreducible, two-dimensional mod-ell "
            "representation of Gal(Q-bar/Q) arises from a newform of the "
            "predicted weight and level; in the situation certified here "
            "the predicted type is weight 2, level dividing the product of "
            "the bad primes, trivial nebentypus."
        ),
        citation=(
            "C. Khare, J.-P. Wintenberger, Serre's modularity conjecture "
            "(I, II), Invent. Math. 178 (2009), 485-504 and 505-586; "
            "J.-P. Serre, Sur les representations modulaires de degre 2 "
            "de Gal(Q-bar/Q), Duke Math. J. 54 (1987), 179-230."
        ),
    ),
    TrustedFact(
        id="TF-RAYNAUD",
        statement=(
            "Raynaud's bound on tame inertia weights: for an abelian "
            "variety with good reduction at ell (ramification index "
            "e = 1), the characters of the inertia action on an "
            "ell-torsion Jordan-Holder factor are products of fundamental "
            "characters with exponents 0 or 1."
        ),
        citation=(
            "M. Raynaud, Schemas en groupes de type (p, ..., p), Bull. "
            "Soc. Math. France 102 (1974), 241-280."
        ),
    ),
    TrustedFact(
        id="TF-LEM52",
        statement=(
            "Tame inertia acts on an irreducible ell-torsion module of "
            "dimension d through a niveau-d fundamental character; the "
            "restriction to inertia of an irreducible subquotient of "
            "dimension d is irreducible, and its determinant on inertia "
            "is the e-th power of the mod-ell cyclotomic character with "
            "0 <= e <= d."
        ),
        citation=(
            "J.-P. Serre, Proprietes galoisiennes des points d'ordre "
            "fini des courbes elliptiques, Invent. Math. 15 (1972), "
            "259-331, Sections 1.7-1.13 (fundamental characters)."
        ),
    ),
    TrustedFact(
        id="TF-LEM73",
        statement=(
            "A character of Gal(Q-bar/Q) unramified at every prime is "
            "trivial, because Q has no nontrivial everywhere-unramified "
            "abelian extension."
        ),
        citation=(
            "H. Minkowski, Theoreme on discriminant bounds (1891); see "
            "J. Neukirch, Algebraic Number Theory, Springer, 1999, "
            "Theorem III.2.18."
        ),
    ),
]

REGISTRY: Dict[str, TrustedFact] = {f.id: f for f in _FACTS}

REGISTRY_VERSION = "2"


def get_fact(fact_id: str) -> TrustedFact:
    try:
        return REGISTRY[fact_id]
    except KeyError:
        raise KeyError("unknown trusted fact id %r" % fact_id) from None


def all_facts() -> Tuple[TrustedFact, ...]:
    return tuple(_FACTS)


def render_registry() -> str:
    lines = ["Trusted-fact registry, version %s" % REGISTRY_VERSION, ""]
    for f in _FACTS:
        lines.append("[%s]" % f.id)
        lines.append("  statement: %s" % f.statement)
        lines.append("  citation:  %s" % f.citation)
        for note in f.notes:
            lines.append("  note:      %s" % note)
        lines.append("")
    return "\n".join(lines)
