"""End-to-end certification pipeline.

Assembles, in order: reduction analysis at the bad primes, the
L-polynomial table, the mod-2 verdict, transvection availability for
every odd ell, the irreducibility ledger, the primitivity ledger, and
the final group-theoretic assembly.  The output is a deterministic
certificate whose verdict is "maximal adelic image" exactly when every
obligation is proved or rests on a registry fact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import prod
from typing import Dict, List, Optional, Tuple

import sympy

from .counting import l_polynomial
from .curve import TernaryQuarticForm, find_bad_prime_candidates, singular_points
from .facts import REGISTRY_VERSION, all_facts, get_fact
from .hecke_io import load_hecke_charpolys
from .irreducibility import irreducibility_certify
from .mod2 import mod2_orders, mod2_verdict
from .modsym import hecke_charpolys_multimodular
from .primitivity import FACT_REFS as PRIMITIVITY_FACTS
from .primitivity import primitivity_witnesses
from .reduction import inertia_certificate

DEFAULT_FROBENIUS_PRIMES = (2, 3, 5, 17, 19, 23, 41, 43, 73)
_BUNDLED_HECKE = "hecke_6391.json"


class PipelineFailure(Exception):
    """An obligation failed; carries the explanatory message."""


@dataclass(frozen=True)
class Certificate:
    curve: dict
    obligations: Tuple[dict, ...]
    final_verdict: str
    registry_version: str = REGISTRY_VERSION

    def to_json_obj(self) -> dict:
        return {
            "curve": self.curve,
            "obligations": list(self.obligations),
            "final_verdict": self.final_verdict,
            "registry_version": self.registry_version,
        }


def _default_config(config: Optional[dict]) -> dict:
    cfg = dict(config or {})
    cfg.setdefault("curve_path", None)
    cfg.setdefault("frobenius_primes", list(DEFAULT_FROBENIUS_PRIMES))
    hecke = dict(cfg.get("hecke") or {})
    hecke.setdefault("mode", "file")
    hecke.setdefault("path", None)
    hecke.setdefault("primes", [2, 5])
    cfg["hecke"] = hecke
    cfg.setdefault("extended_checks", False)
    cfg.setdefault("workers", 1)
    return cfg


def _load_curve(cfg: dict) -> TernaryQuarticForm:
    if cfg["curve_path"] is None:
        return TernaryQuarticForm.bundled_curve()
    return TernaryQuarticForm.load(cfg["curve_path"])


def _load_hecke(cfg: dict, level: int):
    """Returns (dict p -> IntPoly or None, description string)."""
    mode = cfg["hecke"]["mode"]
    if mode == "skip":
        return None, "skipped by configuration"
    if mode == "compute":
        cps = hecke_charpolys_multimodular(level, cfg["hecke"]["primes"])
        return (
            {p: cp.to_int_poly() for p, cp in cps.items()},
            "computed multimodularly at level %d" % level,
        )
    if mode == "file":
        path = cfg["hecke"]["path"]
        if path is None:
            ref = resources.files("quartic_galois").joinpath(
                "data", _BUNDLED_HECKE
            )
            if not ref.is_file():
                return None, "no bundled Hecke data available"
            with resources.as_file(ref) as real:
                cps = load_hecke_charpolys(real)
            src = "bundled " + _BUNDLED_HECKE
        else:
            cps = load_hecke_charpolys(path)
            src = "file %s" % path
        bad_level = {cp.N for cp in cps.values()} - {level}
        if bad_level:
            raise PipelineFailure(
                "Hecke data has level %s, expected %d"
                % (sorted(bad_level), level)
            )
        return {p: cp.to_int_poly() for p, cp in cps.items()}, src
    raise PipelineFailure("unknown Hecke mode %r" % mode)


def run_pipeline(config: Optional[dict] = None) -> Certificate:
    cfg = _default_config(config)
    curve = _load_curve(cfg)
    obligations: List[dict] = []

    def fail(name: str, message: str) -> Certificate:
        obligations.append(
            {"name": name, "status": "failed", "evidence": {"error": message},
             "fact_refs": []}
        )
        return Certificate(
            curve=curve.to_json_obj(),
            obligations=tuple(obligations),
            final_verdict="not certified (failing step: %s)" % name,
        )

    # (1) reduction analysis -------------------------------------------------
    try:
        b = find_bad_prime_candidates(curve)
    except ValueError as exc:
        return fail("reduction-analysis", str(exc))
    bad_primes = []
    reports = {}
    for p in sympy.primefactors(b):
        rep = singular_points(curve, p)
        if not rep.complete:
            return fail(
                "reduction-analysis",
                "singular-point search incomplete at p=%d; the curve is "
                "outside the certifier's hypotheses" % p,
            )
        if rep.points:
            bad_primes.append(p)
            reports[p] = rep
    certs = {}
    for p in bad_primes:
        try:
            certs[p] = inertia_certificate(reports[p])
        except ValueError as exc:
            return fail("reduction-analysis", str(exc))
    obligations.append(
        {
            "name": "reduction-analysis",
            "status": "proved",
            "evidence": {
                "bad_primes": list(bad_primes),
                "certificates": [
                    certs[p].to_json_obj() for p in bad_primes
                ],
                "singular_points": {
                    str(p): [
                        {
                            "coords": [str(c) for c in pt.coords],
                            "field_degree": pt.field_degree,
                            "ordinary_node": pt.ordinary_node,
                            "total_space_regular": pt.total_space_regular,
                        }
                        for pt in reports[p].points
                    ]
                    for p in bad_primes
                },
            },
            "fact_refs": ["TF-PICLEF"],
        }
    )

    # (2) L-polynomial table -------------------------------------------------
    lpolys = []
    for p in sorted(cfg["frobenius_primes"]):
        if p in bad_primes:
            return fail(
                "l-polynomial-table",
                "configured Frobenius prime %d is a bad prime" % p,
            )
        try:
            lpolys.append(l_polynomial(curve, p, workers=cfg["workers"]))
        except (ValueError, ArithmeticError) as exc:
            return fail(
                "l-polynomial-table",
                "L-polynomial at p=%d failed: %s" % (p, exc),
            )
    obligations.append(
        {
            "name": "l-polynomial-table",
            "status": "proved",
            "evidence": {
                "table": [
                    {
                        "p": lp.p,
                        "a": lp.a,
                        "b": lp.b,
                        "c": lp.c,
                        "polynomial": lp.to_int_poly().pretty("T"),
                    }
                    for lp in lpolys
                ]
            },
            "fact_refs": [],
        }
    )

    # (3) mod-2 verdict ------------------------------------------------------
    ev = mod2_orders(lpolys)
    verdict2 = mod2_verdict(ev)
    if verdict2["verdict"] != "surjective":
        return fail(
            "mod-2-maximality",
            "orders attained %s do not contain {7, 15}"
            % verdict2["orders_attained"],
        )
    obligations.append(
        {
            "name": "mod-2-maximality",
            "status": "proved",
            "evidence": {"orders": verdict2, "entries": ev.to_json_obj()},
            "fact_refs": verdict2["trusted_fact_refs"],
        }
    )

    # (4) transvection availability -----------------------------------------
    trans_primes = sorted(p for p, c in certs.items() if c.transvection)
    if len(trans_primes) < 2:
        return fail(
            "transvection-availability",
            "need transvections at two distinct bad primes so every odd "
            "ell has one with p != ell; found %s" % trans_primes,
        )
    selection = {
        "rule": "p=11 when ell=7, otherwise p=7",
        "examples": {
            str(ell): (11 if ell == 7 else 7) for ell in (3, 5, 7, 11, 83)
        },
    }
    if not {7, 11} <= set(trans_primes):
        selection = {
            "rule": "first transvection prime different from ell",
            "transvection_primes": trans_primes,
        }
    obligations.append(
        {
            "name": "transvection-availability",
            "status": "proved",
            "evidence": {
                "transvection_primes": trans_primes,
                "selection": selection,
            },
            "fact_refs": ["TF-PICLEF", "TF-HALL"],
        }
    )

    # (5) irreducibility ledger ----------------------------------------------
    try:
        hecke_polys, hecke_src = _load_hecke(cfg, prod(bad_primes))
        ledger = irreducibility_certify(
            lpolys, hecke_polys, bad_primes=tuple(bad_primes)
        )
    except (PipelineFailure, ValueError) as exc:
        return fail("irreducibility", str(exc))
    ledger_obj = ledger.to_json_obj()
    ledger_obj["hecke_source"] = hecke_src
    if not ledger.complete or ledger.open_primes:
        if hecke_polys is None:
            return fail(
                "irreducibility",
                "dim-2 exclusion open: no Hecke data (%s); rerun with "
                "Hecke mode 'file' or 'compute'" % hecke_src,
            )
        return fail(
            "irreducibility",
            "no witness found for ell in %s" % list(ledger.open_primes),
        )
    obligations.append(
        {
            "name": "irreducibility",
            "status": "proved",
            "evidence": ledger_obj,
            "fact_refs": ["TF-RAYNAUD", "TF-SERRE", "TF-LEM52"],
        }
    )

    # (6) primitivity ledger -------------------------------------------------
    prim_set = sorted(set(bad_primes) | {3, 5})
    witnesses = primitivity_witnesses(lpolys, prim_set)
    gaps = [ell for ell, w in witnesses.items() if w is None]
    if gaps:
        return fail(
            "primitivity",
            "no primitivity witness for ell in %s" % gaps,
        )
    obligations.append(
        {
            "name": "primitivity",
            "status": "proved",
            "evidence": {
                "finite_set": prim_set,
                "witnesses": {
                    str(ell): w.to_json_obj() for ell, w in witnesses.items()
                },
            },
            "fact_refs": list(PRIMITIVITY_FACTS),
        }
    )

    # (optional) extended dim-2 gcd check ------------------------------------
    if cfg["extended_checks"]:
        rps = ledger.details["dim2_resultants"]
        g = ledger.details["dim2_gcd"]
        odd = g
        while odd % 2 == 0:
            odd //= 2
        support = sympy.primefactors(odd)
        if support != [3]:
            return fail(
                "extended-dim2-gcd",
                "odd support of gcd of Hecke resultants is %s, expected [3]"
                % support,
            )
        obligations.append(
            {
                "name": "extended-dim2-gcd",
                "status": "proved",
                "evidence": {
                    "resultants": {str(p): str(r) for p, r in rps.items()},
                    "gcd": str(g),
                    "odd_part": str(odd),
                    "odd_part_is_3_pow": sympy.multiplicity(3, odd),
                },
                "fact_refs": [],
            }
        )

    # (7) final assembly -----------------------------------------------------
    obligations.append(
        {
            "name": "assembly",
            "status": "trusted",
            "evidence": {
                "argument": [
                    "for each odd prime ell: the mod-ell image contains a "
                    "transvection (obligation 4), acts irreducibly "
                    "(obligation 5) and primitively (obligation 6), hence "
                    "contains Sp_6(F_ell) [TF-PROP22, TF-ZS]",
                    "for ell = 2 the image is all of GSp_6(F_2) = "
                    "Sp_6(F_2) (obligation 3)",
                    "the similitude character is the cyclotomic character "
                    "(Weil pairing), so the image surjects onto Z-hat^*",
                    "a closed subgroup of GSp_6(Z-hat) with these "
                    "reductions is everything [TF-PROP21]",
                ]
            },
            "fact_refs": ["TF-PROP22", "TF-ZS", "TF-PROP21"],
        }
    )

    return Certificate(
        curve=curve.to_json_obj(),
        obligations=tuple(obligations),
        final_verdict="maximal adelic image",
    )


# ---------------------------------------------------------------------------
# rendering


def render_report(cert: Certificate, format: str = "json") -> str:
    if format == "json":
        return json.dumps(cert.to_json_obj(), sort_keys=True, indent=2) + "\n"
    if format != "text":
        raise ValueError("unknown report format %r" % format)
    lines = []
    lines.append("Galois-image certificate")
    lines.append("verdict: %s" % cert.final_verdict)
    lines.append("trusted-fact registry version: %s" % cert.registry_version)
    lines.append("")
    lines.append("curve monomials:")
    for m in cert.curve["monomials"]:
        lines.append(
            "  x^%d y^%d z^%d : %s" % (m["i"], m["j"], m["k"], m["coeff"])
        )
    for ob in cert.obligations:
        lines.append("")
        lines.append("[%s] %s" % (ob["status"], ob["name"]))
        lines.extend(
            "  " + ln
            for ln in json.dumps(
                ob["evidence"], sort_keys=True, indent=2
            ).splitlines()
        )
        if ob["fact_refs"]:
            for fid in ob["fact_refs"]:
                f = get_fact(fid)
                lines.append("  cites %s: %s" % (fid, f.citation))
    lines.append("")
    lines.append("registry facts used are listed above; full registry "
                 "has %d facts" % len(all_facts()))
    return "\n".join(lines) + "\n"
