"""End-to-end certification pipeline.

The proof is a fixed list of obligation steps, run in order:
``reduction-analysis``, ``l-polynomial-table``, ``mod-2-maximality``,
``transvection-availability``, ``irreducibility`` and ``primitivity``;
the trusted ``assembly`` obligation closes the list.  A step takes
``(cfg, curve, run)``, leaves what later steps need in ``run`` and
returns ``(evidence, fact_refs)``.  It fails by raising
:class:`PipelineFailure`, or a ValueError, ArithmeticError or OSError
from a library call; :func:`run_pipeline` then records it as failed and
stops.  The certificate is deterministic, and its verdict is "maximal
adelic image" exactly when every obligation is proved or rests on a
registry fact.
"""

from __future__ import annotations

import json
from copy import deepcopy
from dataclasses import asdict, dataclass
from importlib import resources
from math import prod
from typing import List, Optional, Tuple

from .arith import isprime, primefactors
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
        return asdict(self)


_DEFAULTS = {
    "curve_path": None,
    "frobenius_primes": list(DEFAULT_FROBENIUS_PRIMES),
    "hecke": {"mode": "file", "path": None, "primes": [2, 5]},
}
_HECKE_MODES = ("file", "compute", "skip")


# a config value must be of its default's kind: type -> (test, description)
_VALID = {
    type(None): (lambda v: v is None or isinstance(v, str), "a path or null"),
    list: (lambda v: isinstance(v, list)
           and all(type(x) is int and isprime(x) for x in v)
           and len(set(v)) == len(v), "a list of distinct primes"),
    dict: (lambda v: isinstance(v, dict), "an object"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _merge(defaults: dict, given: dict, prefix: str = "") -> dict:
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError("unknown config key %r" % (prefix + unknown[0]))
    out = {}
    for key, default in defaults.items():
        name, value = prefix + key, given.get(key, default)
        valid, what = _VALID[type(default)]
        if not valid(value):
            raise ValueError(
                "config key %r must be %s, got %r" % (name, what, value)
            )
        if isinstance(default, dict):
            value = _merge(default, value, name + ".")
        out[key] = deepcopy(value)
    return out


def _default_config(config: Optional[dict]) -> dict:
    """``config`` merged over the defaults; raises ValueError naming an
    unknown key, a wrongly typed value or an unknown Hecke mode."""
    if not isinstance(config, (dict, type(None))):
        raise ValueError("config must be an object, got %r" % (config,))
    cfg = _merge(_DEFAULTS, config or {})
    if cfg["hecke"]["mode"] not in _HECKE_MODES:
        raise ValueError(
            "config key 'hecke.mode' must be one of %s, got %r"
            % (", ".join(map(repr, _HECKE_MODES)), cfg["hecke"]["mode"])
        )
    return cfg


def _load_hecke(cfg: dict, level: int):
    """Returns (dict p -> IntPoly for exactly the configured primes, or
    None, and a description string)."""
    mode, primes = cfg["hecke"]["mode"], cfg["hecke"]["primes"]
    if mode == "skip":
        return None, "skipped by configuration"
    if mode == "compute":
        cps = hecke_charpolys_multimodular(level, primes)
        return (
            {p: cp.to_int_poly() for p, cp in cps.items()},
            "computed multimodularly at level %d" % level,
        )
    path = cfg["hecke"]["path"]
    if path is None:
        ref = resources.files("quartic_galois").joinpath("data", _BUNDLED_HECKE)
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
            "Hecke data has level %s, expected %d" % (sorted(bad_level), level)
        )
    missing = [p for p in primes if p not in cps]
    if missing:
        raise PipelineFailure(
            "Hecke data (%s) has no charpoly of T_p for configured p = %s"
            % (src, missing)
        )
    return {p: cps[p].to_int_poly() for p in primes}, src


# ---------------------------------------------------------------------------
# obligation steps


def _reduction_analysis(cfg, curve, run):
    reports = {}
    for p in primefactors(find_bad_prime_candidates(curve)):
        rep = singular_points(curve, p)
        if not rep.complete:
            raise PipelineFailure(
                "singular-point search incomplete at p=%d; the curve is "
                "outside the certifier's hypotheses" % p
            )
        if rep.points:
            reports[p] = rep
    bad_primes = list(reports)
    certs = {p: inertia_certificate(reports[p]) for p in bad_primes}
    run["bad_primes"] = bad_primes
    run["certs"] = certs
    evidence = {
        "bad_primes": bad_primes,
        "certificates": [certs[p].to_json_obj() for p in bad_primes],
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
    }
    return evidence, ["TF-PICLEF"]


def _l_polynomial_table(cfg, curve, run):
    # primes are taken in ascending order, so the smallest failing prime
    # is the one reported
    lpolys = []
    for p in sorted(cfg["frobenius_primes"]):
        if p in run["bad_primes"]:
            raise PipelineFailure(
                "configured Frobenius prime %d is a bad prime" % p
            )
        try:
            lpolys.append(l_polynomial(curve, p))
        except (ValueError, ArithmeticError) as exc:
            raise PipelineFailure(
                "L-polynomial at p=%d failed: %s" % (p, exc)
            ) from exc
    run["lpolys"] = lpolys
    return {"table": [lp.to_json_obj() for lp in lpolys]}, []


def _mod2_maximality(cfg, curve, run):
    ev = mod2_orders(run["lpolys"])
    verdict = mod2_verdict(ev)
    if verdict["verdict"] != "surjective":
        required = ", ".join(map(str, verdict["orders_required"]))
        raise PipelineFailure(
            "orders attained %s do not contain {%s}"
            % (verdict["orders_attained"], required)
        )
    evidence = {"orders": verdict, "entries": ev.to_json_obj()}
    return evidence, verdict["trusted_fact_refs"]


def _transvection_availability(cfg, curve, run):
    trans_primes = sorted(p for p, c in run["certs"].items() if c.transvection)
    if len(trans_primes) < 2:
        raise PipelineFailure(
            "need transvections at two distinct bad primes so every odd "
            "ell has one with p != ell; found %s" % trans_primes
        )
    evidence = {
        "rule": "first transvection prime different from ell",
        "transvection_primes": trans_primes,
    }
    return evidence, ["TF-PICLEF", "TF-HALL"]


def _irreducibility(cfg, curve, run):
    bad_primes = run["bad_primes"]
    hecke_polys, hecke_src = _load_hecke(cfg, prod(bad_primes))
    ledger = irreducibility_certify(
        run["lpolys"], hecke_polys, bad_primes=tuple(bad_primes)
    )
    if not ledger.complete:
        if hecke_polys is None:
            raise PipelineFailure(
                "dim-2 exclusion open: no Hecke data (%s); rerun with "
                "Hecke mode 'file' or 'compute'" % hecke_src
            )
        if ledger.finite_sets["dim2"] is None:
            raise PipelineFailure(
                "dim-2 exclusion open: Hecke data (%s) for p = %s gives no "
                "resultant with the Frobenius table p = %s"
                % (hecke_src, sorted(hecke_polys), [lp.p for lp in run["lpolys"]])
            )
        raise PipelineFailure(
            "no witness found for ell in %s" % list(ledger.open_primes)
        )
    evidence = ledger.to_json_obj()
    evidence["hecke_source"] = hecke_src
    return evidence, ["TF-RAYNAUD", "TF-SERRE", "TF-LEM52"]


def _primitivity(cfg, curve, run):
    prim_set = sorted(set(run["bad_primes"]) | {3, 5})
    witnesses = primitivity_witnesses(run["lpolys"], prim_set)
    gaps = [ell for ell, w in witnesses.items() if w is None]
    if gaps:
        raise PipelineFailure("no primitivity witness for ell in %s" % gaps)
    evidence = {
        "finite_set": prim_set,
        "witnesses": {
            str(ell): w.to_json_obj() for ell, w in witnesses.items()
        },
    }
    return evidence, list(PRIMITIVITY_FACTS)


_STEPS = (
    ("reduction-analysis", _reduction_analysis),
    ("l-polynomial-table", _l_polynomial_table),
    ("mod-2-maximality", _mod2_maximality),
    ("transvection-availability", _transvection_availability),
    ("irreducibility", _irreducibility),
    ("primitivity", _primitivity),
)

_ASSEMBLY = {
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


def run_pipeline(config: Optional[dict] = None) -> Certificate:
    """Run every obligation step in order and stop at the first failure.

    Raises ValueError or OSError only for a bad config or curve file;
    any such error inside a step becomes that step's failed obligation.
    """
    cfg = _default_config(config)
    curve = TernaryQuarticForm.load(cfg["curve_path"])
    run: dict = {}
    obligations: List[dict] = []
    verdict = "maximal adelic image"
    for name, step in _STEPS:
        try:
            evidence, fact_refs = step(cfg, curve, run)
            status = "proved"
        except (PipelineFailure, ValueError, ArithmeticError, OSError) as exc:
            evidence, fact_refs, status = {"error": str(exc)}, [], "failed"
        obligations.append(
            {"name": name, "status": status, "evidence": evidence,
             "fact_refs": fact_refs}
        )
        if status == "failed":
            verdict = "not certified (failing step: %s)" % name
            break
    else:
        obligations.append(deepcopy(_ASSEMBLY))
    return Certificate(
        curve=curve.to_json_obj(),
        obligations=tuple(obligations),
        final_verdict=verdict,
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
        for fid in ob["fact_refs"]:
            lines.append("  cites %s: %s" % (fid, get_fact(fid).citation))
    lines.append("")
    lines.append("registry facts used are listed above; full registry "
                 "has %d facts" % len(all_facts()))
    return "\n".join(lines) + "\n"
