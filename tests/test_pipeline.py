import json

import pytest

from quartic_galois.pipeline import (
    Certificate,
    DEFAULT_FROBENIUS_PRIMES,
    render_report,
    run_pipeline,
)

SKIP_CONFIG = {"hecke": {"mode": "skip"}}


@pytest.fixture(scope="module")
def skip_cert():
    return run_pipeline(SKIP_CONFIG)


def test_skip_mode_degrades_gracefully(skip_cert):
    # without Hecke data the dim-2 family stays open, so irreducibility
    # fails and everything before it is still proved
    assert skip_cert.final_verdict == (
        "not certified (failing step: irreducibility)"
    )
    by_name = {ob["name"]: ob for ob in skip_cert.obligations}
    for name in (
        "reduction-analysis",
        "l-polynomial-table",
        "mod-2-maximality",
        "transvection-availability",
    ):
        assert by_name[name]["status"] == "proved", name
    assert by_name["irreducibility"]["status"] == "failed"
    # the pipeline short-circuits: nothing after the failing step
    assert [ob["name"] for ob in skip_cert.obligations][-1] == "irreducibility"


def test_skip_mode_evidence_values(skip_cert):
    by_name = {ob["name"]: ob for ob in skip_cert.obligations}
    red = by_name["reduction-analysis"]["evidence"]
    assert red["bad_primes"] == [7, 11, 83]
    table = by_name["l-polynomial-table"]["evidence"]["table"]
    assert {entry["p"] for entry in table} == set(DEFAULT_FROBENIUS_PRIMES)
    by_p = {entry["p"]: entry for entry in table}
    assert (by_p[2]["a"], by_p[2]["b"], by_p[2]["c"]) == (3, 6, 9)
    mod2 = by_name["mod-2-maximality"]["evidence"]
    assert mod2["orders"]["verdict"] == "surjective"


def test_report_json_deterministic():
    # a small Frobenius set keeps the double run cheap
    cfg = {"frobenius_primes": [2, 3, 5], "hecke": {"mode": "skip"}}
    r1 = render_report(run_pipeline(cfg), "json")
    r2 = render_report(run_pipeline(cfg), "json")
    assert r1 == r2
    assert json.loads(r1)["final_verdict"].startswith("not certified")


def test_report_text_renders(skip_cert):
    text = render_report(skip_cert, "text")
    assert "verdict:" in text
    assert "reduction-analysis" in text
    with pytest.raises(ValueError):
        render_report(skip_cert, "yaml")


def test_fermat_quartic_fails_reduction(tmp_path):
    # x^4 + y^4 + z^4 has bad reduction only at 2, where the special
    # fiber is not semistable; the certifier must refuse, not crash
    path = tmp_path / "fermat.json"
    path.write_text(
        json.dumps(
            {
                "monomials": [
                    {"i": 4, "j": 0, "k": 0, "coeff": "1"},
                    {"i": 0, "j": 4, "k": 0, "coeff": "1"},
                    {"i": 0, "j": 0, "k": 4, "coeff": "1"},
                ]
            }
        )
    )
    cert = run_pipeline({"curve_path": str(path), "hecke": {"mode": "skip"}})
    assert cert.final_verdict.startswith("not certified")
    assert "reduction-analysis" in cert.final_verdict


def test_vanishing_hecke_resultants_fail_irreducibility(tmp_path):
    # H_p = Q_p * x^(g-3) is monic of the right degree, so the file loads,
    # but every resultant Res(H_p, Q_p) is zero
    from quartic_galois.counting import l_polynomial
    from quartic_galois.curve import TernaryQuarticForm
    from quartic_galois.irreducibility import dim2_qpoly
    from quartic_galois.modsym import genus_x0
    from quartic_galois.polys import IntPoly

    curve = TernaryQuarticForm.bundled_curve()
    shift = IntPoly([0] * (genus_x0(6391) - 3) + [1])
    operators = [
        {
            "p": p,
            "charpoly": [
                str(c)
                for c in (dim2_qpoly(l_polynomial(curve, p)) * shift).coeffs
            ],
        }
        for p in (2, 5)
    ]
    path = tmp_path / "hecke_zero.json"
    path.write_text(
        json.dumps({"level": 6391, "weight": 2, "operators": operators})
    )
    cert = run_pipeline({"hecke": {"mode": "file", "path": str(path)}})
    assert cert.final_verdict == (
        "not certified (failing step: irreducibility)"
    )
    failing = cert.obligations[-1]
    assert failing["status"] == "failed"
    assert "resultants vanish" in failing["evidence"]["error"]


def test_unknown_hecke_mode():
    from quartic_galois.pipeline import PipelineFailure, _default_config, _load_hecke

    cfg = _default_config({"hecke": {"mode": "bogus"}})
    with pytest.raises(PipelineFailure):
        _load_hecke(cfg, 6391)


def test_bundled_hecke_loads():
    from quartic_galois.pipeline import _default_config, _load_hecke

    polys, src = _load_hecke(_default_config(None), 6391)
    assert src.startswith("bundled")
    assert set(polys) == {2, 5}
    for poly in polys.values():
        assert len(poly.coeffs) == 670  # genus 669, monic
        assert poly.coeffs[-1] == 1


def test_certificate_serialization(skip_cert):
    obj = skip_cert.to_json_obj()
    rebuilt = Certificate(
        curve=obj["curve"],
        obligations=tuple(obj["obligations"]),
        final_verdict=obj["final_verdict"],
        registry_version=obj["registry_version"],
    )
    assert render_report(rebuilt, "json") == render_report(skip_cert, "json")


@pytest.mark.parametrize(
    "config, needle",
    [
        ({"frobenius_primse": [2]}, "'frobenius_primse'"),
        ({"hecke": {"mode": "skip", "pth": "h.json"}}, "'hecke.pth'"),
        ({"workers": "two"}, "'workers'"),
        ({"workers": 0}, "'workers'"),
        ({"workers": True}, "'workers'"),
        ({"frobenius_primes": ["2"]}, "'frobenius_primes'"),
        ({"frobenius_primes": 2}, "'frobenius_primes'"),
        ({"extended_checks": "yes"}, "'extended_checks'"),
        ({"hecke": "skip"}, "'hecke'"),
        ({"hecke": {"primes": [2.0]}}, "'hecke.primes'"),
        ({"curve_path": 5}, "'curve_path'"),
        ([2, 3], "config must be an object"),
    ],
)
def test_bad_config_rejected(config, needle):
    # rejected before any computation, with the offending key named
    with pytest.raises(ValueError) as exc:
        run_pipeline(config)
    assert needle in str(exc.value)


def test_config_merge_keeps_given_values_and_defaults():
    from quartic_galois.pipeline import _default_config

    cfg = _default_config({"workers": 2, "hecke": {"mode": "skip"}})
    assert cfg["workers"] == 2
    assert cfg["hecke"] == {"mode": "skip", "path": None, "primes": [2, 5]}
    assert cfg["frobenius_primes"] == list(DEFAULT_FROBENIUS_PRIMES)
    # the defaults are copied, not shared between configs
    cfg["frobenius_primes"].append(7)
    assert _default_config(None)["frobenius_primes"] == list(
        DEFAULT_FROBENIUS_PRIMES
    )


def test_empty_frobenius_primes_fail_mod2():
    cert = run_pipeline({"frobenius_primes": [], "hecke": {"mode": "skip"}})
    assert cert.final_verdict == (
        "not certified (failing step: mod-2-maximality)"
    )
    failing = cert.obligations[-1]
    assert failing["status"] == "failed"
    assert "no L-polynomials" in failing["evidence"]["error"]


def test_missing_hecke_file_fails_irreducibility(tmp_path):
    # p = 23 and p = 73 give Frobenius orders 7 and 15 mod 2, so the run
    # reaches the irreducibility step, which reads the Hecke file
    missing = tmp_path / "absent.json"
    cert = run_pipeline(
        {"frobenius_primes": [23, 73], "hecke": {"path": str(missing)}}
    )
    assert cert.final_verdict == (
        "not certified (failing step: irreducibility)"
    )
    failing = cert.obligations[-1]
    assert failing["status"] == "failed"
    assert str(missing) in failing["evidence"]["error"]
