import json

import pytest

from quartic_galois import counting
from quartic_galois.curve import TernaryQuarticForm
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


@pytest.mark.parametrize(
    "coeffs",
    [
        # z^4 - y^4 + x z^3 and z^4 - y z^3 + y^3 z + y^4 - x z^3, both
        # singular at (1:0:0) over Q: the iterated elimination's gcd was 1
        {(0, 0, 4): 1, (0, 4, 0): -1, (1, 0, 3): 1},
        {(0, 0, 4): 1, (0, 1, 3): -1, (0, 3, 1): 1, (0, 4, 0): 1, (1, 0, 3): -1},
    ],
)
def test_curve_singular_over_q_fails_reduction(tmp_path, coeffs):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(TernaryQuarticForm(coeffs).to_json_obj()))
    cert = run_pipeline({"curve_path": str(path), "hecke": {"mode": "skip"}})
    reduction = cert.obligations[0]
    assert reduction["name"] == "reduction-analysis"
    assert reduction["status"] == "failed"
    assert "singular over Q-bar" in reduction["evidence"]["error"]
    assert cert.final_verdict.startswith("not certified")


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
    # rejected with the config, before the L-polynomial table is counted
    from quartic_galois.pipeline import _default_config

    with pytest.raises(ValueError) as exc:
        _default_config({"hecke": {"mode": "bogus"}})
    assert str(exc.value) == (
        "config key 'hecke.mode' must be one of 'file', 'compute', "
        "'skip', got 'bogus'"
    )


def test_file_mode_returns_exactly_the_configured_primes():
    from quartic_galois.pipeline import _default_config, _load_hecke

    polys, _ = _load_hecke(_default_config({"hecke": {"primes": [5]}}), 6391)
    assert set(polys) == {5}
    # T_3 is not in the bundled file: the step fails and names it, where
    # T_2 and T_5 were once used in its place
    cert = run_pipeline({"hecke": {"primes": [3]}})
    assert cert.final_verdict == (
        "not certified (failing step: irreducibility)"
    )
    error = cert.obligations[-1]["evidence"]["error"]
    assert error == (
        "Hecke data (bundled hecke_6391.json) has no charpoly of T_p for "
        "configured p = [3]"
    )


def test_no_hecke_primes_leave_dim2_open():
    cert = run_pipeline({"hecke": {"primes": []}})
    assert cert.final_verdict == (
        "not certified (failing step: irreducibility)"
    )
    assert cert.obligations[-1]["evidence"]["error"] == (
        "dim-2 exclusion open: Hecke data (bundled hecke_6391.json) for "
        "p = [] gives no resultant with the Frobenius table p = [2, 3, 5, "
        "17, 19, 23, 41, 43, 73]"
    )


def test_hecke_primes_outside_the_table_leave_dim2_open():
    # p = 5, 23 and 73 give Frobenius orders 9, 7 and 15 mod 2, so the
    # run reaches irreducibility, but the table has no T_2 resultant
    cert = run_pipeline(
        {"frobenius_primes": [5, 23, 73], "hecke": {"primes": [2]}}
    )
    assert cert.final_verdict == (
        "not certified (failing step: irreducibility)"
    )
    assert cert.obligations[-1]["evidence"]["error"] == (
        "dim-2 exclusion open: Hecke data (bundled hecke_6391.json) for "
        "p = [2] gives no resultant with the Frobenius table p = [5, 23, 73]"
    )


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
        ({"frobenius_primes": [2, 2, 3]}, "'frobenius_primes'"),
        ({"frobenius_primes": [4]}, "'frobenius_primes'"),
        ({"frobenius_primes": [[2]]}, "'frobenius_primes'"),
        ({"hecke": {"primes": [2, 2]}}, "'hecke.primes'"),
        ({"workers": 2}, "unknown config key 'workers'"),
        ({"hecke": {"mode": "bogus"}}, "'hecke.mode' must be one of"),
    ],
)
def test_bad_config_rejected(config, needle):
    # rejected before any computation, with the offending key named
    with pytest.raises(ValueError) as exc:
        run_pipeline(config)
    assert needle in str(exc.value)


def test_config_merge_keeps_given_values_and_defaults():
    from quartic_galois.pipeline import _default_config

    cfg = _default_config({"curve_path": "c.json", "hecke": {"mode": "skip"}})
    assert cfg["curve_path"] == "c.json"
    assert cfg["hecke"] == {"mode": "skip", "path": None, "primes": [2, 5]}
    assert cfg["frobenius_primes"] == list(DEFAULT_FROBENIUS_PRIMES)
    # the defaults are copied, not shared between configs
    cfg["frobenius_primes"].append(7)
    assert _default_config(None)["frobenius_primes"] == list(
        DEFAULT_FROBENIUS_PRIMES
    )


def _inertia(p, transvection):
    from quartic_galois.reduction import InertiaCertificate

    return InertiaCertificate(
        p=p,
        node_count=1 if transvection else 2,
        inertia_order_statement="cyclic of order ell for every ell != %d" % p,
        transvection=transvection,
        trusted_fact_refs=("TF-PICLEF",),
    )


def test_transvection_primes_come_from_the_certificates():
    from quartic_galois.pipeline import _transvection_availability

    run = {"certs": {13: _inertia(13, True), 29: _inertia(29, True),
                     83: _inertia(83, False)}}
    evidence, fact_refs = _transvection_availability(None, None, run)
    assert evidence == {
        "rule": "first transvection prime different from ell",
        "transvection_primes": [13, 29],
    }
    assert fact_refs == ["TF-PICLEF", "TF-HALL"]


def test_one_transvection_prime_is_not_enough():
    from quartic_galois.pipeline import (
        PipelineFailure,
        _transvection_availability,
    )

    run = {"certs": {13: _inertia(13, True), 83: _inertia(83, False)}}
    with pytest.raises(PipelineFailure, match=r"found \[13\]$"):
        _transvection_availability(None, None, run)


def test_empty_frobenius_primes_fail_mod2():
    cert = run_pipeline({"frobenius_primes": [], "hecke": {"mode": "skip"}})
    assert cert.final_verdict == (
        "not certified (failing step: mod-2-maximality)"
    )
    failing = cert.obligations[-1]
    assert failing["status"] == "failed"
    assert "no L-polynomials" in failing["evidence"]["error"]


def test_table_failure_names_the_smallest_failing_prime():
    # 227^3 and 233^3 both exceed the field budget; the table fails at the
    # smaller one, whatever the configured order
    cert = run_pipeline(
        {"frobenius_primes": [2, 3, 233, 227], "hecke": {"mode": "skip"}}
    )
    assert cert.final_verdict == (
        "not certified (failing step: l-polynomial-table)"
    )
    failing = cert.obligations[-1]
    assert failing["name"] == "l-polynomial-table"
    assert failing["status"] == "failed"
    assert failing["evidence"]["error"] == (
        "L-polynomial at p=227 failed: field size 11697083 exceeds the "
        "10000000 budget"
    )


def test_bad_frobenius_prime_fails_before_a_larger_failing_prime():
    cert = run_pipeline(
        {"frobenius_primes": [3, 227, 83], "hecke": {"mode": "skip"}}
    )
    failing = cert.obligations[-1]
    assert failing["name"] == "l-polynomial-table"
    assert failing["evidence"]["error"] == (
        "configured Frobenius prime 83 is a bad prime"
    )


def test_count_block_error_fails_the_table(monkeypatch):
    # a kernel self-check that fails inside a count block names the prime
    # of that count, the smallest of the table since primes are counted
    # in ascending order, so the table step fails instead of the whole run
    def failing(*args):
        raise ArithmeticError("gcd divsteps did not reach g = 0")

    monkeypatch.setattr(counting, "_gcd_degrees", failing)
    cert = run_pipeline(
        {"frobenius_primes": [2, 3, 41], "hecke": {"mode": "skip"}}
    )
    assert cert.final_verdict == (
        "not certified (failing step: l-polynomial-table)"
    )
    error = cert.obligations[-1]["evidence"]["error"]
    assert error.startswith("L-polynomial at p=2 ")
    assert error.endswith(
        " failed: gcd divsteps did not reach g = 0"
    )


def test_missing_hecke_file_fails_irreducibility(tmp_path):
    # p = 5, 23 and 73 give Frobenius orders 9, 7 and 15 mod 2, so the
    # run reaches the irreducibility step, which reads the Hecke file
    missing = tmp_path / "absent.json"
    cert = run_pipeline(
        {"frobenius_primes": [5, 23, 73], "hecke": {"path": str(missing)}}
    )
    assert cert.final_verdict == (
        "not certified (failing step: irreducibility)"
    )
    failing = cert.obligations[-1]
    assert failing["status"] == "failed"
    assert str(missing) in failing["evidence"]["error"]


def test_malformed_hecke_file_fails_irreducibility(tmp_path):
    # an operator entry that is not an object: a failed obligation, not
    # a TypeError traceback
    path = tmp_path / "hecke_bad.json"
    path.write_text(json.dumps({"level": 6391, "weight": 2, "operators": [5]}))
    cert = run_pipeline(
        {"frobenius_primes": [5, 23, 73], "hecke": {"path": str(path)}}
    )
    assert cert.final_verdict == (
        "not certified (failing step: irreducibility)"
    )
    failing = cert.obligations[-1]
    assert failing["status"] == "failed"
    assert "'p' and 'charpoly'" in failing["evidence"]["error"]
