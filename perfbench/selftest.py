"""Self-test of the benchmark harness; takes a few seconds.

    python3 perfbench/selftest.py

Checks that a tampered output counts as a failed op on each workload's
check, that a traced batch puts back every name it wraps, and that a
public name removed from the library shows up as an absent layer while
untraced ops still run.  Exits 1 if any check fails.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from quartic_galois import curve as curve_module  # noqa: E402
from quartic_galois.curve import LPolynomial, TernaryQuarticForm  # noqa: E402
from quartic_galois.modsym import HeckeCharPoly  # noqa: E402

FAILURES = []


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def outcomes(ops, traced=None):
    return worker.run_batch(ops, traced)["outcomes"]


def certificate_doc(table):
    obj = {
        "final_verdict": workloads.VERDICT,
        "obligations": [
            {"name": "reduction-analysis", "evidence": {"bad_primes": workloads.BAD_PRIMES}},
            {"name": "l-polynomial-table", "evidence": {"table": [
                {"p": p, "a": a, "b": b, "c": c} for p, (a, b, c) in sorted(table.items())
            ]}},
        ],
    }
    return json.dumps(obj)


def test_tampered_outputs():
    good = certificate_doc(workloads.TABLE)
    bad_table = dict(workloads.TABLE)
    a, b, c = bad_table[23]
    bad_table[23] = (a, b, c + 1)
    bad = certificate_doc(bad_table)
    Op = workloads.Op
    expect(outcomes([Op("cert", lambda: good, workloads.check_certificate)]) == ["ok"],
           "certify_default: the published table passes")
    expect(outcomes([Op("cert", lambda: bad, workloads.check_certificate)]) == ["failed"],
           "certify_default: one wrong (a, b, c) fails")

    coeffs = next(workloads.sweep_curves(7))
    curve = TernaryQuarticForm(coeffs)
    brute = workloads.BruteCounter()
    p = 13
    lp = workloads.counting.l_polynomial(curve, p)
    off = LPolynomial(p, lp.a + 1, lp.b, lp.c)  # N_1 = p + 1 + a
    expect(off.point_count(1) == lp.point_count(1) + 1, "lpoly_sweep: tampered N_1 is off by one")

    def check(out):
        return workloads.check_lpoly(brute, coeffs, p, out)

    expect(outcomes([Op("lp", lambda: lp, check)]) == ["ok"], "lpoly_sweep: a true L-polynomial passes")
    expect(outcomes([Op("lp", lambda: off, check)]) == ["failed"], "lpoly_sweep: N_1 off by one fails")
    lp5 = workloads.counting.l_polynomial(curve, 5)
    off5 = LPolynomial(5, lp5.a, lp5.b + 1, lp5.c)  # changes N_2 only
    expect(outcomes([Op("lp", lambda: off5, lambda out: workloads.check_lpoly(brute, coeffs, 5, out))])
           == ["failed"], "lpoly_sweep: N_2 off at p = 5 fails")

    ref = workloads.load_hecke_reference()
    level = workloads.HECKE_LEVEL
    good_cps = {p: HeckeCharPoly(level, p, cs) for p, cs in ref.items()}
    flipped = list(ref[5])
    flipped[100] = -flipped[100] if flipped[100] else 1
    bad_cps = dict(good_cps)
    bad_cps[5] = HeckeCharPoly(level, 5, tuple(flipped))

    def check_h(out):
        return workloads.check_hecke(ref, out)

    expect(outcomes([Op("h", lambda: good_cps, check_h)]) == ["ok"], "hecke_compute: the reference passes")
    expect(outcomes([Op("h", lambda: bad_cps, check_h)]) == ["failed"],
           "hecke_compute: one flipped coefficient fails")


def _bindings():
    return {
        (mod.__name__, attr): value
        for mod in tracer.package_modules()
        for attr, value in vars(mod).items()
    }


def small_ops():
    return [
        workloads.Op("lp", lambda: workloads.counting.l_polynomial(curve, 5), lambda out: [],
                     (workloads.counting.BadReductionError,))
        for curve in [TernaryQuarticForm(c) for c in itertools.islice(workloads.sweep_curves(3), 2)]
    ]


def test_tracer_restores():
    before = _bindings()
    out = worker.run_batch(small_ops(), tracer.Tracer())
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    expect(not changed, "traced batch restores every wrapped name (%d changed)" % len(changed))
    expect(any(s[1] == "counting.l_polynomial" for s in out["spans"]), "traced batch records spans")


def test_absent_layer():
    removed = curve_module.singular_points
    del curve_module.singular_points
    try:
        t = tracer.Tracer()
        t.install()
        t.restore()
        expect("curve.singular_points" in t.absent, "a removed name is reported as an absent layer")
        expect(not hasattr(curve_module, "singular_points"), "restore does not bring a removed name back")
        untraced = worker.run_batch(small_ops())
        expect("failed" not in untraced["outcomes"], "untraced ops still run with the name removed")
        traced = worker.run_batch(small_ops(), tracer.Tracer())
        layers = run.per_layer(untraced, traced)
        expect(layers["trace.absent_layers.count"]["value"] == 1
               and layers["curve.singular_points.s"]["value"] == 0.0,
               "per-layer report counts the absent layer and reads 0 for it")
    finally:
        curve_module.singular_points = removed


def main():
    test_tampered_outputs()
    test_tracer_restores()
    test_absent_layer()
    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
