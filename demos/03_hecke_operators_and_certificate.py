"""
Hecke operators and the final certificate
=========================================

The last exclusion mechanism needs characteristic polynomials of Hecke
operators on weight-2 cusp forms.  This script exercises the modular
symbols engine at desk scale, compares it against eta-product
q-expansions, and then runs the full certification pipeline with the
bundled level-6391 Hecke data.
"""

import sys
from pathlib import Path

from quartic_galois.modsym import genus_x0, hecke_charpolys_multimodular
from quartic_galois.pipeline import render_report, run_pipeline

# the eta-product q-expansions are a test oracle, kept in tests/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import ETA_NEWFORMS, newform_ap  # noqa: E402

# --- genus sanity -----------------------------------------------------------
print("genus of X_0(N):", {N: genus_x0(N) for N in (11, 37, 389, 6391)})
print()

# --- eta products as an independent oracle ---------------------------------
# the unique newforms at levels 11, 14, 15 are eta products, so their
# coefficients can be read off from infinite-product expansions with
# no modular symbols at all
for N, factors in sorted(ETA_NEWFORMS.items()):
    primes = [p for p in (2, 3, 5, 7, 11, 13) if N % p]
    row = []
    for p, cp in hecke_charpolys_multimodular(N, primes).items():
        # genus one: charpoly is x - a_p
        a_p = -cp.coeffs[0]
        assert a_p == newform_ap(factors, p)
        row.append((p, a_p))
    print("level %2d: modular symbols and eta products agree on %s" % (N, row))
print()

# --- a genus-2 level --------------------------------------------------------
cps = hecke_charpolys_multimodular(37, (2, 3))
print("level 37 charpoly of T_2:", cps[2].coeffs)
print("level 37 charpoly of T_3:", cps[3].coeffs)
print()

# --- the full pipeline ------------------------------------------------------
# nine L-polynomials are recomputed from scratch and the bundled
# level-6391 Hecke polynomials are ingested
print("running the full certification pipeline...")
cert = run_pipeline()
print()
for ob in cert.obligations:
    print("  [%-7s] %s" % (ob["status"], ob["name"]))
print()
# the dim-2 family is excluded outside the support of the gcd of the
# resultants Res(H_p, Q_p); on the bundled data its odd part is 3^16
details = next(
    ob["evidence"]["details"] for ob in cert.obligations
    if ob["name"] == "irreducibility"
)
print("gcd of the Hecke resultants r_2, r_5:", details["dim2_gcd"])
print("final verdict:", cert.final_verdict)

# the JSON report is byte-deterministic; write it next to this script
with open("certificate.json", "w") as fh:
    fh.write(render_report(cert, "json"))
print("wrote certificate.json")
