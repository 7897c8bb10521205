"""The three workloads: their inputs, their ops and the checks on each op.

An op is one certificate, one (curve, p) L-polynomial attempt, or one
call computing the Hecke charpolys of T_2 and T_5.  Each :class:`Op`
calls the library only through public entry points, looked up on the
module at call time so a :class:`tracer.Tracer` sees the call.  A
check returns the list of problems found in an op's output; an empty
list means the output is correct.  Checks run outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from quartic_galois import counting, modsym, pipeline
from quartic_galois.curve import LPolynomial, TernaryQuarticForm
from quartic_galois.fields import make_field

HERE = os.path.dirname(os.path.abspath(__file__))

# certify_default: the published table and bad primes of the bundled curve
TABLE = {
    2: (3, 6, 9),
    3: (1, 2, 3),
    5: (4, 10, 17),
    17: (2, 9, 120),
    19: (4, 18, 91),
    23: (5, 19, 53),
    41: (0, 42, -212),
    43: (3, -1, -43),
    73: (-4, -43, 581),
}
BAD_PRIMES = [7, 11, 83]
VERDICT = "maximal adelic image"

# lpoly_sweep: seeded quartics with coefficients in [-3, 3], swept until
# every prime has SWEEP_QUOTA L-polynomials
SWEEP_PRIMES = (3, 5, 7, 11, 13)
SWEEP_QUOTA = 30
SWEEP_MAX_CURVES = 300
SWEEP_COEFF = 3
N2_CHECK_MAX_P = 7
MONOMIALS = tuple(
    (i, j, 4 - i - j) for i in range(4, -1, -1) for j in range(4 - i, -1, -1)
)

# hecke_compute: level 7 * 11 * 29 and the primes used by the pipeline
HECKE_LEVEL = 2233
HECKE_PRIMES = (2, 5)
HECKE_REFERENCE = os.path.join(HERE, "data", "hecke_2233.json")


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], List[str]]
    # exception types that are expected rejections, not failures
    rejections: Tuple[type, ...] = ()


# ---------------------------------------------------------------------------
# certify_default


def certify_call() -> str:
    cert = pipeline.run_pipeline(None)
    return pipeline.render_report(cert, "json")


def check_certificate(doc: str) -> List[str]:
    obj = json.loads(doc)
    problems = []
    if obj.get("final_verdict") != VERDICT:
        problems.append("verdict is %r" % obj.get("final_verdict"))
    evidence = {ob["name"]: ob["evidence"] for ob in obj.get("obligations", [])}
    bad = evidence.get("reduction-analysis", {}).get("bad_primes")
    if bad != BAD_PRIMES:
        problems.append("bad primes are %r, expected %r" % (bad, BAD_PRIMES))
    rows = evidence.get("l-polynomial-table", {}).get("table", [])
    table = {row["p"]: (row["a"], row["b"], row["c"]) for row in rows}
    if table != TABLE:
        wrong = sorted(p for p in set(table) | set(TABLE) if table.get(p) != TABLE.get(p))
        problems.append("L-polynomial table differs at p = %s" % wrong)
    return problems


def certify_ops(seed: int, ticks: Optional[list] = None) -> List[Op]:
    return [Op("certificate", certify_call, check_certificate)]


# ---------------------------------------------------------------------------
# lpoly_sweep


def sweep_curves(seed: int) -> Iterator[Dict[Tuple[int, int, int], int]]:
    """Seeded quartics with coefficients in [-3, 3] on the 15 monomials.

    The y^4 coefficient is drawn nonzero, as on the certifier's curves:
    ``singular_points`` needs a unit pure y^4 coefficient mod p and
    otherwise reports an incomplete search, so a curve without one is
    rejected at every prime without exercising either layer.  A nonzero
    y^4 coefficient is also a unit mod 11 and 13, which gives
    ``count_points`` the chart it needs above 512 field elements.
    """
    rng = random.Random(seed)
    while True:
        coeffs = {m: rng.randint(-SWEEP_COEFF, SWEEP_COEFF) for m in MONOMIALS}
        if coeffs[(0, 4, 0)] != 0:
            yield coeffs


def _projective_points(elements: Sequence, zero, one) -> list:
    pts = [(one, y, z) for y in elements for z in elements]
    pts += [(zero, one, z) for z in elements]
    pts.append((zero, zero, one))
    return pts


class BruteCounter:
    """Independent point counts over P^2(F_p) and, for small p, P^2(F_{p^2}).

    N_1 uses integer arithmetic only.  N_2 uses the library's public
    ``make_field`` and ``TernaryQuarticForm.evaluate``, one monomial at a
    time, so each curve's count is a linear combination of stored values.
    """

    def __init__(self):
        self._tables: Dict[Tuple[int, int], np.ndarray] = {}

    def _table(self, p: int, m: int) -> np.ndarray:
        key = (p, m)
        if key not in self._tables:
            if m == 1:
                pts = _projective_points(range(p), 0, 1)
                vals = [
                    [[x ** i * y ** j * z ** k % p] for (i, j, k) in MONOMIALS]
                    for (x, y, z) in pts
                ]
            else:
                F = make_field(p, m)
                pts = _projective_points(list(F.elements()), F.zero(), F.one())
                forms = [TernaryQuarticForm({mono: 1}) for mono in MONOMIALS]
                vals = [[f.evaluate(F, pt) for f in forms] for pt in pts]
            self._tables[key] = np.array(vals, dtype=np.int64)
        return self._tables[key]

    def count(self, coeffs: Dict[Tuple[int, int, int], int], p: int, m: int) -> int:
        table = self._table(p, m)  # (points, monomials, m)
        c = np.array([coeffs[mono] for mono in MONOMIALS], dtype=np.int64)
        values = np.einsum("pkm,k->pm", table, c) % p
        return int(np.count_nonzero(~values.any(axis=1)))


def check_lpoly(brute: BruteCounter, coeffs, p: int, lp: LPolynomial) -> List[str]:
    problems = []
    for m in (1, 2) if p <= N2_CHECK_MAX_P else (1,):
        want = brute.count(coeffs, p, m)
        got = lp.point_count(m)
        if got != want:
            problems.append("p=%d: N_%d is %d, brute force gives %d" % (p, m, got, want))
    return problems


def lpoly_ops(seed: int, ticks: Optional[list] = None) -> Iterator[Op]:
    """(curve, p) attempts over the seeded curves, skipping primes that
    already have SWEEP_QUOTA L-polynomials, so every batch computes the
    same number of L-polynomials at each prime.  Bad-reduction attempts
    met on the way are part of the batch.  The next op is chosen after
    the previous one's check has run."""
    brute = BruteCounter()
    done = {p: 0 for p in SWEEP_PRIMES}

    def check(lp, coeffs, p):
        done[p] += 1
        return check_lpoly(brute, coeffs, p, lp)

    curves = itertools.islice(sweep_curves(seed), SWEEP_MAX_CURVES)
    for n, coeffs in enumerate(curves):
        curve = TernaryQuarticForm(coeffs)
        for p in SWEEP_PRIMES:
            if done[p] < SWEEP_QUOTA:
                yield Op(
                    "curve%d/p%d" % (n, p),
                    lambda curve=curve, p=p: counting.l_polynomial(curve, p),
                    lambda lp, coeffs=coeffs, p=p: check(lp, coeffs, p),
                    (counting.BadReductionError,),
                )
        if min(done.values()) == SWEEP_QUOTA:
            return
    raise RuntimeError(
        "%d curves gave only %s L-polynomials per prime" % (SWEEP_MAX_CURVES, done))


# ---------------------------------------------------------------------------
# hecke_compute


def load_hecke_reference() -> Dict[int, Tuple[int, ...]]:
    with open(HECKE_REFERENCE) as fh:
        obj = json.load(fh)
    return {int(p): tuple(int(c) for c in cs) for p, cs in obj["charpolys"].items()}


def check_hecke(reference: Dict[int, Tuple[int, ...]], charpolys) -> List[str]:
    problems = []
    genus = modsym.genus_x0(HECKE_LEVEL)
    if sorted(charpolys) != sorted(reference):
        problems.append("charpolys for primes %s" % sorted(charpolys))
    for p, cp in sorted(charpolys.items()):
        coeffs = tuple(cp.coeffs)
        if coeffs[-1] != 1:
            problems.append("T_%d charpoly is not monic" % p)
        if len(coeffs) - 1 != genus:
            problems.append("T_%d charpoly has degree %d, genus is %d" % (p, len(coeffs) - 1, genus))
        if coeffs != reference.get(p):
            problems.append("T_%d charpoly differs from the reference" % p)
    return problems


def hecke_ops(seed: int, ticks: Optional[list] = None) -> List[Op]:
    reference = load_hecke_reference()
    kwargs = {}
    if ticks is not None:
        kwargs["progress"] = lambda i, n: ticks.append(time.perf_counter())

    def call():
        return modsym.hecke_charpolys_multimodular(HECKE_LEVEL, list(HECKE_PRIMES), **kwargs)

    return [Op("level%d" % HECKE_LEVEL, call, lambda cps: check_hecke(reference, cps))]


# workload name -> function making its ops from a seed
OPS = {
    "certify_default": certify_ops,
    "lpoly_sweep": lpoly_ops,
    "hecke_compute": hecke_ops,
}
