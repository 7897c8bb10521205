"""Benchmark of the quartic_galois certifier, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Workloads (see README.md in this directory):

* ``certify_default`` -- ``run_pipeline(None)`` then
  ``render_report(cert, "json")``, exactly ``certify --format json``;
* ``lpoly_sweep`` -- ``l_polynomial(curve, p)`` for 30 seeded random
  quartics and p in {3, 5, 7, 11, 13} (the only seeded workload);
* ``hecke_compute`` -- ``hecke_charpolys_multimodular(2233, [2, 5])``.

Every batch runs in a fresh interpreter (``worker.py``), one at a time,
and repeats while another batch fits in ``--seconds`` (at least one).
Set-up is measured separately, in six fresh interpreters (three before
the batches, three after) that only import the library and load the
workload's bundled data.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` one untraced and one traced batch run and it carries
the per-layer metrics.  Run context, spans and every sample go to
``perfbench/results/``.  Exits 2 without a result when the checkout has
no ``src/quartic_galois``, and 1 when a batch cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("certify_default", "lpoly_sweep", "hecke_compute")
# set-up probes before and again after the batches; the machine's speed drifts
SETUP_REPEATS = 3
RUN_LIMIT = 175  # seconds; a run that would take longer stops without a result

# code a fresh interpreter runs to measure set-up, after the library import
_LOAD_BUNDLED = """
from importlib import resources
from quartic_galois.curve import TernaryQuarticForm
from quartic_galois.hecke_io import load_hecke_charpolys
TernaryQuarticForm.bundled_curve()
with resources.as_file(resources.files("quartic_galois") / "data" / "hecke_6391.json") as path:
    load_hecke_charpolys(path)
"""
SETUP_DATA = {"certify_default": _LOAD_BUNDLED, "lpoly_sweep": "", "hecke_compute": ""}
_SETUP_PROBE = """
import os, sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import quartic_galois.cli
{data}
elapsed = time.perf_counter() - t0
if not os.path.abspath(quartic_galois.__file__).startswith({src!r} + os.sep):
    sys.exit("quartic_galois imported from outside the checkout")
print(repr(elapsed))
"""

LAYER_MODULES = sorted({modname for modname, _ in tracer.TARGETS})


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# running


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("the run exceeded %d s" % RUN_LIMIT)
    return left


def measure_setup(workload, deadline):
    code = _SETUP_PROBE.format(src=SRC, data=SETUP_DATA[workload])
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=_remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchError("set-up probe failed:\n" + proc.stderr)
    return float(proc.stdout.split()[-1])


def run_batch(workload, seed, trace, deadline):
    job = {"root": ROOT, "workload": workload, "seed": seed, "trace": trace}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT,
        input=json.dumps(job), capture_output=True, text=True,
        timeout=_remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchError("batch failed (exit %d):\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(workload, seed, seconds, deadline):
    """Batches while another one fits in ``seconds``; at least one."""
    start = time.monotonic()
    batches = []
    while True:
        batches.append(run_batch(workload, seed, False, deadline))
        elapsed = time.monotonic() - start
        if elapsed * (len(batches) + 1) / len(batches) > seconds:
            return batches


# ---------------------------------------------------------------------------
# statistics


def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples above it; the maximum when there are fewer than 11 samples."""
    s = sorted(samples)
    k = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(batches, setup):
    walls = [sum(b["latencies"]) for b in batches]
    # latency of ops that returned; expected rejections count in wall_s only
    lat = [x for b in batches for x, o in zip(b["latencies"], b["outcomes"]) if o != "rejected"]
    outcomes = [o for b in batches for o in b["outcomes"]]
    failed = outcomes.count("failed")
    tail_value, tail_pct = tail(lat)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(max(b["maxrss_kb"] for b in batches) / 1024.0, "MB"),
        "op_p50_s": metric(statistics.median(lat), "s"),
        "op_tail_s": metric(tail_value, "s"),
        "ok_ratio": metric((len(outcomes) - failed) / len(outcomes), "ratio"),
    }
    info = {
        "batches": len(batches), "ops": len(outcomes), "latency_samples": len(lat),
        "setup_samples": len(setup),
        "op_tail_percentile": tail_pct, "failed_ratio": failed / len(outcomes),
        "rejected": outcomes.count("rejected"),
    }
    return metrics, info


def _busy_and_self(spans):
    """Per span name: busy time (outermost calls only), calls, and self time."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] += s[5] - s[4]
    busy, calls, self_time = defaultdict(float), defaultdict(int), defaultdict(float)
    for s in spans:
        sid, name, parent = s[0], s[1], s[2]
        calls[name] += 1
        self_time[name] += (s[5] - s[4]) - child_time[sid]
        while parent is not None and by_id[parent][1] != name:
            parent = by_id[parent][2]
        if parent is None:
            busy[name] += s[5] - s[4]
    return busy, calls, self_time


def per_layer(untraced, traced):
    spans = traced["spans"]
    busy, calls, self_time = _busy_and_self(spans)
    counts = [s for s in spans if s[1] == "counting.count_points"]

    def count_time(pred):
        return sum(s[5] - s[4] for s in counts if pred(s[6]))

    lanes = sum(s[6]["p"] ** s[6]["m"] for s in counts)
    intervals = traced["modulus_intervals"]
    traced_wall = sum(traced["latencies"])
    untraced_wall = sum(untraced["latencies"])
    m = {}
    for modname, fname in tracer.TARGETS:
        m["%s.%s.s" % (modname, fname)] = metric(busy["%s.%s" % (modname, fname)], "s")
    for name in ("counting.count_points", "curve.singular_points", "polys.int_resultant"):
        m[name + ".calls"] = metric(calls[name], "count")
    m["counting.count_points.s.p73m3"] = metric(count_time(lambda a: (a["p"], a["m"]) == (73, 3)), "s")
    for deg in (1, 2, 3):
        m["counting.count_points.s.m%d" % deg] = metric(count_time(lambda a: a["m"] == deg), "s")
    m["counting.lanes_per_s"] = metric(
        lanes / busy["counting.count_points"] if counts else 0.0, "1/s")
    m["curve.bad_reduction.count"] = metric(traced["outcomes"].count("rejected"), "count")
    m["modsym.moduli.count"] = metric(len(intervals), "count")
    m["modsym.modulus.p50_s"] = metric(statistics.median(intervals) if intervals else 0.0, "s")
    m["modsym.modulus.tail_s"] = metric(tail(intervals)[0] if intervals else 0.0, "s")
    m["pipeline.self_s"] = metric(self_time["pipeline.run_pipeline"], "s")
    library_self = 0.0
    for modname in LAYER_MODULES:
        t = sum(v for k, v in self_time.items() if k.startswith(modname + "."))
        library_self += t
        if modname != "pipeline":
            m[modname + ".self_s"] = metric(t, "s")
    m["proc.cpu_s"] = metric(sum(untraced["cpu"]), "s")
    m["trace.wall_s"] = metric(traced_wall, "s")
    m["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    m["trace.self_sum_s"] = metric(library_self, "s")
    m["trace.unattributed_s"] = metric(traced_wall - library_self, "s")
    m["trace.spans.count"] = metric(len(spans), "count")
    m["trace.absent_layers.count"] = metric(len(traced["absent"]), "count")
    return m


# ---------------------------------------------------------------------------
# context and output


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def context(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "sympy": _version("sympy"), "commit": _commit(), "src_lines": _src_lines(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quartic_galois", "__init__.py")):
        print("no quartic_galois package under %s" % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT
    try:
        setup = [measure_setup(args.workload, deadline) for _ in range(SETUP_REPEATS)]
        if args.trace:
            batches = [run_batch(args.workload, args.seed, False, deadline)]
            traced = run_batch(args.workload, args.seed, True, deadline)
        else:
            batches = run_untraced(args.workload, args.seed, args.seconds, deadline)
            traced = None
        setup += [measure_setup(args.workload, deadline) for _ in range(SETUP_REPEATS)]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    metrics, info = end_to_end(batches, setup)
    all_batches = batches + ([traced] if traced else [])
    outcomes = [o for b in all_batches for o in b["outcomes"]]
    digests = {d for b in all_batches for d in b["digests"]}
    problems = [p for b in all_batches for p in b["problems"]]
    if len(digests) > 1:
        problems.append("certificate JSON differs between batches: %s" % sorted(digests))
    info["certificate_sha256"] = sorted(digests) if digests else None
    if traced:
        metrics = per_layer(batches[0], traced)
        info["absent_layers"] = traced["absent"]
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": outcomes.count("failed") + (len(digests) > 1),
        "metrics": metrics,
    }

    os.makedirs(RESULTS, exist_ok=True)
    record = {"context": context(args), "info": info, "problems": problems,
              "setup_samples": setup, "batches": all_batches, "result": result}
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh)

    print("context %s" % json.dumps(record["context"]))
    print("info %s" % json.dumps(info))
    for p in problems[:20]:
        print("problem: %s" % p.strip())
    for key, m in metrics.items():
        print("  %-44s %16.6f %s" % (key, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
