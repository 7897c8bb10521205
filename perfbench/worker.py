"""Run one batch of a workload in a fresh interpreter; print it as JSON.

Reads a job ``{"root", "workload", "seed", "trace"}`` on standard input
and prints one JSON object as the last line of standard output.  Every
op starts with the library's ``lru_cache``s and sympy's cache emptied,
so it pays the cold-cache cost a ``certify`` user pays on every run.
Only the op call is timed; its checks run after the clock stops.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

import tracer as tracing


def _import_library(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import quartic_galois

    where = os.path.abspath(quartic_galois.__file__)
    if not where.startswith(src + os.sep):
        raise SystemExit("quartic_galois was imported from %s, not from %s" % (where, src))


def _cache_clearers(modules):
    """cache_clear of every lru_cache defined in the package, plus sympy's."""
    from sympy.core.cache import clear_cache

    found = {}
    for mod in modules:
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", "").startswith("quartic_galois"):
                found[id(value)] = clear
    return list(found.values()) + [clear_cache]


def run_batch(ops, tracer=None, ticks=None):
    clearers = _cache_clearers(tracing.package_modules())
    if tracer is not None:
        tracer.install()
    out = {
        "latencies": [], "cpu": [], "outcomes": [], "problems": [],
        "digests": [], "modulus_intervals": [],
    }
    try:
        for i, op in enumerate(ops):
            for clear in clearers:
                clear()
            if tracer is not None:
                tracer.op_id = i
            if ticks is not None:
                ticks.clear()
            error = output = None
            rejected = False
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                output = tracer.span("op", op.call) if tracer is not None else op.call()
            except op.rejections:
                rejected = True
            except Exception:
                error = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            c1 = time.process_time()
            out["latencies"].append(t1 - t0)
            out["cpu"].append(c1 - c0)
            if ticks:
                marks = [t0] + ticks
                out["modulus_intervals"] += [b - a for a, b in zip(marks, marks[1:])]
            if rejected:
                out["outcomes"].append("rejected")
                continue
            problems = [error] if error else _check(op, output)
            if isinstance(output, str):
                out["digests"].append(_digest(output))
            out["outcomes"].append("failed" if problems else "ok")
            out["problems"] += ["%s: %s" % (op.label, p) for p in problems]
    finally:
        if tracer is not None:
            tracer.restore()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["spans"] = tracer.spans
        out["absent"] = tracer.absent
    return out


def _check(op, output):
    try:
        return op.check(output)
    except Exception:
        return ["check raised: " + traceback.format_exc(limit=3)]


def _digest(doc):
    return hashlib.sha256(doc.encode()).hexdigest()


def main():
    job = json.loads(sys.stdin.read())
    _import_library(job["root"])
    import workloads

    ticks = [] if job["trace"] else None
    ops = workloads.OPS[job["workload"]](job["seed"], ticks)
    result = run_batch(ops, tracing.Tracer() if job["trace"] else None, ticks)
    sys.stdout.write("\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
