"""The ``certify`` command-line interface.

``certify [--config cfg.json] [--report out.json] [--format json|text]``
runs the full pipeline; exit status 0 exactly when the verdict is
"maximal adelic image".  Subcommands: ``lpoly --p P`` prints one
L-polynomial, ``hecke --level N --primes 2,5 --out FILE`` precomputes
Hecke characteristic polynomials, ``facts`` prints the trusted-fact
registry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from .counting import l_polynomial
from .curve import TernaryQuarticForm
from .facts import render_registry
from .hecke_io import store_hecke_charpolys
from .modsym import check_hecke_prime, hecke_charpolys_multimodular
from .pipeline import render_report, run_pipeline


@contextmanager
def _output(path: Optional[str]):
    """Opens ``path`` (if given) for appending before the work, so an
    unwritable path fails first.  A file made by that probe is removed
    if the work then fails; a file that was there is left as it was."""
    made = False
    if path is not None:
        try:
            open(path, "x").close()
            made = True
        except FileExistsError:
            open(path, "a").close()
    try:
        yield
    except BaseException:
        if made:
            os.remove(path)
        raise


def _cmd_run(args) -> int:
    # every error inside an obligation step becomes a failed obligation,
    # so a ValueError or OSError here comes from the config, the curve or
    # the report path, which is opened (not truncated) before the run
    try:
        config = None
        if args.config is not None:
            with open(args.config) as fh:
                config = json.load(fh)
        with _output(args.report):
            cert = run_pipeline(config)
            if args.report is not None:
                with open(args.report, "w") as fh:
                    fh.write(render_report(cert, "json"))
    except (ValueError, OSError) as exc:
        raise SystemExit("certify: %s" % exc)
    sys.stdout.write(render_report(cert, args.format))
    return 0 if cert.final_verdict == "maximal adelic image" else 1


def _cmd_lpoly(args) -> int:
    # a missing or malformed curve file, a non-prime p or a prime of bad
    # reduction raises OSError or ValueError; a failed kernel self-check,
    # an inexact Newton division or a Weil bound raises ArithmeticError
    try:
        curve = TernaryQuarticForm.load(args.curve)
        lp = l_polynomial(curve, args.p)
    except (ValueError, OSError, ArithmeticError) as exc:
        raise SystemExit("certify lpoly: %s" % exc)
    sys.stdout.write(json.dumps(lp.to_json_obj(), sort_keys=True) + "\n")
    return 0


def _cmd_hecke(args) -> int:
    try:
        if args.level < 1:
            raise ValueError("level must be >= 1, got %d" % args.level)
        primes = [int(tok) for tok in args.primes.split(",") if tok]
        if not primes:
            raise ValueError("no primes given")
        for p in primes:
            check_hecke_prime(args.level, p)
        # an unwritable path fails before the charpolys are computed
        with _output(args.out):
            by_p = hecke_charpolys_multimodular(args.level, primes)
            cps = [by_p[p] for p in primes]
            store_hecke_charpolys(args.out, cps)
    except (ValueError, OSError, ArithmeticError) as exc:
        raise SystemExit("certify hecke: %s" % exc)
    sys.stdout.write(
        "stored %d operator(s) at level %d in %s\n"
        % (len(cps), args.level, args.out)
    )
    return 0


def _cmd_facts(_args) -> int:
    sys.stdout.write(render_registry())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="certify",
        description="Certify maximality of the adelic Galois image of a "
        "plane-quartic Jacobian.",
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run the full pipeline (default)")
    run.add_argument("--config", default=None)
    run.add_argument("--report", default=None)
    run.add_argument("--format", choices=("json", "text"), default="text")

    lpoly = sub.add_parser("lpoly", help="one L-polynomial")
    lpoly.add_argument("--p", type=int, required=True)
    lpoly.add_argument("--curve", default=None)

    hecke = sub.add_parser("hecke", help="precompute Hecke operators")
    hecke.add_argument("--level", type=int, required=True)
    hecke.add_argument("--primes", required=True)
    hecke.add_argument("--out", required=True)

    sub.add_parser("facts", help="print the trusted-fact registry")

    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in ("run", "lpoly", "hecke", "facts"):
        argv = ["run"] + argv
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "lpoly": _cmd_lpoly,
        "hecke": _cmd_hecke,
        "facts": _cmd_facts,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
