"""Hecke characteristic-polynomial file format.

JSON: {"level": N, "weight": 2, "operators": [{"p": 2, "charpoly":
["c0", "c1", ...]}]} with decimal-string coefficients, low degree
first.  Loading validates the shape of the file, that each p is a
prime not dividing N, monicity, and that each degree equals the genus
of X_0(N); a malformed file raises ValueError.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Sequence

from .modsym import HeckeCharPoly, check_hecke_prime, genus_x0


def store_hecke_charpolys(
    path, charpolys: Sequence[HeckeCharPoly]
) -> None:
    if not charpolys:
        raise ValueError("nothing to store")
    levels = {cp.N for cp in charpolys}
    if len(levels) != 1:
        raise ValueError("mixed levels in one file: %s" % sorted(levels))
    (level,) = levels
    obj = {
        "level": level,
        "weight": 2,
        "operators": [
            {"p": cp.p, "charpoly": [str(c) for c in cp.coeffs]}
            for cp in sorted(charpolys, key=lambda c: c.p)
        ],
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def load_hecke_charpolys(path) -> Dict[int, HeckeCharPoly]:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError("malformed Hecke file %s: %s" % (path, exc))
    if not isinstance(obj, dict):
        raise ValueError("Hecke file %s is not a JSON object" % path)
    for key in ("level", "weight", "operators"):
        if key not in obj:
            raise ValueError("Hecke file missing key %r" % key)
    level = obj["level"]
    if isinstance(level, bool) or not isinstance(level, int) or level < 1:
        raise ValueError("bad level %r" % level)
    if obj["weight"] != 2:
        raise ValueError("only weight 2 is supported")
    if not isinstance(obj["operators"], list):
        raise ValueError("'operators' must be a list")
    genus = genus_x0(level)
    out: Dict[int, HeckeCharPoly] = {}
    for op in obj["operators"]:
        if not isinstance(op, dict) or "p" not in op or "charpoly" not in op:
            raise ValueError("operator entry is not an object with 'p' and 'charpoly'")
        p = op["p"]
        check_hecke_prime(level, p)
        charpoly = op["charpoly"]
        if not isinstance(charpoly, list) or not all(
            isinstance(c, str) for c in charpoly
        ):
            raise ValueError("charpoly for p=%r is not a list of strings" % p)
        try:
            coeffs = tuple(int(c) for c in charpoly)
        except ValueError:
            raise ValueError("non-integer coefficient for p=%r" % p)
        if len(coeffs) != genus + 1:
            raise ValueError(
                "charpoly degree %d for p=%r does not match genus %d of "
                "X_0(%d)" % (len(coeffs) - 1, p, genus, level)
            )
        if coeffs[-1] != 1:
            raise ValueError("charpoly for p=%r is not monic" % p)
        if p in out:
            raise ValueError("duplicate operator p=%r" % p)
        out[p] = HeckeCharPoly(N=level, p=p, coeffs=coeffs)
    return out
