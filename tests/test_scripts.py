"""Programs outside ``src/`` run as subprocesses, so that a change to the
library that breaks one of its callers fails here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable] + args, cwd=cwd, env=env, capture_output=True, timeout=300
    )


def test_optimized_run_gives_the_pinned_certificate(tmp_path):
    # python -O strips assert statements; the proof's self-checks raise
    # instead, so the certificate bytes are those of criterion 11
    proc = _run(["-O", "-m", "quartic_galois.cli", "run", "--format", "json"], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "5003634e0b1e1c33a1b71744095dc2c60426956ca4b06f4af078cc00df3b4959"
    )


@pytest.mark.parametrize(
    "script",
    [
        "perfbench/selftest.py",
        "demos/01_point_counts_and_lpolynomials.py",
        "demos/02_exclusion_ledgers.py",
        "demos/03_hecke_operators_and_certificate.py",
    ],
)
def test_script_runs(tmp_path, script):
    # run in a scratch directory: demo 03 writes certificate.json there
    proc = _run([str(ROOT / script)], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize(
    "script",
    [
        "demos/01_point_counts_and_lpolynomials.py",
        "demos/02_exclusion_ledgers.py",
        "demos/03_hecke_operators_and_certificate.py",
    ],
)
def test_demo_runs_without_sympy(tmp_path, script):
    # a None entry in sys.modules makes every "import sympy" fail
    code = (
        "import runpy, sys\n"
        "sys.modules['sympy'] = None\n"
        "runpy.run_path(sys.argv[1], run_name='__main__')\n"
    )
    proc = _run(["-c", code, str(ROOT / script)], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
