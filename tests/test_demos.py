"""Every demo runs to completion and reports no failed or undecided check."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qskein import TorusElement, TorusSpec

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    bad = [line for line in proc.stdout.splitlines()
           if "FAIL" in line or "INCONCLUSIVE" in line]
    assert not bad, bad


def test_weyl_normalize(capsys):
    # the demo's own weyl_normalize: order independent, x^k alone, x^k x^(-k)
    weyl_normalize = runpy.run_path(str(ROOT / "demos" / "01_quantum_torus.py"))["weyl_normalize"]
    capsys.readouterr()
    s = TorusSpec(("a", "b"), [[0, 1], [-1, 0]], 8)
    rng = np.random.default_rng(3)
    ks = [tuple(int(v) for v in rng.integers(-3, 4, 2)) for _ in range(4)]
    ref = weyl_normalize(s, ks)
    perm = [ks[2], ks[0], ks[3], ks[1]]
    assert weyl_normalize(s, perm) == ref
    assert weyl_normalize(s, [ks[0]]) == TorusElement.monomial(s, ks[0])
    assert weyl_normalize(s, [ks[0], tuple(-v for v in ks[0])]) == TorusElement.one(s)
