"""Every demo script runs to completion and prints the bytes pinned below."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's stdout; a change that keeps every printed byte
#: keeps these.  03 and 04 moved when the sampled checks of one degree, and
#: the steps of one chain, came to share one tuple batch: 03 in five of its
#: printed minima, 04 in both step minima; no scale or verdict moved.
#: They moved again when degrees n, 1 and n-1 came to be decided without
#: sampling: every check of 03 (n = 3) and both steps of 04 (top degree)
#: now print the method that decided them and their margin in place of
#: a sampled minimum (03: psd 3, top-coefficient 2, exact-zero 1; 04:
#: top-coefficient 2), 03's printed report length moved by one byte, and
#: 04's section title says "pointwise", not "sampled"; no scale or verdict
#: moved.  01 moved when float ``forms.evaluate`` came to sum the form's
#: terms over their minors, as exact mode does, and not through LAPACK's
#: det: its evaluation of (dz1^dz2)^(conj) prints the exact 52+0j where it
#: printed 52+8.88178e-16j; no other line moved
STDOUT_SHA256 = {
    "01_exterior_algebra.py": "2d22a3320993abc4d7faad61e830c50e5f11ba8dfc192558449233ebdcd7747f",
    "02_curvature_to_chern.py": "440781f9508efdfe6ad83ee7519483052082122e8c6230e41da58f1babad5c09",
    "03_schur_positivity.py": "7d647c90468455fabee9057d583ec2a19266ac9ca43f0a8dd41abc71c650aa7b",
    "04_bound_chains.py": "f55586c042dbfd90b6ee01fac207a0a7da593be02521ad8a9bc4443d6f9d2f83",
    "05_riemann_roch.py": "4f876891b6ca02df032054029c1f2a0a6a38d11475ec4f4802585685112a718d",
}


def test_demos_found():
    assert [p.name for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.name]
