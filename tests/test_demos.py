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
#: printed minima, 04 in both step minima; no scale or verdict moved
STDOUT_SHA256 = {
    "01_exterior_algebra.py": "09c06bac88a7e9cf4c06208371cf8d34adec97269546dbd816ae671009bed695",
    "02_curvature_to_chern.py": "440781f9508efdfe6ad83ee7519483052082122e8c6230e41da58f1babad5c09",
    "03_schur_positivity.py": "1ad24e6f3725348140e5b2a59a6e564b80a2e196ebbb9638794d11abe4db5ad8",
    "04_bound_chains.py": "7d7142b1dc33d00b66c3281294b7be8e328eb46794053849cf0adab0be60fce9",
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
