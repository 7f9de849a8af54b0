"""sha256 digests of CLI reports over fixed op sets, to compare two checkouts.

Run it from the root of a checkout:

    PYTHONPATH=src python3 tests/cli_digests.py

Each output line names an op set, its number of ops and the digest of every
op's stdout and exit code, in order (``test_byte_identity.cli_digest``).  Two
checkouts that print the same lines print the same bytes on every op.  Input
files go to a temporary directory, and no report prints their paths.  The
lines are compared with ``cli_digests.expected`` next to this file; the
script exits 1, naming each set that differs, unless all of them match.
Lines of that file that start with ``#`` are comments.

* ``core`` (365 ops): every op of the four benchmark pools at benchmark seed
  701 (77 ops, built by ``bench/workloads.py``, which is only read), then, for
  n, r <= 5 with n * r <= 20 and CLI seeds 0-2 (288 ops): ``schur verify``
  and ``bounds chain`` on ``--random`` instances, ``curvature build`` on the
  same tensors, and ``curvature build --mode exact`` on the curvature of
  ``random_exact_factor(n, r, seed=seed)`` as Form literals.  88 of the ops
  are ``bounds chain``;
* ``core-without-bounds-chain`` (277 ops): the same list without them;
* ``schur-table`` (84 ops): ``--i 0..6 --r 0..5``, JSON and text;
* ``models`` (154 ops): ``model rr`` with K, O, O(1,...,1) and O(2,...,2) at
  ``--m=-5..5``, ``model bounds`` with and without ``--signed``, and
  ``model chern-numbers``, on every ``CATALOG`` model, JSON and text.

This file is a script, not a test module: pytest does not collect it.
``test_byte_identity`` runs the ``schur-table`` and ``models`` sets against
their expected lines on every test run.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

from chernforms import CATALOG, bott_chern_curvature, random_exact_factor, random_tensor

from test_byte_identity import cli_digest

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: the four lines every checkout must print
EXPECTED = Path(__file__).resolve().parent / "cli_digests.expected"

#: benchmark seed of the pools in ``core``
POOL_SEED = 701


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def core_ops(workdir: str) -> list[list[str]]:
    workloads = _bench_workloads()
    ops = []
    for name, build in workloads.WORKLOADS.items():
        pool_dir = os.path.join(workdir, name)
        os.mkdir(pool_dir)
        # the oracles are never run here, so the pools get no op runner
        ops += [list(op.argv) for op in build(POOL_SEED, pool_dir, None)]
    for n in range(1, 6):
        for r in range(1, 6):
            if n * r > 20:
                continue
            for seed in range(3):
                shape = ["--random", "--n", str(n), "--r", str(r), "--seed", str(seed)]
                tensor = _write(os.path.join(workdir, f"tensor-{n}-{r}-{seed}.json"),
                                random_tensor(n, r, None, seed).to_json())
                omega = bott_chern_curvature(random_exact_factor(n, r, seed=seed))
                exact = _write(os.path.join(workdir, f"omega-{n}-{r}-{seed}.json"),
                               {"omega": [[f.to_literal() for f in row]
                                          for row in omega.entries]})
                ops += [["schur", "verify"] + shape, ["bounds", "chain"] + shape,
                        ["curvature", "build", "--instance", tensor],
                        ["curvature", "build", "--mode", "exact", "--instance", exact]]
    return ops


def schur_table_ops() -> list[list[str]]:
    ops = []
    for i in range(7):
        for r in range(6):
            argv = ["schur", "table", "--i", str(i), "--r", str(r)]
            ops += [argv, argv + ["--output", "text"]]
    return ops


def model_ops() -> list[list[str]]:
    ops = []
    for model in CATALOG:
        count = len(model.proj_dims)
        base = ["--model", model.label]
        lines = ["K", "O", f"O({','.join('1' * count)})", f"O({','.join('2' * count)})"]
        for argv in ([["model", "rr", "--line", line, "--m=-5..5"] + base for line in lines]
                     + [["model", "bounds"] + base, ["model", "bounds", "--signed"] + base,
                        ["model", "chern-numbers"] + base]):
            ops += [argv, argv + ["--output", "text"]]
    return ops


def expected_lines() -> dict[str, str]:
    """The lines of ``cli_digests.expected``, by op set name."""
    return {line.split()[0]: line
            for line in EXPECTED.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")}


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        core = core_ops(workdir)
        sets = [
            ("core", core),
            ("core-without-bounds-chain", [argv for argv in core if argv[0] != "bounds"]),
            ("schur-table", schur_table_ops()),
            ("models", model_ops()),
        ]
        lines = {name: f"{name} {len(ops)} {cli_digest(ops)}" for name, ops in sets}
    for line in lines.values():
        print(line)
    expected = expected_lines()
    differ = [name for name, line in lines.items() if expected.get(name) != line]
    for name in differ:
        print(f"differs from {EXPECTED.name}: {name}", file=sys.stderr)
    if differ:
        sys.exit(1)


if __name__ == "__main__":
    main()
