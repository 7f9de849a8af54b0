"""sha256 digests of CLI reports over fixed op sets, to compare two checkouts.

Run it from the root of a checkout:

    PYTHONPATH=src python3 tests/cli_digests.py

Each output line names an op set, its number of ops and the digest of every
op's stdout and exit code, in order (``test_byte_identity.cli_digest``).
A last comment line counts the checks and the chain steps of the ``core``
reports by the ``method`` that decided them.  Two
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
* ``core-verdicts`` (365 ops): the ``core`` ops seen through
  ``verdicts_view``, which keeps of each report only its ``verdict`` and
  the ``passed`` and ``method`` of each check and each chain step, so a
  change that moves sampled values but no verdict leaves it as it is;
* ``core-passes`` (365 ops): the ``core`` ops seen through ``passes_view``,
  ``verdicts_view`` without the ``method``, so a change that moves which
  method decides a check but no verdict leaves it as it is;
* ``schur-table`` (84 ops): ``--i 0..6 --r 0..5``, JSON and text;
* ``models`` (154 ops): ``model rr`` with K, O, O(1,...,1) and O(2,...,2) at
  ``--m=-5..5``, ``model bounds`` with and without ``--signed``, and
  ``model chern-numbers``, on every ``CATALOG`` model, JSON and text;
* ``omega``: ``curvature build`` on ``omega`` literals in both modes.  For
  n, r <= 3 and CLI seeds 0-1, the float literal of the curvature of
  ``random_tensor(n, r, None, seed)``, as written and rewritten with
  repeated, cancelling, signed-zero and zero-sum off-degree terms, is built
  in float mode and in exact mode, which reads each float part exactly as a
  decimal.  Hand-written literals add exact decimal parts, sums that cancel
  in exact mode only, and literals that are refused (a nonzero sum off
  degree (1,1), base dimensions that differ, an overflowing float sum).
  Last come float builds of the Gaussian-integer tensors
  ``random_exact_factor(n, r, seed=seed)``, n, r <= 3, seeds 0-2, whose
  exact zeros and real entries give products with signed zeros;
* ``omega-values`` (109 ops): the ``omega`` ops seen through
  ``unsigned_zeros_view``, which prints every ``-0.0`` of a JSON report as
  ``0.0``, so a change that moves only the signs of zeros leaves it as it
  is;
* ``omega-wide`` (84 ops): ``curvature build --mode exact`` on Hermitian
  ``omega`` literals (``_wide_omega``) at the (n, r) of ``WIDE_SHAPES``,
  r <= 4: integer parts up to each of ``WIDE_MAGNITUDES`` (small ints to
  2^40), ten-digit decimals, small numerators over 10^10, and decimals of
  one to four digits, whose denominators differ;
* ``eval-and-text``: ``forms eval`` in float and exact mode on (p,p)-form
  literals for p = 0..3 and n = max(p, 1)..4 with decimal parts, on sparse
  literals at n = 10 for p = 2, 3 and 5, and on literals whose terms repeat,
  cancel and carry signed zeros, plus two refused evaluations; then
  ``--output text`` of ``curvature build`` (tensor and ``omega`` instances,
  both modes), ``schur verify`` and ``bounds chain``;
* ``eval-values`` (77 ops): the ``eval-and-text`` ops seen through
  ``rounded_view``, which rounds every float of a JSON report to 12
  significant digits, so a change that moves float values only in their
  last digits leaves it as it is;
* ``build-large`` (12 ops): for (n, r) in ``LARGE_SHAPES`` and CLI seeds
  0-1, ``curvature build`` on the tensor of ``random_tensor(n, r, None,
  seed)`` and ``curvature build --mode exact`` on the curvature of
  ``random_exact_factor(n, r, seed=seed)`` as Form literals: literals at
  n and p beyond the ``core`` grid, printed as they are.

This file is a script, not a test module: pytest does not collect it.
``test_byte_identity`` runs each of the thirteen sets against its expected
line on every test run.
"""

from __future__ import annotations

import collections
import importlib.util
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from chernforms import CATALOG, bott_chern_curvature, random_exact_factor, random_tensor

from test_byte_identity import cli_digest

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: the thirteen lines every checkout must print
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


def _build_inputs(workdir: str, prefix: str, n: int, r: int, seed: int) -> tuple[str, str]:
    """The paths of two ``curvature build`` inputs: the tensor file of
    ``random_tensor(n, r, None, seed)``, and the ``omega`` literal of the
    curvature of ``random_exact_factor(n, r, seed=seed)``."""
    tensor = _write(os.path.join(workdir, f"{prefix}tensor-{n}-{r}-{seed}.json"),
                    random_tensor(n, r, None, seed).to_json())
    omega = bott_chern_curvature(random_exact_factor(n, r, seed=seed))
    exact = _write(os.path.join(workdir, f"{prefix}omega-{n}-{r}-{seed}.json"),
                   {"omega": [[f.to_literal() for f in row] for row in omega.entries]})
    return tensor, exact


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
                tensor, exact = _build_inputs(workdir, "", n, r, seed)
                ops += [["schur", "verify"] + shape, ["bounds", "chain"] + shape,
                        ["curvature", "build", "--instance", tensor],
                        ["curvature", "build", "--mode", "exact", "--instance", exact]]
    return ops


def _rewritten(literal: dict) -> dict:
    """The same (1,1)-form literal with every term written as itself, its
    negation and itself again (the sum cancels and the term comes back),
    a real term's zero imaginary part written as -0.0, and two off-degree
    terms that read as zero: one with a zero coefficient and one that
    cancels."""
    terms = [{"dz": [1], "dzbar": [], "re": 0, "im": 0},
             {"dz": [1], "dzbar": [], "re": 1.5, "im": -2.5},
             {"dz": [1], "dzbar": [], "re": -1.5, "im": 2.5}]
    for term in literal["terms"]:
        negated = dict(term, re=-term["re"], im=-term["im"])
        last = dict(term, im=-0.0) if term["im"] == 0 else term
        terms += [term, negated, last]
    return {"n": literal["n"], "terms": terms}


def _cell(n: int, *terms) -> dict:
    return {"n": n, "terms": [{"dz": dz, "dzbar": dzbar, "re": re, "im": im}
                              for dz, dzbar, re, im in terms]}


#: hand-written omega matrices: exact decimal parts, repeated terms, sums
#: that cancel exactly only in exact mode, and three refused inputs
OMEGA_LITERALS = [
    [[_cell(2, ([1], [1], 0.5, 0), ([2], [1], 0.05, 0.1), ([1], [1], 0.25, 0),
            ([2], [2], 1.1, 0), ([1], [2], 0.1, -0.3), ([2], [1], 0.05, 0.2)),
      _cell(2, ([1], [2], 0.2, 0.1))],
     [_cell(2, ([2], [1], 0.2, -0.1)),
      _cell(2, ([2], [2], 0.1, 0), ([2], [2], 0.2, 0), ([2], [2], -0.3, 0),
            ([1], [1], 3, 0))]],
    [[_cell(3, ([1], [1], 1, 0), ([2], [2], 2, 0), ([3], [3], 0.125, 0),
            ([1], [3], 7, 7), ([1], [3], -7, -7), ([2], [3], 0.3, 0))]],
    [[_cell(2, ([1], [], 0.1, 0), ([1], [], 0.2, 0), ([1], [], -0.3, 0),
            ([1], [1], 1, 0))]],
    [[_cell(2, ([1], [1], 1, 0)), _cell(2)], [_cell(3), _cell(2, ([2], [2], 1, 0))]],
    [[_cell(1, ([1], [1], 1e308, 0), ([1], [1], 1e308, 0))]],
]


def omega_ops(workdir: str) -> list[list[str]]:
    ops = []
    paths = []
    for n in range(1, 4):
        for r in range(1, 4):
            for seed in range(2):
                omega = bott_chern_curvature(random_tensor(n, r, None, seed))
                rows = [[f.to_literal() for f in row] for row in omega.entries]
                for rewrite, cells in (("plain", rows),
                                       ("rewritten", [[_rewritten(c) for c in row]
                                                      for row in rows])):
                    paths.append(_write(os.path.join(
                        workdir, f"omega-float-{n}-{r}-{seed}-{rewrite}.json"), {"omega": cells}))
    paths += [_write(os.path.join(workdir, f"omega-hand-{idx}.json"), {"omega": rows})
              for idx, rows in enumerate(OMEGA_LITERALS)]
    for path in paths:
        for mode in ("float", "exact"):
            ops.append(["curvature", "build", "--mode", mode, "--instance", path])
    for n in range(1, 4):
        for r in range(1, 4):
            for seed in range(3):
                path = _write(os.path.join(workdir, f"integer-tensor-{n}-{r}-{seed}.json"),
                              random_exact_factor(n, r, seed=seed).to_json())
                ops.append(["curvature", "build", "--instance", path])
    return ops


#: (n, r) shapes of the ``omega-wide`` literals
WIDE_SHAPES = ((1, 1), (2, 2), (3, 2), (3, 3), (4, 4), (2, 4), (5, 4))

#: largest |part| of the integer ``omega-wide`` literals: small ints, powers
#: of two on either side of the int64 bound of the exact Laplace route
#: (``chern._fits_int64``) at r = 4, 3 and 2, then 2^31 and 2^40; with the
#: decimals, 41 of the 84 builds take int64 and 43 Python ints
WIDE_MAGNITUDES = (9, 2 ** 11, 2 ** 12, 2 ** 17, 2 ** 18, 2 ** 28, 2 ** 30, 2 ** 31, 2 ** 40)


def _wide_omega(rng, n: int, r: int, draw) -> list:
    """An r x r Hermitian ``omega`` literal on n directions: the dz^p ^ dzbar^q
    coefficient of cell (i, j) is entry (i n + p, j n + q) of an nr x nr
    Hermitian matrix whose parts ``draw(rng)`` gives, a quarter of those
    off the diagonal zero, and whose diagonal is real."""
    size = n * r
    h = [[(0, 0)] * size for _ in range(size)]
    for a in range(size):
        h[a][a] = (draw(rng), 0)
        for b in range(a + 1, size):
            re, im = (draw(rng) if rng.random() >= 0.25 else 0 for _ in range(2))
            h[a][b], h[b][a] = (re, im), (re, -im)
    return [[{"n": n, "terms": [{"dz": [p + 1], "dzbar": [q + 1],
                                 "re": h[i * n + p][j * n + q][0],
                                 "im": h[i * n + p][j * n + q][1]}
                                for p in range(n) for q in range(n)
                                if h[i * n + p][j * n + q] != (0, 0)]}
             for j in range(r)] for i in range(r)]


def omega_wide_ops(workdir: str) -> list[list[str]]:
    rng = np.random.default_rng(4040)
    draws = [(f"int-{magnitude}",
              lambda rng, m=magnitude: int(rng.integers(-m, m, endpoint=True)))
             for magnitude in WIDE_MAGNITUDES]
    draws += [
        # ten decimal digits: one denominator of up to 10^10
        ("decimal", lambda rng: round(float(rng.uniform(-1, 1)), 10)),
        # small numerators over 10^10
        ("tiny", lambda rng: int(rng.integers(-9, 9, endpoint=True)) / 10 ** 10),
        # one to four decimal digits: denominators that differ
        ("mixed", lambda rng: round(float(rng.uniform(-9, 9)), int(rng.integers(1, 5)))),
    ]
    ops = []
    for name, draw in draws:
        for n, r in WIDE_SHAPES:
            path = _write(os.path.join(workdir, f"omega-wide-{name}-{n}-{r}.json"),
                          {"omega": _wide_omega(rng, n, r, draw)})
            ops.append(["curvature", "build", "--mode", "exact", "--instance", path])
    return ops


#: (n, r) shapes of the ``build-large`` instances
LARGE_SHAPES = ((6, 4), (7, 3), (8, 2))


def build_large_ops(workdir: str) -> list[list[str]]:
    ops = []
    for n, r in LARGE_SHAPES:
        for seed in range(2):
            tensor, exact = _build_inputs(workdir, "large-", n, r, seed)
            ops += [["curvature", "build", "--instance", tensor],
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


def _decimal_scalar(rng) -> dict:
    """A scalar with parts rounded to three decimals, which exact mode reads
    as the decimals they print as."""
    return {"re": round(float(rng.normal()), 3), "im": round(float(rng.normal()), 3)}


def _pp_literal(rng, n: int, p: int, count: int) -> dict:
    """A (p,p)-form literal on n directions with ``count`` terms on random
    index sets, repeats allowed."""
    terms = []
    for _ in range(count):
        dz, dzbar = (sorted(int(j) + 1 for j in rng.choice(n, p, replace=False))
                     for _ in range(2))
        terms.append({"dz": dz, "dzbar": dzbar, **_decimal_scalar(rng)})
    return {"n": n, "terms": terms}


def _vectors(rng, n: int, p: int) -> list:
    return [[_decimal_scalar(rng) for _ in range(n)] for _ in range(p)]


def eval_and_text_ops(workdir: str) -> list[list[str]]:
    rng = np.random.default_rng(2024)
    cases = []
    for p in range(4):
        for n in range(max(p, 1), 5):
            cases.append((_pp_literal(rng, n, p, 1 + math.comb(n, p)), _vectors(rng, n, p)))
    for p in (2, 3, 5):
        cases.append((_pp_literal(rng, 10, p, 3), _vectors(rng, 10, p)))
    # repeated terms that cancel to zero (the key is dropped and put back
    # at the end), -0.0 parts in the literal and in the vectors, and a
    # coefficient that sums to zero
    cancelling = [
        {"dz": [1, 2], "dzbar": [1, 3], "re": 0.1, "im": -0.0},
        {"dz": [2, 3], "dzbar": [2, 3], "re": 0.25, "im": 0.5},
        {"dz": [1, 2], "dzbar": [1, 3], "re": -0.1, "im": 0.0},
        {"dz": [1, 3], "dzbar": [1, 2], "re": -0.0, "im": 1.5},
        {"dz": [1, 2], "dzbar": [1, 3], "re": 0.3, "im": 0.2},
        {"dz": [2, 3], "dzbar": [2, 3], "re": -0.25, "im": -0.5},
        {"dz": [1, 2], "dzbar": [1, 2], "re": 0.1, "im": 0.2},
        {"dz": [1, 2], "dzbar": [1, 2], "re": 0.2, "im": -0.2},
        {"dz": [1, 2], "dzbar": [1, 2], "re": -0.3, "im": 0.0},
    ]
    signed = [[{"re": -0.0, "im": 0.5}, {"re": 1.25, "im": -0.0}, {"re": 0.0, "im": -0.0}],
              [{"re": 0.75, "im": -0.0}, {"re": -0.0, "im": -0.0}, {"re": -2.5, "im": 0.125}]]
    cases.append(({"n": 3, "terms": cancelling}, signed))
    cases.append(({"n": 3, "terms": cancelling[:3]}, signed))
    cases.append(({"n": 2, "terms": [{"dz": [1], "dzbar": [1], "re": -0.0, "im": -0.0}]},
                  [[{"re": 1, "im": 0}, {"re": -0.0, "im": 2}]]))
    # refused: a form that is not (p,p), and too few vectors
    cases.append(({"n": 2, "terms": [{"dz": [1], "dzbar": [], "re": 1, "im": 0}]},
                  [[{"re": 1}, {"im": 1}]]))
    cases.append((_pp_literal(rng, 3, 2, 2), _vectors(rng, 3, 1)))
    ops = []
    for idx, (literal, vectors) in enumerate(cases):
        form = _write(os.path.join(workdir, f"eval-form-{idx}.json"), literal)
        vecs = _write(os.path.join(workdir, f"eval-vectors-{idx}.json"), vectors)
        for mode in ("float", "exact"):
            ops.append(["forms", "eval", "--mode", mode, "--form", form, "--vectors", vecs])
    text = ["--output", "text"]
    for n, r, seed in ((1, 1, 0), (2, 3, 1), (3, 2, 2), (4, 3, 0), (3, 4, 1)):
        tensor, exact = _build_inputs(workdir, "text-", n, r, seed)
        shape = ["--random", "--n", str(n), "--r", str(r), "--seed", str(seed)]
        ops += [["curvature", "build", "--instance", tensor] + text,
                ["curvature", "build", "--mode", "exact", "--instance", exact] + text,
                ["curvature", "build", "--instance", exact] + text,
                ["schur", "verify"] + shape + text,
                ["bounds", "chain"] + shape + text,
                ["schur", "verify", "--instance", tensor, "--trials", "7"] + text,
                ["bounds", "chain", "--instance", tensor, "--trials", "7"] + text]
    return ops


def _reduced(out: str, fields: tuple[str, ...]) -> str:
    """A JSON report reduced to ``verdict`` and the ``fields`` of each check
    and of each step of each chain, in order.  A report with none of them
    reduces to nulls and empty lists; output that is not a JSON report
    passes through as printed."""
    if not out.startswith("{"):
        return out
    payload = json.loads(out)

    def verdict(report: dict) -> list:
        return [report[field] for field in fields]
    return json.dumps({
        "verdict": payload.get("verdict"),
        "checks": [verdict(c["report"]) for c in payload.get("checks", ())],
        "chains": [[verdict(s["report"]) for s in chain["steps"]]
                   for chain in payload.get("chains", ())],
    })


def verdicts_view(out: str) -> str:
    """A JSON report reduced to ``verdict``, and ``passed`` and ``method`` of
    each check and of each chain step."""
    return _reduced(out, ("passed", "method"))


def passes_view(out: str) -> str:
    """A JSON report reduced to ``verdict``, and ``passed`` of each check and
    of each chain step: ``verdicts_view`` without the method."""
    return _reduced(out, ("passed",))


def tops_view(out: str) -> str:
    """A JSON report reduced to its top values: the ``top`` table of a
    ``curvature build`` and the ``top`` of each chain, in order.  A report
    with neither reduces to a null and an empty list; output that is not a
    JSON report passes through as printed."""
    if not out.startswith("{"):
        return out
    payload = json.loads(out)
    return json.dumps({"top": payload.get("top"),
                       "chains": [chain["top"] for chain in payload.get("chains", ())]})


def _floats_view(out: str, parse_float) -> str:
    """A JSON report with each float read through ``parse_float``; output
    that is not a JSON report passes through as printed."""
    if not out.startswith("{"):
        return out
    return json.dumps(json.loads(out, parse_float=parse_float), sort_keys=True, indent=2)


def unsigned_zeros_view(out: str) -> str:
    """A JSON report with every -0.0 printed as 0.0."""
    return _floats_view(out, lambda text: float(text) + 0.0)


def rounded_view(out: str) -> str:
    """A JSON report with every float rounded to 12 significant digits."""
    return _floats_view(out, lambda text: float(f"{float(text):.12g}"))


#: op set name -> the view its digest sees the output through, when not as
#: printed
VIEWS = {"core-verdicts": verdicts_view, "core-passes": passes_view,
         "core-tops": tops_view, "omega-values": unsigned_zeros_view, "eval-values": rounded_view}


class MethodTally:
    """A view that returns its input unchanged and counts, over the JSON reports
    it sees, the checks and the chain steps each ``method`` decided."""

    def __init__(self):
        self.checks: collections.Counter = collections.Counter()
        self.steps: collections.Counter = collections.Counter()

    def __call__(self, out: str) -> str:
        if out.startswith("{"):
            payload = json.loads(out)
            self.checks.update(c["report"]["method"] for c in payload.get("checks", ()))
            self.steps.update(s["report"]["method"] for chain in payload.get("chains", ())
                              for s in chain["steps"])
        return out

    def line(self, name: str) -> str:
        def counts(counter):
            return ", ".join(f"{method} {count}" for method, count in sorted(counter.items()))
        return f"# {name} methods: checks {counts(self.checks)}; steps {counts(self.steps)}"


def expected_lines() -> dict[str, str]:
    """The lines of ``cli_digests.expected``, by op set name."""
    return {line.split()[0]: line
            for line in EXPECTED.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")}


def op_sets(workdir: str) -> dict[str, list[list[str]]]:
    """The thirteen op sets by name, in the order of the expected lines;
    the ``core``, ``omega``, ``omega-wide``, ``eval-and-text`` and
    ``build-large`` ops read input files written to ``workdir``."""
    core, omega, evals = core_ops(workdir), omega_ops(workdir), eval_and_text_ops(workdir)
    return {
        "core": core,
        "core-without-bounds-chain": [argv for argv in core if argv[0] != "bounds"],
        "core-verdicts": core,
        "core-passes": core,
        "core-tops": core,
        "schur-table": schur_table_ops(),
        "models": model_ops(),
        "omega": omega,
        "omega-values": omega,
        "omega-wide": omega_wide_ops(workdir),
        "eval-and-text": evals,
        "eval-values": evals,
        "build-large": build_large_ops(workdir),
    }


def main() -> None:
    tally = MethodTally()
    with tempfile.TemporaryDirectory() as workdir:
        # core is printed as it is, so the tally stands in for no view
        lines = {name: f"{name} {len(ops)} "
                       f"{cli_digest(ops, tally if name == 'core' else VIEWS.get(name))}"
                 for name, ops in op_sets(workdir).items()}
    for line in lines.values():
        print(line)
    print(tally.line("core"))
    expected = expected_lines()
    differ = [name for name, line in lines.items() if expected.get(name) != line]
    for name in differ:
        print(f"differs from {EXPECTED.name}: {name}", file=sys.stderr)
    if differ:
        sys.exit(1)


if __name__ == "__main__":
    main()
