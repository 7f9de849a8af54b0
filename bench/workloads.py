"""Seeded op pools and output oracles for the benchmark workloads.

An op is one ``chernforms.cli.run(argv)`` call.  Each workload turns the
benchmark seed into a fixed pool of ops, one *pass*; the timed loop repeats
whole passes, so the pool, and with it ``fail_ratio`` and every count,
depends on the seed alone.  The two workloads of sampled checks take their
random instances from a fixed range of CLI seeds and let the benchmark seed
set only their order: which instances false-FAIL depends on the instance,
so a range fixed across seeds shows the same false FAILs on every seed.

Oracles run outside the timed region and rest on closed forms, on theorems
about witnessed instances, or on a second route through the program (float
against exact); never on the report's own verdict alone.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import random
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from chernforms import models
from chernforms.curvature import random_exact_factor

#: a sampled check on a witnessed instance that fails with a minimum above
#: -FLOAT_NOISE * scale is the documented false FAIL: the form is a sum of
#: squares, so only float rounding can push a sample below zero
FLOAT_NOISE = 1e-6

#: relative agreement required between the exact and the float top tables
TOP_RTOL = 1e-9

M_RANGE = range(-5, 6)

# Pool sizes.  An op's time is the fastest of its runs, one run per pass, so
# small pools give each op more runs in a run of fixed length: about 40 in
# 25 s for the 6-op pools.  dim-heavy takes CLI seeds 0-15 (~3.5 s a pass,
# ~7 runs each): seed 13 is one of the documented false FAILs at (5, 3).
RANK_POOL = 6
DIM_INSTANCES = 16
EXACT_POOL = 6


@dataclasses.dataclass(frozen=True)
class Failure:
    """Why an op's output was rejected.  ``known`` marks the documented
    false FAIL of the sampled checks; anything else is unexplained."""

    reason: str
    known: bool = False


Check = Callable[[Optional[int], str], Optional[Failure]]


@dataclasses.dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check


def instance_seeds(seed: int, count: int) -> list[int]:
    """One CLI seed per instance, drawn from the benchmark seed."""
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(count)]


def shuffled(seed: int, ops: list[Op]) -> list[Op]:
    """The pool in an order drawn from the benchmark seed."""
    random.Random(seed).shuffle(ops)
    return ops


@functools.lru_cache(maxsize=None)
def count_partitions(i: int, r: int) -> int:
    """|Gamma(i, r)|: partitions of i with parts <= r."""
    if i == 0:
        return 1
    return sum(count_partitions(i - p, p) for p in range(1, min(r, i) + 1))


def _parse(code: Optional[int], text: str, kind: str):
    if code is None:
        return None, Failure(f"raised: {(text.strip().splitlines() or [''])[-1]}")
    if code == 2:
        return None, Failure("exit 2 (input rejected)")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None, Failure("report is not JSON")
    if payload.get("kind") != kind:
        return None, Failure(f"report kind {payload.get('kind')!r}, expected {kind!r}")
    return payload, None


def _sampled_verdict(code: int, payload: dict, reports: list[dict]) -> Optional[Failure]:
    """A witnessed instance must exit 0 with PASS.  A FAIL whose failing
    checks all lie within float noise of zero is the known false FAIL."""
    if code == 0 and payload["verdict"] == "PASS" and all(r["passed"] for r in reports):
        return None
    failing = [r for r in reports if not r["passed"]]
    if code == 1 and payload["verdict"] == "FAIL" and failing and all(
            r["min_value"] >= -FLOAT_NOISE * r["scale"] for r in failing):
        worst = min(r["min_value"] / (r["tol"] * r["scale"]) for r in failing)
        return Failure(f"false FAIL on a witnessed instance (margin {worst:.3g})", known=True)
    return Failure(f"witnessed instance got exit {code}, verdict {payload['verdict']}")


def _check_verify(n: int, r: int, trials: int) -> Check:
    expected = sum(count_partitions(i, r) for i in range(1, n + 1))

    def check(code, text):
        payload, bad = _parse(code, text, "schur-nonnegativity")
        if bad:
            return bad
        reports = [c["report"] for c in payload["checks"]]
        if len(reports) != expected or any(rep["trials"] != trials for rep in reports):
            return Failure(f"{len(reports)} checks, expected {expected} of {trials} trials")
        return _sampled_verdict(code, payload, reports)
    return check


def _check_chain(n: int, r: int) -> Check:
    expected = count_partitions(n, r)

    def check(code, text):
        payload, bad = _parse(code, text, "bounds-chains")
        if bad:
            return bad
        chains = payload["chains"]
        if len(chains) != expected:
            return Failure(f"{len(chains)} chains, expected {expected}")
        for chain in chains:
            top = chain["top"]
            t_cn, t_lam, t_c1n = top["c_n"], top["c_lambda"], top["c_1^n"]
            slack = 1e-9 * max(1.0, abs(t_cn), abs(t_lam), abs(t_c1n))
            if not (t_cn >= -slack and t_lam >= t_cn - slack and t_c1n >= t_lam - slack):
                return Failure(f"top chain out of order for {chain['partition']}")
        reports = [s["report"] for chain in chains for s in chain["steps"]]
        return _sampled_verdict(code, payload, reports)
    return check


# ----------------------------------------------------------------------
# closed forms for the product models


def _binomial(top: int, k: int) -> Fraction:
    """Generalized C(top, k) = top (top-1) ... (top-k+1) / k!, any integer top."""
    value = Fraction(1)
    for t in range(k):
        value *= Fraction(top - t, t + 1)
    return value


def _proj(model) -> tuple[list[int], bool]:
    dims = [k for kind, k in model.factors if kind == "CP"]
    return dims, any(kind == "T" for kind, _ in model.factors)


def _chi(model, degrees: list[int], m: int) -> Fraction:
    """chi(M, O(d_1 m, ..., d_s m)) = prod_j C(d_j m + k_j, k_j); 0 with a torus."""
    dims, torus = _proj(model)
    if torus:
        return Fraction(0)
    return math.prod((_binomial(d * m + k, k) for d, k in zip(degrees, dims)), start=Fraction(1))


def _c1_power(model) -> int:
    """c_1^n[M] = n! prod_j (k_j + 1)^k_j / k_j!; 0 with a torus."""
    dims, torus = _proj(model)
    if torus:
        return 0
    value = Fraction(math.factorial(model.dim))
    for k in dims:
        value *= Fraction((k + 1) ** k, math.factorial(k))
    return int(value)


def _check_rr(model, degrees: list[int]) -> Check:
    expected = [{"m": m, "chi": int(_chi(model, degrees, m))} for m in M_RANGE]
    leading = Fraction((-1) ** model.dim * _c1_power(model), math.factorial(model.dim))

    def check(code, text):
        payload, bad = _parse(code, text, "model-rr")
        if bad:
            return bad
        if code != 0 or payload["chi"] != expected:
            return Failure(f"chi table differs from prod_j C(d_j m + k_j, k_j) on {model.label}")
        if Fraction(payload["kodaira_leading"]) != leading:
            return Failure(f"kodaira_leading {payload['kodaira_leading']} != {leading}")
        return None
    return check


def _check_model_bounds(model, signed: bool) -> Check:
    dims, torus = _proj(model)
    n = model.dim
    sign = (-1) ** n if signed else 1
    euler = 0 if torus else sign * math.prod(k + 1 for k in dims)
    top = (n,) + (0,) * (n - 1)
    c1n = sign * _c1_power(model)

    def check(code, text):
        payload, bad = _parse(code, text, "model-bounds")
        if bad:
            return bad
        numbers = {tuple(e["partition"]): e["value"] for e in payload["numbers"]}
        if code != 0 or payload["verdict"] != "PASS":
            return Failure(f"model bounds on {model.label}: exit {code}")
        if len(numbers) != count_partitions(n, n):
            return Failure(f"{len(numbers)} Chern numbers, expected {count_partitions(n, n)}")
        if numbers.get(top) != euler or numbers.get((1,) * n) != c1n:
            return Failure(f"c_n or c_1^n of {model.label} differs from the closed form")
        return None
    return check


# ----------------------------------------------------------------------
# exact curvature instances


def _gaussian_factor(seed: int) -> np.ndarray:
    """random_exact_factor(4, 3, 3, seed) as a Gaussian-integer array a[p, i, k]."""
    factor = random_exact_factor(4, 3, 3, seed=seed)
    a = np.zeros((factor.n, factor.r, factor.m), dtype=complex)
    for i, row in enumerate(factor.entries):
        for k, entry in enumerate(row):
            for p in range(factor.n):
                c = entry.terms.get((1 << p, 0))
                if c is not None:
                    a[p, i, k] = complex(int(c.re), int(c.im))
    return a


def _omega_literal(a: np.ndarray) -> dict:
    """Omega_ij = sum_k A_ik ^ conj(A_jk) as Form literals: the coefficient of
    dz^p ^ dzbar^q is sum_k a[p,i,k] conj(a[q,j,k]), already in canonical
    order.  Entries are Gaussian integers, written as JSON integers."""
    n, r, _ = a.shape
    coeff = np.einsum("pik,qjk->ijpq", a, a.conj())
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            terms = [{"dz": [p + 1], "dzbar": [q + 1],
                      "re": int(coeff[i, j, p, q].real), "im": int(coeff[i, j, p, q].imag)}
                     for p in range(n) for q in range(n) if coeff[i, j, p, q] != 0]
            row.append({"n": n, "terms": terms})
        rows.append(row)
    return {"omega": rows}


def _tensor_literal(a: np.ndarray) -> dict:
    n, r, m = a.shape
    return {"n": n, "r": r, "m": m,
            "T": [[[{"re": int(z.real), "im": int(z.imag)} for z in row] for row in plane]
                  for plane in a]}


def _check_exact_build(tensor_path: str, run_op) -> Check:
    def check(code, text):
        payload, bad = _parse(code, text, "curvature")
        if bad:
            return bad
        if code != 0 or payload["mode"] != "exact":
            return Failure(f"exact build: exit {code}, mode {payload['mode']}")
        f_code, f_text = run_op(("curvature", "build", "--instance", tensor_path))
        reference, bad = _parse(f_code, f_text, "curvature")
        if bad:
            return Failure(f"float reference build: {bad.reason}")
        exact = payload["top"]
        floats = reference["top"]
        if [t["partition"] for t in exact] != [t["partition"] for t in floats]:
            return Failure("exact and float top tables list different partitions")
        for e, f in zip(exact, floats):
            if abs(e["top"] - f["top"]) > TOP_RTOL * max(abs(e["top"]), abs(f["top"])):
                return Failure(f"top {e['partition']}: exact {e['top']} vs float {f['top']}")
        values = [t["top"] for t in exact]
        slack = TOP_RTOL * max(abs(v) for v in values)
        if any(b < a - slack for a, b in zip(values, values[1:])):
            return Failure("top table decreases in partition order")
        return None
    return check


# ----------------------------------------------------------------------
# pools


def rank_heavy(seed: int, workdir: str, run_op) -> list[Op]:
    n, r = 4, 5
    check = _check_verify(n, r, trials=50)
    return shuffled(seed, [
        Op(("schur", "verify", "--random", "--n", str(n), "--r", str(r), "--seed", str(s)), check)
        for s in range(RANK_POOL)])


def dim_heavy(seed: int, workdir: str, run_op) -> list[Op]:
    n, r = 5, 3
    verify, chain = _check_verify(n, r, trials=50), _check_chain(n, r)
    ops = []
    for s in range(DIM_INSTANCES):
        shape = ("--random", "--n", str(n), "--r", str(r), "--seed", str(s))
        ops.append(Op(("schur", "verify") + shape, verify))
        ops.append(Op(("bounds", "chain") + shape, chain))
    return shuffled(seed, ops)


def exact_build(seed: int, workdir: str, run_op) -> list[Op]:
    ops = []
    for idx, s in enumerate(instance_seeds(seed, EXACT_POOL)):
        a = _gaussian_factor(s)
        omega_path = os.path.join(workdir, f"omega-{idx}.json")
        tensor_path = os.path.join(workdir, f"tensor-{idx}.json")
        for path, obj in ((omega_path, _omega_literal(a)), (tensor_path, _tensor_literal(a))):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        ops.append(Op(("curvature", "build", "--mode", "exact", "--instance", omega_path),
                      _check_exact_build(tensor_path, run_op)))
    return ops


def model_rr(seed: int, workdir: str, run_op) -> list[Op]:
    ops = []
    for model in models.CATALOG:
        dims, torus = _proj(model)
        base = ("--model", model.label, "--seed", str(seed))
        canonical = [-(k + 1) for k in dims]
        ops.append(Op(("model", "rr", "--line", "K", "--m=-5..5") + base,
                      _check_rr(model, canonical)))
        line = "O(" + ",".join("1" * len(dims)) + ")"
        ops.append(Op(("model", "rr", "--line", line, "--m=-5..5") + base,
                      _check_rr(model, [1] * len(dims))))
        signed = torus and not dims
        ops.append(Op(("model", "bounds") + base + (("--signed",) if signed else ()),
                      _check_model_bounds(model, signed)))
    return shuffled(seed, ops)


#: workload name -> pool builder(seed, workdir, run_op)
WORKLOADS = {
    "rank-heavy": rank_heavy,
    "dim-heavy": dim_heavy,
    "exact-build": exact_build,
    "model-rr": model_rr,
}
