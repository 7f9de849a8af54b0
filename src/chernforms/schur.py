"""Schur polynomials in Chern classes and the sampled nonnegativity engines.

For weight i and rank r, Gamma(i, r) is the set of partitions
lambda = (lambda_1 >= ... >= lambda_i >= 0) of i with every part <= r.  The
Schur polynomial attached to lambda is the Jacobi-Trudi determinant

    S_lambda(c) = det( c_{lambda_j - j + k} )_{1 <= j,k <= i}

with the conventions c_0 = 1 and c_d = 0 for d < 0 or d > r.  Special cases:
S_{(i,0,...,0)} = c_i and S_{(i-j,j,0,...,0)} = c_{i-j} c_j - c_{i-j+1} c_{j-1}.

For a curvature in factored shape the forms S_lambda(c(Omega)) are pointwise
nonnegative; ``verify_schur_nonnegativity`` sample-checks that over all
degrees and partitions of an instance.  ``bounds_chain_check`` walks the
inequality chain

    0 <= c_i <= c_lambda <= c_1^i

one factorized step at a time: each step difference is a product of Schur
forms of the shape S_{(w-j, j)} (lower chain) or c_1 c_{t-1} - c_t times
monomials (upper chain), so each step is itself a sampled nonnegativity
check, and at top degree i = n the scalar chain
0 <= top(c_n) <= top(c_lambda) <= top(c_1^n) is compared directly.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
from typing import Iterator, Optional, Sequence, Union

from .chern import ChernFormSet, chern_forms, chern_product, leibniz_det, top_coefficient
from .curvature import CurvatureTensor
from .errors import InputError
from .forms import DEFAULT_TOL, Form, VerdictReport, nonnegative_sampled
from .polynomials import Polynomial, weighted_degree
from .rng import derive_seed

#: Schur and chain-step polynomials kept per (partition, r), least recently
#: used dropped first; one ``schur verify`` and one ``bounds chain`` at
#: (n, r) = (5, 3) ask for 15 partitions each
POLY_CACHE_SIZE = 256


# ----------------------------------------------------------------------
# partitions


@dataclasses.dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of nonnegative integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p < 0 for p in parts):
            raise InputError("partition parts must be nonnegative")
        if any(parts[j] < parts[j + 1] for j in range(len(parts) - 1)):
            raise InputError("partition parts must be weakly decreasing")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def trimmed(self) -> tuple[int, ...]:
        """Parts with trailing zeros dropped."""
        end = len(self.parts)
        while end and self.parts[end - 1] == 0:
            end -= 1
        return self.parts[:end]

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self):
        inner = ",".join(str(p) for p in (self.trimmed() or (0,)))
        return f"({inner})"


def partitions(i: int, r: int) -> list[Partition]:
    """Gamma(i, r): partitions of weight i with parts <= r, zero-padded to
    length i, in descending lexicographic order."""
    if i < 0 or r < 0:
        raise InputError("partition weight and part bound must be nonnegative")
    if i == 0:
        return [Partition(())]
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, acc: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(acc) + (0,) * (i - len(acc))))
            return
        for part in range(min(max_part, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(i, min(r, i), [])
    return out


# ----------------------------------------------------------------------
# polynomials in the Chern variables


def chern_variable(d: int, r: int) -> Polynomial:
    """c_d under the standing conventions: 1 for d = 0, 0 for d < 0 or d > r."""
    if d == 0:
        return Polynomial.one(r)
    if d < 0 or d > r:
        return Polynomial.zero(r)
    return Polynomial.variable(d, r)


def schur_polynomial(lam: Union[Partition, Sequence[int]], r: int) -> Polynomial:
    """S_lambda = det(c_{lambda_j - j + k}) over rank r.

    Accepts padded or unpadded partitions (the determinant is invariant under
    zero-padding).  A part above r makes the polynomial identically zero via
    the c_{>r} = 0 convention.

    Built once per (``Partition(lam)``, r) and shared after that, so callers
    must not mutate the result.  A padded and an unpadded lambda are two
    entries: their expansions are equal but may list their terms in another
    order, and ``evaluate_on_forms`` sums in that order.
    """
    if not isinstance(lam, Partition):
        lam = Partition(tuple(lam))
    return _schur_polynomial(lam, r)


@functools.lru_cache(maxsize=POLY_CACHE_SIZE)
def _schur_polynomial(lam: Partition, r: int) -> Polynomial:
    parts = lam.parts
    size = len(parts)
    entries = [[chern_variable(parts[j] - j + k, r) for k in range(size)]
               for j in range(size)]
    return leibniz_det(entries, Polynomial.one(r), Polynomial.zero(r), operator.mul)


def evaluate_on_forms(poly: Polynomial, cs: ChernFormSet) -> Form:
    """Substitute the Chern forms of ``cs`` into a polynomial.

    Terms of graded degree above n vanish and are skipped.  In exact mode the
    result inherits the stored-prefactor convention: a weight-i homogeneous
    polynomial evaluates to (sqrt(-1))^i times the integer-coefficient form,
    with (2*pi)^(-i) left symbolic.
    """
    n = cs.n
    result = Form.zero(n, cs.mode)
    for exps, coeff in poly.terms.items():
        if weighted_degree(exps) > n:
            continue
        result = result + cs.product(coeff, [(j, e) for j, e in enumerate(exps, start=1) if e])
    return result


# ----------------------------------------------------------------------
# reports


def instance_digest(obj) -> str:
    """sha256 of the canonical JSON encoding."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class SchurCheck:
    degree: int
    partition: tuple[int, ...]
    report: VerdictReport

    def to_dict(self) -> dict:
        return {"degree": self.degree, "partition": list(self.partition),
                "report": self.report.to_dict()}


@dataclasses.dataclass(frozen=True)
class SchurReport:
    """Outcome of the full Schur-form nonnegativity sweep on one instance."""

    instance: dict
    instance_hash: str
    seed: int
    trials: int
    tol: float
    checks: tuple[SchurCheck, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "schur-nonnegativity",
            "instance": self.instance,
            "instance_hash": self.instance_hash,
            "seed": self.seed,
            "trials": self.trials,
            "tol": self.tol,
            "checks": [c.to_dict() for c in self.checks],
            "verdict": "PASS" if self.passed else "FAIL",
        }


def verify_schur_nonnegativity(tensor: CurvatureTensor,
                               degrees: Optional[Sequence[int]] = None,
                               trials: int = 50, seed: int = 0,
                               tol: float = DEFAULT_TOL) -> SchurReport:
    """Sample-check S_lambda(c(Omega)) >= 0 for every lambda in Gamma(i, r).

    ``degrees`` defaults to 1..n.  A lambda with more than m nonzero parts
    gets the zero form's report without its form being built: for the
    factor's m columns, 1/c(Omega) has degree at most m, so
    S_lambda(c(Omega)) is exactly zero there (CONVENTIONS.md).  Every
    (degree, partition) pair gets its own derived random stream, so the
    verdict does not depend on evaluation order.  The report embeds the
    instance and its hash for reproducibility.
    """
    n, r = tensor.n, tensor.r
    if degrees is None:
        degrees = range(1, n + 1)
    degrees = sorted(set(int(d) for d in degrees))
    if any(d < 1 or d > n for d in degrees):
        raise InputError(f"degrees must lie in 1..n={n}")
    cs = chern_forms(tensor)
    checks = []
    all_pass = True
    for i in degrees:
        for idx, lam in enumerate(partitions(i, r)):
            if len(lam.trimmed()) > tensor.m:
                # S_lambda(c) = (-1)^|lambda| s_lambda(y_1, ..., y_m): zero
                form = Form.zero(n)
            else:
                form = evaluate_on_forms(schur_polynomial(lam, r), cs)
            rep = nonnegative_sampled(form, trials, derive_seed(seed, 7, i, idx), tol)
            checks.append(SchurCheck(degree=i, partition=lam.parts, report=rep))
            all_pass = all_pass and rep.passed
    inst = tensor.to_json()
    return SchurReport(instance=inst, instance_hash=instance_digest(inst),
                       seed=seed, trials=trials, tol=tol,
                       checks=tuple(checks), passed=all_pass)


# ----------------------------------------------------------------------
# inequality chain


@dataclasses.dataclass(frozen=True)
class ChainStep:
    label: str
    report: VerdictReport

    def to_dict(self) -> dict:
        return {"label": self.label, "report": self.report.to_dict()}


@dataclasses.dataclass(frozen=True)
class ChainReport:
    """One partition's walk through 0 <= c_i <= c_lambda <= c_1^i."""

    partition: tuple[int, ...]
    weight: int
    steps: tuple[ChainStep, ...]
    top: Optional[dict]
    seed: int
    trials: int
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "bounds-chain",
            "partition": list(self.partition),
            "weight": self.weight,
            "steps": [s.to_dict() for s in self.steps],
            "top": self.top,
            "seed": self.seed,
            "trials": self.trials,
            "tol": self.tol,
            "verdict": "PASS" if self.passed else "FAIL",
        }


@functools.lru_cache(maxsize=POLY_CACHE_SIZE)
def chain_step_polynomials(lam: Partition, r: int) -> tuple[tuple[str, Polynomial], ...]:
    """The factorized step differences proving c_i <= c_lambda <= c_1^i.

    Lower chain: peeling parts off lambda, each comparison
    c_{w-j+1} c_{j-1} <= c_{w-j} c_j is the Schur form S_{(w-j,j)} times the
    product of parts already peeled.  Upper chain: each part lambda_a is
    raised to c_1^{lambda_a} through c_t <= c_{t-1} c_1, times the untouched
    parts.  Every returned polynomial is a product of Schur polynomials, so
    each is a sampled-nonnegativity check in its own right.  Built once per
    (lam, r), keyed on ``lam`` as passed, like ``schur_polynomial``.
    """
    parts = [p for p in lam.parts if p > 0]
    steps: list[tuple[str, Polynomial]] = []
    # lower chain: c_i -> c_lambda
    prefix = Polynomial.one(r)
    prefix_label: list[str] = []
    w = sum(parts)
    for part in parts:
        for j in range(1, min(part, w - part) + 1):
            diff = (chern_variable(w - j, r) * chern_variable(j, r)
                    - chern_variable(w - j + 1, r) * chern_variable(j - 1, r))
            label = f"c{w - j}*c{j} - c{w - j + 1}*c{j - 1}"
            if prefix_label:
                label = "*".join(prefix_label) + f" * ({label})"
            steps.append((label, prefix * diff))
        prefix = prefix * chern_variable(part, r)
        prefix_label.append(f"c{part}")
        w -= part
    # upper chain: c_lambda -> c_1^i
    done = Polynomial.one(r)
    done_exp = 0
    for a, part in enumerate(parts):
        rest = functools.reduce(operator.mul, (chern_variable(p, r) for p in parts[a + 1:]),
                                Polynomial.one(r))
        rest_label = "*".join(f"c{p}" for p in parts[a + 1:])
        for t in range(part, 1, -1):
            diff = chern_variable(1, r) * chern_variable(t - 1, r) - chern_variable(t, r)
            mult = done * rest * chern_variable(1, r) ** (part - t)
            bits = []
            if done_exp:
                bits.append(f"c1^{done_exp}")
            if rest_label:
                bits.append(rest_label)
            if part - t:
                bits.append(f"c1^{part - t}")
            label = f"c1*c{t - 1} - c{t}"
            if bits:
                label = "*".join(bits) + f" * ({label})"
            steps.append((label, mult * diff))
        done = done * chern_variable(1, r) ** part
        done_exp += part
    return tuple(steps)


def bounds_chain_check(cs: ChernFormSet, lam: Union[Partition, Sequence[int]],
                       trials: int = 50, seed: int = 0,
                       tol: float = DEFAULT_TOL, m: Optional[int] = None) -> ChainReport:
    """Sample-check every step of 0 <= c_i <= c_lambda <= c_1^i for one lambda.

    Requires a witnessed Chern set (the chain is a theorem only in factored
    shape) with weight(lambda) <= n and parts <= r.  ``m`` is the number of
    columns of the factor, if known.  Every step has a Schur factor with two
    nonzero parts, S_(w-j, j) or S_(t-1, 1), so for m < 2 every step is
    exactly zero (CONVENTIONS.md) and gets the zero form's report without
    being built.  At top weight i = n the scalar chain
    0 <= top(c_n) <= top(c_lambda) <= top(c_1^n) is also compared, within
    tol relative to the largest of the three.
    """
    if not isinstance(lam, Partition):
        lam = Partition(tuple(lam))
    if not cs.witnessed:
        raise InputError("bounds chain requires a witnessed instance (factored curvature)")
    if lam.weight > cs.n:
        raise InputError(f"partition weight {lam.weight} exceeds base dimension {cs.n}")
    if any(p > cs.r for p in lam.parts):
        raise InputError(f"partition parts must be <= r={cs.r}")
    num = cs.to_numeric()
    steps = []
    all_pass = True
    for index, (label, poly) in enumerate(chain_step_polynomials(lam, cs.r)):
        form = Form.zero(cs.n) if m is not None and m < 2 else evaluate_on_forms(poly, num)
        rep = nonnegative_sampled(form, trials, derive_seed(seed, 11, index), tol)
        steps.append(ChainStep(label=label, report=rep))
        all_pass = all_pass and rep.passed

    top = None
    if lam.weight == cs.n:
        n = cs.n
        t_cn = top_coefficient(num.form(n), tol)
        t_lam = top_coefficient(chern_product(num, lam), tol)
        t_c1n = top_coefficient(chern_product(num, (1,) * n), tol)
        scale = max(1.0, abs(t_cn), abs(t_lam), abs(t_c1n))
        ordered = (t_cn >= -tol * scale
                   and t_lam >= t_cn - tol * scale
                   and t_c1n >= t_lam - tol * scale)
        top = {"c_n": t_cn, "c_lambda": t_lam, "c_1^n": t_c1n, "passed": bool(ordered)}
        all_pass = all_pass and ordered
    return ChainReport(partition=lam.parts, weight=lam.weight, steps=tuple(steps),
                       top=top, seed=seed, trials=trials, tol=tol, passed=all_pass)
