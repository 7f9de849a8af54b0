"""Schur polynomials in Chern classes and the nonnegativity sweeps.

For weight i and rank r, Gamma(i, r) is the set of partitions
lambda = (lambda_1 >= ... >= lambda_i >= 0) of i with every part <= r.  The
Schur polynomial attached to lambda is the Jacobi-Trudi determinant

    S_lambda(c) = det( c_{lambda_j - j + k} )_{1 <= j,k <= i}

with the conventions c_0 = 1 and c_d = 0 for d < 0 or d > r.  Special cases:
S_{(i,0,...,0)} = c_i and S_{(i-j,j,0,...,0)} = c_{i-j} c_j - c_{i-j+1} c_{j-1}.

For a curvature in factored shape the forms S_lambda(c(Omega)) are pointwise
nonnegative; ``verify_schur_nonnegativity`` checks that over all degrees
and partitions of an instance.  ``bounds_chain_check`` walks the
inequality chain

    0 <= c_i <= c_lambda <= c_1^i

one factorized step at a time: each step difference is a product of Schur
forms of the shape S_{(w-j, j)} (lower chain) or c_1 c_{t-1} - c_t times
monomials (upper chain), so each step is itself a nonnegativity check, and
at top degree i = n the scalar chain
0 <= top(c_n) <= top(c_lambda) <= top(c_1^n) is compared directly.

Each form of degree p on n directions is decided by the strongest evidence
its degree allows (``_decided_on_one_batch``): at p in {1, n-1, n} every
p-vector is decomposable, so nonnegativity is the PSD-ness of the form's
block, read from its one coefficient at p = n and from its least
eigenvalue at p = 1 and p = n-1 (``nonnegative_psd``), with no
sampling.  The other degrees are sampled.  Every statement here is
pointwise, so the sampled checks of one degree, and the sampled steps of
one chain, are all evaluated on one shared ``TupleBatch``: one seeded
draw, and one pass for its minors, per degree or per chain.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import operator
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .chern import ChernFormSet, chern_forms, chern_product, top_coefficient
from .curvature import CurvatureTensor
from .errors import InputError
from .forms import (
    DEFAULT_TOL,
    Form,
    PPForm,
    TupleBatch,
    VerdictReport,
    _check_arguments,
    _minor,
    _real_float,
    _zero_report,
    nonnegative_sampled,
)
from .polynomials import Polynomial, weighted_degree
from .rng import derive_seed
from .scalars import scalar_json

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
        if any(isinstance(p, bool) for p in self.parts):
            raise InputError("partition parts must be integers, not bools")
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


@functools.lru_cache(maxsize=POLY_CACHE_SIZE)
def partitions(i: int, r: int) -> tuple[Partition, ...]:
    """Gamma(i, r): partitions of weight i with parts <= r, zero-padded to
    length i, in descending lexicographic order.  Kept per (i, r), like the
    Schur polynomials; the tuple and its partitions are immutable, so every
    caller shares them."""
    if i < 0 or r < 0:
        raise InputError("partition weight and part bound must be nonnegative")
    if i == 0:
        return (Partition(()),)
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
    return tuple(out)


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

    Built once per (``Partition(lam).trimmed()``, r), from the trimmed
    parts, and shared after that, so callers must not mutate the result.
    """
    if not isinstance(lam, Partition):
        lam = Partition(tuple(lam))
    return _schur_polynomial(lam.trimmed(), r)


@functools.lru_cache(maxsize=POLY_CACHE_SIZE)
def _schur_polynomial(parts: tuple[int, ...], r: int) -> Polynomial:
    """The Jacobi-Trudi determinant by ``forms._minor``, the package's one
    determinant, over polynomials: expanded along the last row, each minor
    computed once, with a zero c_d held as None so that it prunes its
    sub-minor.  The walk fixes the term order (see ``polynomials``)."""
    rows = tuple(range(len(parts)))
    if not rows:
        return Polynomial.one(r)
    entries = [[chern_variable(parts[j] - j + k, r) or None for k in rows] for j in rows]
    return _minor(entries, rows, rows, {}, operator.mul) or Polynomial.zero(r)


def evaluate_on_forms(poly: Polynomial, cs: ChernFormSet) -> PPForm:
    """Substitute the Chern forms of ``cs`` into a homogeneous polynomial.

    A weight-i polynomial gives an (i,i)-block, summed in term order, each
    term ``cs.product`` of its parts, largest first, times its coefficient;
    the zero polynomial gives the (0,0) zero, and a weight above n the zero
    form.  In exact mode the result inherits the stored-prefactor
    convention: a weight-i polynomial evaluates to (sqrt(-1))^i times the
    integer-coefficient form, with (2*pi)^(-i) left symbolic.
    """
    weights = {weighted_degree(exps) for exps in poly.terms}
    if len(weights) > 1:
        raise InputError(f"evaluation on forms needs a homogeneous polynomial, "
                         f"got weights {sorted(weights)}")
    degree = weights.pop() if weights else 0
    result = PPForm.zero(cs.n, degree, cs.mode)
    if degree > cs.n:
        return result
    for exps, coeff in poly.terms.items():
        term = cs.product([j for j in range(len(exps), 0, -1) for _ in range(exps[j - 1])])
        result = result + (term if coeff == 1 else term.scale(coeff))
    return result


# ----------------------------------------------------------------------
# deciding one form


def _decided_by_block(p: int, n: int) -> bool:
    """Whether ``nonnegative_psd`` decides a (p,p)-form on n directions:
    p in {1, n-1, n}, the degrees where every p-vector is decomposable."""
    return p >= 1 and p in (1, n - 1, n)


def _hyperplane(minors: np.ndarray) -> np.ndarray:
    """Orthonormal rows X_1, ..., X_{n-1} whose (n-1) x (n-1) minors, in
    ``combinations`` order, are the unit vector ``minors`` up to a phase.

    Expanding det[z; X] along z, the minor without column k enters with the
    sign (-1)^k, and the minors' entry b leaves out column n-1-b; the rows
    span the kernel of that functional c.  Orthonormal rows have a unit
    Pluecker vector (Cauchy-Binet), which is a multiple of ``minors``."""
    c = minors[::-1] * (-1.0) ** np.arange(len(minors))
    # z -> c . z vanishes on conj(Vh[k]) for k >= 1
    return np.linalg.svd(c[None, :])[2][1:].conj()


def nonnegative_psd(form: Union[PPForm, Form], trials: int = 50, seed: int = 0,
                    tol: float = DEFAULT_TOL) -> VerdictReport:
    """Decide pointwise nonnegativity of a real (p,p)-form on n directions,
    p in {1, n-1, n}, without sampling.

    On a tuple with minors d the form's value is v^* A v, v = conj(d) and
    A = (-sqrt(-1))^(p^2) H.  At these degrees every p-vector is
    decomposable, so d ranges over all of C^(C(n,p)), and the form is
    nonnegative iff the Hermitian part of A is positive semidefinite.  At
    p = n, A is 1 x 1 and its entry is the form's value on the standard
    frame, the top coefficient of ``chern.top_coefficient``: method
    ``"top-coefficient"``, with the standard frame as the witness of a FAIL.
    At p in {1, n-1}, ``min_value`` is the least eigenvalue of the Hermitian
    part (``eigvalsh``): method ``"psd"``, with the tuple of unit minors
    along its eigenvector as the witness of a FAIL, the vector itself at
    p = 1 and an orthonormal basis of its hyperplane at p = n-1.  Either
    witness evaluates to ``min_value``.

    Makes the checks of ``nonnegative_sampled`` and passes on the same
    condition, min_value >= -tol * scale; ``trials`` and ``seed`` are only
    reported, and ``max_imag`` is the largest imaginary coefficient.  An
    exactly zero form passes with method ``"exact-zero"``; another degree is
    refused.
    """
    _check_arguments(trials, tol)
    if form.is_zero():
        return _zero_report(trials, seed, tol)
    f, scale, imag_norm = _real_float(form, tol)
    p, n = f.p, f.n
    if not _decided_by_block(p, n):
        raise InputError(f"a ({p},{p})-form on n={n} is decided by sampling, not by "
                         f"its block: p must be 1, n-1 or n")
    a = (-1j) ** (p * p % 4) * f.block
    if p == n:
        method, min_value, frame = "top-coefficient", float(a[0, 0].real), np.eye(n)
    else:
        method = "psd"
        herm = 0.5 * a + 0.5 * a.conj().T
        min_value = float(np.linalg.eigvalsh(herm)[0])
    if not math.isfinite(min_value):
        raise InputError(f"least eigenvalue overflows: {min_value}")
    passed = bool(min_value >= -tol * scale)
    if not passed and method == "psd":
        minors = np.linalg.eigh(herm)[1][:, 0].conj()
        frame = minors[None, :] if p == 1 else _hyperplane(minors)
    return VerdictReport(
        passed=passed,
        min_value=min_value,
        trials=trials,
        seed=seed,
        tol=tol,
        scale=scale,
        degree=p,
        witness=None if passed else [[scalar_json(z) for z in vec] for vec in frame],
        max_imag=imag_norm,
        method=method,
    )


def _decided_on_one_batch(forms: Iterable[PPForm], trials: int, seed: int,
                          tol: float) -> Iterator[VerdictReport]:
    """A report for each of ``forms``, all of one degree p on n directions:
    ``nonnegative_psd`` at p in {1, n-1, n}, where weak positivity is the
    PSD-ness of the form's block, and ``nonnegative_sampled`` elsewhere, with
    the one batch that ``seed`` draws, drawn at the first nonzero form that
    is sampled: forms that are all exactly zero or decided by their block
    draw nothing.  Both give an exactly zero form the same report."""
    batch = None
    for form in forms:
        if _decided_by_block(form.p, form.n):
            yield nonnegative_psd(form, trials, seed, tol)
            continue
        if batch is None and not form.is_zero():
            batch = TupleBatch.draw(seed, trials, form.p, form.n)
        yield nonnegative_sampled(form, trials, seed, tol, batch=batch)


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
            "schema": 2,
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
    """Check S_lambda(c(Omega)) >= 0 for every lambda in Gamma(i, r).

    ``degrees`` defaults to 1..n.  A lambda with more than m nonzero parts
    gets the zero form's report without its form being built: for the
    factor's m columns, 1/c(Omega) has degree at most m, so
    S_lambda(c(Omega)) is exactly zero there (CONVENTIONS.md).  Degrees 1,
    n-1 and n are decided from each form's block; the checks of each other
    degree i are evaluated on one batch of tuples, drawn from the stream
    ``derive_seed(seed, 7, i)``.  Every report of degree i names that seed,
    so no check's verdict depends on the other degrees or on evaluation
    order.  The report embeds the instance and its hash for
    reproducibility.
    """
    n, r = tensor.n, tensor.r
    if degrees is None:
        degrees = range(1, n + 1)
    degrees = sorted(set(int(d) for d in degrees))
    if any(d < 1 or d > n for d in degrees):
        raise InputError(f"degrees must lie in 1..n={n}")
    cs = chern_forms(tensor)
    checks = []
    for i in degrees:
        lams = partitions(i, r)
        # S_lambda(c) = (-1)^|lambda| s_lambda(y_1, ..., y_m): zero for
        # more than m parts
        forms = (PPForm.zero(n, i) if len(lam.trimmed()) > cs.m
                 else evaluate_on_forms(schur_polynomial(lam, r), cs) for lam in lams)
        reports = _decided_on_one_batch(forms, trials, derive_seed(seed, 7, i), tol)
        checks += [SchurCheck(degree=i, partition=lam.parts, report=rep)
                   for lam, rep in zip(lams, reports)]
    all_pass = all(c.report.passed for c in checks)
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
            "schema": 2,
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
    each is a nonnegativity check in its own right.  A step that is
    identically zero at rank r, such as c4*c1 - c5*c0 for (2,2,1) at r = 3,
    is left out: it checks nothing.  Built once per (lam, r), keyed on
    ``lam`` as passed, like ``schur_polynomial``.
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
    return tuple((label, poly) for label, poly in steps if poly)


def bounds_chain_check(cs: ChernFormSet, lam: Union[Partition, Sequence[int]],
                       trials: int = 50, seed: int = 0,
                       tol: float = DEFAULT_TOL) -> ChainReport:
    """Check every step of 0 <= c_i <= c_lambda <= c_1^i for one lambda.

    Requires a Chern set built from a factor (the chain is a theorem only in
    factored shape), so ``cs.m`` is known, with weight(lambda) <= n and
    parts <= r.  Every step has a Schur factor with two nonzero parts,
    S_(w-j, j) or S_(t-1, 1), so for m < 2 every step is exactly zero
    (CONVENTIONS.md) and gets the zero form's report without being built.
    All steps have degree weight(lambda).  At weight 1, n-1 or n they are
    decided from their blocks, so the default-degree ``bounds chain`` draws
    nothing; at any other weight they are evaluated on one batch of tuples,
    drawn from the stream ``derive_seed(seed, 11)``.  Every step's report
    names that seed.  At top weight i = n the scalar chain
    0 <= top(c_n) <= top(c_lambda) <= top(c_1^n) is also compared, within
    tol relative to the largest of the three.
    """
    if not isinstance(lam, Partition):
        lam = Partition(tuple(lam))
    if cs.m is None:
        raise InputError("bounds chain requires a witnessed instance: the Chern forms of a "
                         "factor, not of a curvature matrix")
    if lam.weight > cs.n:
        raise InputError(f"partition weight {lam.weight} exceeds base dimension {cs.n}")
    if any(p > cs.r for p in lam.parts):
        raise InputError(f"partition parts must be <= r={cs.r}")
    num = cs.to_numeric()
    polys = chain_step_polynomials(lam, cs.r)
    forms = (PPForm.zero(cs.n, lam.weight) if cs.m < 2 else evaluate_on_forms(poly, num)
             for _, poly in polys)
    reports = _decided_on_one_batch(forms, trials, derive_seed(seed, 11), tol)
    steps = tuple(ChainStep(label=label, report=rep) for (label, _), rep in zip(polys, reports))
    all_pass = all(s.report.passed for s in steps)

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
    return ChainReport(partition=lam.parts, weight=lam.weight, steps=steps,
                       top=top, seed=seed, trials=trials, tol=tol, passed=all_pass)
