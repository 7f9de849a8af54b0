"""Closed-form cohomology models: products of projective spaces and tori.

A model manifold is a product of factors CP^k (complex projective space) and
T^k (complex torus).  Its even cohomology subring relevant here is generated
by one class x_j per projective factor with the single relation
x_j^{k_j + 1} = 0; torus factors contribute no even generators, only
dimension.  The fundamental-class functional reads off the coefficient of
prod_j x_j^{k_j} and vanishes identically as soon as any torus factor is
present (a top-degree class would need odd generators we do not model).

The tangent bundle pulls back factorwise: total Chern class
prod_j (1 + x_j)^{k_j + 1} over projective factors, 1 for tori.  Chern
numbers, their bound chains (0 <= c_n <= c_lambda <= c_1^n for nef tangent,
and the signed mirror for nef cotangent), Todd classes, and holomorphic Euler
characteristics chi(M, L^m) all become finite exact computations.

The Todd class is computed from the universal series x / (1 - e^{-x}):
its logarithm's coefficients weight the Chern-root power sums, which Newton's
identities convert to polynomials in c_1, ..., c_n; exponentiating back and
truncating gives td_i as exact rational polynomials.  Nothing is hard-coded;
the familiar closed forms (c_1/2, (c_1^2 + c_2)/12, ...) appear in the tests
as frozen oracles instead.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
from fractions import Fraction
from typing import Sequence, Union

from .errors import ConsistencyError, InputError
from .polynomials import Polynomial, weighted_degree
from .schur import Partition, chern_variable, partitions


def _is_int(value) -> bool:
    """An int that is not a bool: True and False are refused where the
    models layer counts or twists."""
    return isinstance(value, int) and not isinstance(value, bool)


def degree_part(elem: Polynomial, d: int) -> Polynomial:
    """The part of a model-ring element of degree d, where every generator
    x_j has degree 1."""
    return elem.select(lambda e: sum(e) == d)


# ----------------------------------------------------------------------
# manifolds


@dataclasses.dataclass(frozen=True)
class ModelManifold:
    """Product of CP^k and T^k factors, as an ordered factor list.

    Equality is structural (same factors in the same order), so a product
    with a point is the original manifold.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for kind, k in self.factors:
            if kind not in ("CP", "T") or not _is_int(k) or k < 1:
                raise InputError(f"bad model factor {(kind, k)!r}")

    @property
    def label(self) -> str:
        if not self.factors:
            return "pt"
        return "x".join(f"{kind}{k}" for kind, k in self.factors)

    @property
    def dim(self) -> int:
        return sum(k for _, k in self.factors)

    @property
    def proj_dims(self) -> tuple[int, ...]:
        return tuple(k for kind, k in self.factors if kind == "CP")

    @property
    def torus_dim(self) -> int:
        return sum(k for kind, k in self.factors if kind == "T")

    @property
    def globally_generated_tangent(self) -> bool:
        """All factors are homogeneous (CP^k or torus), so the tangent bundle
        is globally generated; true for everything this catalog can build."""
        return True

    @property
    def globally_generated_cotangent(self) -> bool:
        """The cotangent bundle is globally generated iff every factor is a
        torus (projective space has no nonzero holomorphic 1-forms)."""
        return all(kind == "T" for kind, _ in self.factors)

    # ------------------------------------------------------------------

    def one(self) -> Polynomial:
        return Polynomial.one(len(self.proj_dims), self.proj_dims)

    def zero(self) -> Polynomial:
        return Polynomial.zero(len(self.proj_dims), self.proj_dims)

    def generator(self, j: int) -> Polynomial:
        """x_j (1-based), the hyperplane class of the j-th projective factor."""
        return Polynomial.variable(j, len(self.proj_dims), self.proj_dims)

    def total_tangent_chern(self) -> Polynomial:
        total = self.one()
        for j, k in enumerate(self.proj_dims, start=1):
            total = total * (self.one() + self.generator(j)) ** (k + 1)
        return total

    def chern_class(self, i: int) -> Polynomial:
        """c_i of the tangent bundle; zero outside 0 <= i <= dim."""
        if i < 0 or i > self.dim:
            return self.zero()
        return degree_part(self.total_tangent_chern(), i)

    def dual_chern_class(self, i: int) -> Polynomial:
        """c_i of the cotangent bundle: (-1)^i c_i(T)."""
        c = self.chern_class(i)
        return -c if i % 2 else c

    def integral(self, elem: Polynomial) -> Fraction:
        """Fundamental-class functional: coefficient of prod x_j^{k_j}, and
        identically zero whenever a torus factor is present."""
        if elem.caps != self.proj_dims:
            raise InputError("ring element belongs to a different model")
        if self.torus_dim > 0:
            return Fraction(0)
        return Fraction(elem.terms.get(self.proj_dims, 0))


def projective_space(k: int) -> ModelManifold:
    if not _is_int(k) or k < 1:
        raise InputError("projective space needs k >= 1")
    return ModelManifold((("CP", k),))


def complex_torus(k: int) -> ModelManifold:
    if not _is_int(k) or k < 1:
        raise InputError("complex torus needs k >= 1")
    return ModelManifold((("T", k),))


def product(*models: ModelManifold) -> ModelManifold:
    factors: tuple[tuple[str, int], ...] = ()
    for m in models:
        if not isinstance(m, ModelManifold):
            raise InputError("product arguments must be model manifolds")
        factors = factors + m.factors
    return ModelManifold(factors)


_ATOM = re.compile(r"^(CP|T)(\d+)$")


def parse_model(expr: str) -> ModelManifold:
    """Parse the model grammar: atoms CPk / Tk joined by infix 'x',
    e.g. "CP3", "CP1xCP2", "T1xCP1"."""
    if not isinstance(expr, str) or not expr.strip():
        raise InputError("model expression must be a nonempty string")
    factors = []
    for atom in expr.replace(" ", "").split("x"):
        m = _ATOM.match(atom)
        if not m:
            raise InputError(f"bad model atom {atom!r}: expected CPk or Tk (k >= 1)")
        k = int(m.group(2))
        if k < 1:
            raise InputError(f"bad model atom {atom!r}: k must be >= 1")
        factors.append((m.group(1), k))
    return ModelManifold(tuple(factors))


def line_class(model: ModelManifold, spec: str) -> Polynomial:
    """First Chern class of a named line bundle.

    "K" is the canonical bundle (c_1 = -c_1(T)); "O" is trivial;
    "O(d_1,...,d_s)" takes one integer degree per projective factor, giving
    sum_j d_j x_j.
    """
    if not isinstance(spec, str):
        raise InputError("line bundle must be a string")
    s = spec.strip()
    if s == "K":
        return -model.chern_class(1)
    if s == "O":
        return model.zero()
    m = re.fullmatch(r"O\(\s*(-?\d+(?:\s*,\s*-?\d+)*)?\s*\)", s)
    if not m:
        raise InputError(f"bad line bundle {spec!r}: expected K, O, or O(d1,...)")
    degrees = [int(d) for d in m.group(1).split(",")] if m.group(1) else []
    count = len(model.proj_dims)
    if len(degrees) != count:
        raise InputError(
            f"line bundle {spec!r} needs exactly {count} degree(s) for model {model.label}")
    total = model.zero()
    for j, d in enumerate(degrees, start=1):
        if d:
            total = total + d * model.generator(j)
    return total


# ----------------------------------------------------------------------
# Chern numbers and bound chains


def chern_number(model: ModelManifold, lam: Union[Partition, Sequence[int]],
                 dual: bool = False) -> int:
    """c_lambda[M] = integral of c_{lambda_1} ... c_{lambda_l}; requires
    weight(lambda) = dim.  With dual=True the cotangent classes are used."""
    if not isinstance(lam, Partition):
        lam = Partition(tuple(lam))
    if lam.weight != model.dim:
        raise InputError(
            f"partition weight {lam.weight} must equal the dimension {model.dim}")
    cls = model.dual_chern_class if dual else model.chern_class
    prod_elem = model.one()
    for part in lam.parts:
        if part == 0:
            continue
        prod_elem = prod_elem * cls(part)
    value = model.integral(prod_elem)
    if value.denominator != 1:
        raise ConsistencyError(f"Chern number {lam} of {model.label} is not an integer: {value}")
    return int(value)


@dataclasses.dataclass(frozen=True)
class ModelBoundsReport:
    """Exact integer bound chain 0 <= c_n <= c_lambda <= c_1^n over Gamma(n, n)."""

    model: str
    signed: bool
    dim: int
    numbers: tuple[tuple[tuple[int, ...], int], ...]
    all_zero: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "model-bounds",
            "model": self.model,
            "signed": self.signed,
            "dim": self.dim,
            "numbers": [{"partition": list(p), "value": v} for p, v in self.numbers],
            "all_zero": self.all_zero,
            "verdict": "PASS" if self.passed else "FAIL",
        }


def verify_number_bounds(model: ModelManifold, signed: bool = False) -> ModelBoundsReport:
    """Check the Chern-number chain on a model with exact integers.

    Unsigned requires a globally generated tangent bundle; signed uses the
    cotangent classes (numbers (-1)^n c_lambda[M]) and requires a globally
    generated cotangent bundle.  If c_1^n[M] = 0 every number in the chain
    must vanish; that propagation is recorded as ``all_zero``.
    """
    if signed and not model.globally_generated_cotangent:
        raise InputError(
            f"signed bounds need a globally generated cotangent bundle; "
            f"{model.label} has projective factors")
    if not signed and not model.globally_generated_tangent:
        raise InputError(f"bounds need a globally generated tangent bundle on {model.label}")
    n = model.dim
    # signed: the chain applies to the cotangent classes, whose weight-n
    # products are (-1)^n times the tangent ones
    numbers = []
    for lam in partitions(n, n):
        value = chern_number(model, lam, dual=signed)
        numbers.append((lam.parts, value))
    values = {p: v for p, v in numbers}
    if n == 0:
        return ModelBoundsReport(model=model.label, signed=signed, dim=0,
                                 numbers=tuple(numbers), all_zero=False, passed=True)
    v_cn = values[tuple([n] + [0] * (n - 1))]
    v_c1n = values[(1,) * n]
    ok = v_cn >= 0
    for p, v in numbers:
        ok = ok and (v_cn <= v <= v_c1n)
    all_zero = v_c1n == 0
    if all_zero:
        ok = ok and all(v == 0 for _, v in numbers)
    return ModelBoundsReport(model=model.label, signed=signed, dim=n,
                             numbers=tuple(numbers), all_zero=all_zero, passed=bool(ok))


# ----------------------------------------------------------------------
# Todd class and Riemann-Roch


def _series_reciprocal(g: list[Fraction]) -> list[Fraction]:
    out = [1 / g[0]]
    for k in range(1, len(g)):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += g[j] * out[k - j]
        out.append(-acc / g[0])
    return out


def _series_log(f: list[Fraction]) -> list[Fraction]:
    """log of a series with constant term 1, via k f_k = sum j l_j f_{k-j}."""
    assert f[0] == 1
    out = [Fraction(0)]
    for k in range(1, len(f)):
        acc = k * f[k]
        for j in range(1, k):
            acc -= j * out[j] * f[k - j]
        out.append(acc / k)
    return out


def todd_series(deg: int) -> list[Fraction]:
    """Coefficients of x / (1 - e^{-x}) through x^deg."""
    g = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(deg + 1)]
    return _series_reciprocal(g)


@functools.lru_cache(maxsize=None)
def todd_polynomials(max_degree: int) -> tuple[Polynomial, ...]:
    """Universal Todd polynomials td_0..td_max in c_1..c_{max_degree}.

    log of the product prod_i x_i/(1 - e^{-x_i}) is sum_k a_k p_k with a_k
    the log-series coefficients and p_k the power sums; Newton's identities
    rewrite p_k in the elementary symmetric functions c_i, and exponentiating
    the resulting polynomial gives the Todd class.
    """
    deg = max_degree
    nv = max(deg, 1)
    a = _series_log(todd_series(deg))
    # power sums via Newton: p_k = sum_{i<k} (-1)^{i-1} c_i p_{k-i} + (-1)^{k-1} k c_k
    p: list[Polynomial] = [Polynomial.zero(nv)]
    for k in range(1, deg + 1):
        acc = Polynomial.zero(nv)
        for i in range(1, k):
            term = chern_variable(i, nv) * p[k - i]
            acc = acc + (term if (i - 1) % 2 == 0 else -term)
        tail = k * chern_variable(k, nv)
        acc = acc + (tail if (k - 1) % 2 == 0 else -tail)
        p.append(acc)
    log_td = Polynomial.zero(nv)
    for k in range(1, deg + 1):
        log_td = log_td + a[k] * p[k]
    # exp, truncated at graded degree deg
    total = Polynomial.one(nv)
    power = Polynomial.one(nv)
    for m in range(1, deg + 1):
        power = (power * log_td).select(lambda e: weighted_degree(e) <= deg)
        total = total + Fraction(1, math.factorial(m)) * power
    return tuple(total.select(lambda e, i=i: weighted_degree(e) == i) for i in range(deg + 1))


def substitute_chern(poly: Polynomial, model: ModelManifold) -> Polynomial:
    """Evaluate a polynomial in c_1..c_r at the model's tangent Chern classes."""
    out = model.zero()
    for exps, coeff in poly.terms.items():
        term = model.one() * coeff
        for j, e in enumerate(exps, start=1):
            for _ in range(e):
                term = term * model.chern_class(j)
        out = out + term
    return out


def todd_class(model: ModelManifold) -> Polynomial:
    """Td(M) through degree dim, from the universal series."""
    n = model.dim
    total = model.zero()
    for td_i in todd_polynomials(n):
        total = total + substitute_chern(td_i, model)
    return total


def rr_polynomial(model: ModelManifold, line_c1: Polynomial) -> tuple[Fraction, ...]:
    """Coefficients (a_0..a_n) of chi(M, L^m) = sum a_j m^j, where
    a_j = integral(Td(M) * c_1(L)^j) / j!."""
    n = model.dim
    td = todd_class(model)
    out = []
    power = model.one()
    for j in range(n + 1):
        out.append(model.integral(td * power) / math.factorial(j))
        power = power * line_c1
    return tuple(out)


def evaluate_rr_polynomial(model: ModelManifold, coeffs: Sequence[Fraction], m: int) -> int:
    """chi(M, L^m) = sum a_j m^j from the coefficients ``rr_polynomial``
    returns; a non-int m is an InputError and a non-integer value a
    ConsistencyError (a Todd or ring bug), never rounded."""
    if not _is_int(m):
        raise InputError("the twisting power m must be an integer")
    value = sum(a * m ** j for j, a in enumerate(coeffs))
    if value.denominator != 1:
        raise ConsistencyError(
            f"chi({model.label}) = {value} is not an integer; Todd or ring bug")
    return int(value)


def euler_characteristic(model: ModelManifold, line_c1: Polynomial, m: int) -> int:
    """chi(M, L^m) by Riemann-Roch, one twist at a time; a caller that
    evaluates many twists builds ``rr_polynomial`` once and calls
    ``evaluate_rr_polynomial`` per m."""
    return evaluate_rr_polynomial(model, rr_polynomial(model, line_c1), m)


def kodaira_leading(model: ModelManifold) -> Fraction:
    """Leading coefficient of m -> chi(M, K^m): (-1)^n c_1^n[M] / n!."""
    n = model.dim
    c1n = model.integral(model.chern_class(1) ** n)
    return Fraction((-1) ** n) * c1n / math.factorial(n)


# ----------------------------------------------------------------------

#: models exercised by the verification suites
CATALOG: tuple[ModelManifold, ...] = (
    projective_space(1),
    projective_space(2),
    projective_space(3),
    projective_space(4),
    complex_torus(1),
    complex_torus(2),
    product(projective_space(1), projective_space(1)),
    product(projective_space(1), projective_space(2)),
    product(projective_space(1), projective_space(1), projective_space(1)),
    product(complex_torus(1), projective_space(1)),
    product(complex_torus(1), complex_torus(1)),
)
