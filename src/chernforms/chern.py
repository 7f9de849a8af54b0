"""Chern forms of a curvature matrix and their top-degree coefficients.

For an r x r curvature matrix Omega of (1,1)-forms on an n-dimensional base,
the Chern forms are the coefficients of the characteristic polynomial

    det(t I_r + (sqrt(-1)/2*pi) Omega) = sum_i c_i(Omega) t^{r-i},

i.e. c_i = (sqrt(-1)/2*pi)^i * (sum of principal i x i minors of Omega).
Entries of Omega have even total degree, so they commute and the Leibniz
determinant is unambiguous.  Forms of degree above min(r, n) vanish; the set
stops there.

Two prefactor modes, tied to the scalar mode of Omega:

* float ("numeric"): the full scalar (sqrt(-1)/2*pi)^i is folded into the
  coefficients, so c_i is a real (i,i)-form with float entries.
* exact: the stored form is (sqrt(-1))^i * m_i with Gaussian-rational
  coefficients (m_i = the minor sum), and the residual transcendental factor
  (2*pi)^(-i) per degree i is left symbolic.  Stored exact forms are then
  genuinely real (conjugation-invariant) and division-free, and
  ``ChernFormSet.numeric_form`` folds the residual in when a float view is
  needed.

``top_coefficient`` reads off the scalar t in phi = t * (volume form) for an
(n,n)-form phi, normalized so the standard Euclidean volume form
prod_j sqrt(-1) dz^j ^ dzbar^j has coefficient 1.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence, Union

from .curvature import CurvatureMatrix
from .errors import InputError
from .forms import Form
from .scalars import EXACT, FLOAT, GaussianRational

#: exact phase (sqrt(-1))^i, i mod 4
_PHASES = (GaussianRational(1), GaussianRational(0, 1),
           GaussianRational(-1), GaussianRational(0, -1))


def leibniz_det(entries: Sequence[Sequence], one, zero, mul: Callable):
    """Leibniz determinant of a square matrix over a commutative ring.

    Entries need ``is_zero()``, ``+`` and unary ``-``; ``mul`` multiplies
    two ring elements (``Form.wedge`` for even-degree forms, which commute,
    or ``operator.mul``); ``one`` and ``zero`` are the ring's 1 and 0.
    Permutations are walked depth-first in ``itertools.permutations`` order,
    row by row, so each prefix product mul(...mul(one, e[0][p0])..., e[d][pd])
    is computed once and only the current path is held.  A zero entry or a
    zero prefix prunes every permutation below it.  Terms are summed onto
    ``zero`` in permutation order, each negated when the permutation is odd.
    """
    k = len(entries)
    if k == 0:
        return one
    total = zero
    free = list(range(k))

    def walk(row: int, prod, odd: int):
        nonlocal total
        for pos, col in enumerate(free):
            f = entries[row][col]
            if f.is_zero():
                continue
            nxt = mul(prod, f)
            if nxt.is_zero():
                continue
            # columns still free left of col each form one inversion with it
            parity = odd ^ (pos & 1)
            if row + 1 == k:
                total = total + (-nxt if parity else nxt)
                continue
            del free[pos]
            walk(row + 1, nxt, parity)
            free.insert(pos, col)

    walk(0, one, 0)
    return total


@dataclasses.dataclass(frozen=True)
class ChernFormSet:
    """Chern forms c_0, ..., c_k of one curvature matrix, k = min(r, n).

    ``witnessed`` records whether the source curvature carried a factor
    witness; the nonnegativity engines demand it.  ``mode`` is the scalar
    mode; in exact mode each stored form is (sqrt(-1))^i * (minor sum) and
    the symbolic residual prefactor is (2*pi)^(-i) (see module docstring).

    ``memo`` holds wedge products of these forms, computed once and reused
    by every polynomial evaluated on the set: ``power`` stores c_j^e under
    ``("power", j, e)``, and ``schur.evaluate_on_forms`` stores the running
    product of a term, coeff * c_{j1}^{e1} ^ ... ^ c_{jt}^{et}, under
    ``(coeff, (j1, e1), ..., (jt, et))``.  Each entry is the form the
    uncached computation would build, bit for bit.  The memo lives and dies
    with the set, and equality, hashing and repr ignore it.
    """

    n: int
    r: int
    forms: tuple[Form, ...]
    mode: str
    witnessed: bool
    memo: dict = dataclasses.field(default_factory=dict, init=False, compare=False,
                                   repr=False)

    @property
    def top_degree(self) -> int:
        return len(self.forms) - 1

    def form(self, i: int) -> Form:
        """c_i; identically zero outside 0 <= i <= min(r, n)."""
        if i < 0 or i > self.top_degree:
            return Form.zero(self.n, self.mode)
        return self.forms[i]

    def power(self, j: int, e: int) -> Form:
        """c_j^e = 1 ^ c_j ^ ... ^ c_j (e factors), computed once per set."""
        key = ("power", j, e)
        f = self.memo.get(key)
        if f is None:
            f = self.memo[key] = self.form(j).wedge_power(e)
        return f

    def residual_prefactor_power(self, i: int) -> int:
        """The stored c_i must be multiplied by (2*pi)**(-power) to be the
        true Chern form; 0 in float mode where everything is folded in."""
        return i if self.mode == EXACT else 0

    def numeric_form(self, i: int) -> Form:
        """c_i as a float-mode form with all prefactors folded in."""
        f = self.form(i)
        if self.mode == FLOAT:
            return f
        return f.to_float().scale((2.0 * math.pi) ** (-i))

    def to_numeric(self) -> "ChernFormSet":
        if self.mode == FLOAT:
            return self
        return ChernFormSet(
            n=self.n, r=self.r,
            forms=tuple(self.numeric_form(i) for i in range(self.top_degree + 1)),
            mode=FLOAT, witnessed=self.witnessed)


def chern_forms(omega: CurvatureMatrix, n: Optional[int] = None) -> ChernFormSet:
    """Chern forms of a curvature matrix, through degree min(r, n).

    ``n`` defaults to the base dimension of the entries and must match it
    when given.  The result inherits the scalar mode of ``omega`` and records
    whether ``omega`` was witnessed.
    """
    base_n = omega.n
    if n is not None and n != base_n:
        raise InputError(f"requested base dimension {n} does not match the forms' {base_n}")
    r = omega.r
    mode = omega.mode
    k = min(r, base_n)
    one, zero = Form.constant(base_n, 1, mode), Form.zero(base_n, mode)
    out = [one]
    for i in range(1, k + 1):
        minor_sum = zero
        for subset in combinations(range(r), i):
            sub = [[omega.entries[a][b] for b in subset] for a in subset]
            minor_sum = minor_sum + leibniz_det(sub, one, zero, Form.wedge)
        if mode == EXACT:
            c_i = minor_sum.scale(_PHASES[i % 4])
        else:
            c_i = minor_sum.scale((1j / (2.0 * math.pi)) ** i)
        out.append(c_i)
    return ChernFormSet(n=base_n, r=r, forms=tuple(out), mode=mode,
                        witnessed=omega.witnessed)


def chern_product(cs: ChernFormSet, parts: Sequence[int]) -> Form:
    """c_lambda = c_{lambda_1} ^ ... ^ c_{lambda_l}  (zero parts are skipped).

    Parts above r are rejected: c_j is not a variable of the rank-r problem.
    Parts between min(r, n) and r are legal and contribute the zero form.
    """
    result = Form.constant(cs.n, 1, cs.mode)
    for part in parts:
        if part < 0 or part > cs.r:
            raise InputError(f"partition part {part} out of range 0..r={cs.r}")
        if part == 0:
            continue
        result = result.wedge(cs.form(part))
        if result.is_zero():
            break
    return result


def top_coefficient(form: Form, tol: float = 1e-9) -> Union[Fraction, float]:
    """Scalar t with phi = t * prod_j (sqrt(-1) dz^j ^ dzbar^j) for an
    (n,n)-form phi.

    Exact mode returns a Fraction and demands exact reality; float mode
    returns a float and tolerates an imaginary part up to tol * scale.
    The zero form gives 0.
    """
    n = form.n
    if form.is_zero():
        return Fraction(0) if form.mode == EXACT else 0.0
    if not form.is_homogeneous(n, n):
        raise InputError(f"top coefficient requires an ({n},{n})-form")
    full = (1 << n) - 1
    raw = form.terms[(full, full)]
    # evaluate on the standard basis tuple: (-i)^(n^2) * raw
    if form.mode == EXACT:
        value = _PHASES[(-(n * n)) % 4] * raw
        if value.im != 0:
            raise InputError("top coefficient of an exact form must be real")
        return value.re
    value = ((-1j) ** (n * n % 4)) * raw
    scale = max(1.0, abs(value))
    if abs(value.imag) > tol * scale:
        raise InputError(f"top coefficient has imaginary part {value.imag:.3e} beyond tolerance")
    return float(value.real)
