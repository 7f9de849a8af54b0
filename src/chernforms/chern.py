"""Chern forms of a curvature, from its factor tensor or its matrix, and their
top-degree coefficients.

For an r x r curvature matrix Omega of (1,1)-forms on an n-dimensional base,
the Chern forms are the coefficients of the characteristic polynomial

    det(t I_r + (sqrt(-1)/2*pi) Omega) = sum_i c_i(Omega) t^{r-i},

i.e. c_i = (sqrt(-1)/2*pi)^i * (sum of principal i x i minors of Omega).
Entries of Omega have even total degree, so they commute and the
determinant is unambiguous.  Forms of degree above min(r, n) vanish; the set
stops there.

``chern_forms`` takes one of two routes, chosen by the type of its input.

*Gram route* (a ``CurvatureTensor``: the factor of Omega = A ^ conj(A^t),
A_ik = sum_p T[p, i, k] dz^p, A an r x m factor).  ``chern_forms`` reads T
off the tensor's array, in either scalar mode, and builds neither A nor
Omega as forms; a float T is first checked for overflow in Omega's
coefficients, as ``CurvatureMatrix`` checks its entries.  For a row subset
S = (s_1 < ... < s_i) and a size-i multiset kappa of the m columns, let
Phi_{S,kappa} be the (i,0)-form

    Phi_{S,kappa} = sum over the distinct arrangements (k_1, ..., k_i) of
                    kappa of A_{s_1 k_1} ^ ... ^ A_{s_i k_i},

whose dz^J coefficient sums det(T[J, s_d, k_d]).  Expanding the minors and
moving the odd factors of each product together gives

    c_i = (sqrt(-1)/2*pi)^i (-1)^(i(i-1)/2)
          * sum_{S,kappa} |Stab kappa| Phi_{S,kappa} ^ conj(Phi_{S,kappa}),

and (sqrt(-1))^i (-1)^(i(i-1)/2) = (sqrt(-1))^(i^2).  So c_i is read off a
C(n,i) x C(n,i) block G_i = sum |Stab kappa| Phi Phi^*, the coefficient of
dz^J ^ dzbar^K being G_i[J, K] times that prefactor.  One depth-first walk
over the row subsets grows the array Phi_S[kappa, J] one row at a time
(Laplace along the new row, with the tables of ``forms._laplace_step``
over J and cached tables over kappa) and adds each subset's term to its
block.  Both scalar modes run the same numpy code: complex128 arrays, or
object arrays of ``GaussianRational``.  Each scaled G_i is the coefficient
block of c_i, a ``PPForm``.

*Laplace route* (a ``CurvatureMatrix``, e.g. from ``omega`` literals or
``change_frame``).  Each entry is read once into its (1,1)-block, and each
minor is expanded along its last row over blocks, d = |rows| - 1,

    det Omega[rows, cols] = sum over t of (-1)^(d+t)
                            det Omega[rows[:-1], cols - {cols[t]}] ^ Omega[rows[-1], cols[t]],

computing each (rows, cols) minor once per call and skipping zero entries
and zero sub-minors.  The principal minors of each size are summed in
``itertools.combinations`` order onto the (i,i) zero block, and the scaled
sum is the block of c_i.

On a tensor and on ``bott_chern_curvature(tensor)`` the routes agree exactly
in exact mode and to rounding in float mode, where the Gram route sums in
another order.

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

import cmath
import dataclasses
import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .curvature import CurvatureMatrix, CurvatureTensor
from .errors import InputError
from .forms import PPForm, _laplace_step
from .scalars import EXACT, FLOAT, GaussianRational

#: exact phase (sqrt(-1))^i, i mod 4
_PHASES = (GaussianRational(1), GaussianRational(0, 1),
           GaussianRational(-1), GaussianRational(0, -1))

#: index tables kept by ``_gram_step``, least recently used dropped first;
#: one instance needs one per degree below min(r, n) and scalar mode
GRAM_CACHE_SIZE = 64


def leibniz_det(entries: Sequence[Sequence], one, zero, mul: Callable):
    """Leibniz determinant of a square matrix over a commutative ring.

    Entries need ``is_zero()``, ``+`` and unary ``-``; ``mul`` multiplies
    two ring elements (``operator.mul`` for the Jacobi-Trudi polynomials of
    ``schur``); ``one`` and ``zero`` are the ring's 1 and 0.  Permutations
    are walked depth-first in ``itertools.permutations`` order, row by row,
    so each prefix product mul(...mul(one, e[0][c0])..., e[d][cd]) is
    computed once.  A zero entry or a zero prefix prunes every permutation
    below it.  Terms are summed onto ``zero`` in permutation order, each
    negated when the permutation is odd.
    """
    if not entries:
        return one
    return sum(_leibniz_terms(entries, mul, list(range(len(entries))), one, 0), zero)


def _leibniz_terms(entries: Sequence[Sequence], mul: Callable, free: list, prod, odd: int):
    """The signed nonzero terms of ``leibniz_det`` whose rows above
    len(entries) - len(free) took the other columns, with product ``prod``
    and parity ``odd`` so far, in permutation order."""
    d = len(entries) - len(free)
    row = entries[d]
    for pos, col in enumerate(free):
        f = row[col]
        if f.is_zero():
            continue
        nxt = mul(prod, f)
        if nxt.is_zero():
            continue
        # columns still free left of col each form one inversion with it
        parity = odd ^ (pos & 1)
        if d + 1 == len(entries):
            yield -nxt if parity else nxt
        else:
            yield from _leibniz_terms(entries, mul, free[:pos] + free[pos + 1:], nxt, parity)


@dataclasses.dataclass(frozen=True)
class ChernFormSet:
    """Chern forms c_0, ..., c_k of one curvature matrix, k = min(r, n).

    ``m`` is the column count of the source factor, or None when the set
    came from a ``CurvatureMatrix``; the nonnegativity engines demand a
    factor and read m for the vanishing of S_lambda beyond m parts.
    ``mode`` is the scalar
    mode; in exact mode each stored form is (sqrt(-1))^i * (minor sum) and
    the symbolic residual prefactor is (2*pi)^(-i) (see module docstring).

    ``forms`` holds the coefficient blocks of c_0, ..., c_k.  ``memo`` holds
    the wedge products of these forms that ``product`` builds, each
    computed once and shared by every Chern number and every polynomial
    evaluated on the set.  It lives and dies with the set, and equality,
    hashing and repr ignore it.
    """

    n: int
    r: int
    forms: tuple[PPForm, ...]
    mode: str
    m: Optional[int]
    memo: dict = dataclasses.field(default_factory=dict, init=False, compare=False,
                                   repr=False)

    @property
    def top_degree(self) -> int:
        return len(self.forms) - 1

    def form(self, i: int) -> PPForm:
        """c_i; identically zero outside 0 <= i <= min(r, n)."""
        if i < 0 or i > self.top_degree:
            return PPForm.zero(self.n, max(i, 0), self.mode)
        return self.forms[i]

    def product(self, head, factors: Sequence) -> PPForm:
        """head ^ f_1 ^ ... ^ f_k, wedged left to right from the constant
        ``head``.

        An int factor j is the stored c_j; a pair (j, e) is c_j^e, which is
        ``product(1, (j,) * e)``.  Each prefix is kept in ``memo`` under
        (head, f_1, ..., f_t), the one key shape of the memo, so products
        that share leading factors share their wedges, and the walk stops at
        the first zero prefix.  Every entry is the form the unmemoized
        left-to-right wedge builds, bit for bit.
        """
        key = (head,)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = PPForm.constant(self.n, head, self.mode)
        for f in factors:
            if out.is_zero():
                break
            key += (f,)
            nxt = self.memo.get(key)
            if nxt is None:
                factor = (self.product(1, (f[0],) * f[1]) if isinstance(f, tuple)
                          else self.form(f))
                nxt = self.memo[key] = out.wedge(factor)
            out = nxt
        return out

    def residual_prefactor_power(self, i: int) -> int:
        """The stored c_i must be multiplied by (2*pi)**(-power) to be the
        true Chern form; 0 in float mode where everything is folded in."""
        return i if self.mode == EXACT else 0

    def numeric_form(self, i: int) -> PPForm:
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
            mode=FLOAT, m=self.m)


def _minor(entries: list, rows: tuple, cols: tuple, minors: dict) -> Optional[PPForm]:
    """det entries[rows, cols] by Laplace expansion along its last row, or
    None when it vanishes; a zero entry is None too.  Each minor of two or
    more rows is computed once and kept in ``minors`` under (rows, cols)."""
    row = entries[rows[-1]]
    if len(rows) == 1:
        return row[cols[0]]
    key = rows, cols
    if key in minors:
        return minors[key]
    d, head, total = len(rows) - 1, rows[:-1], None
    for t, col in enumerate(cols):
        entry = row[col]
        if entry is None:
            continue
        sub = _minor(entries, head, cols[:t] + cols[t + 1:], minors)
        if sub is None:
            continue
        term = -sub.wedge(entry) if (d + t) & 1 else sub.wedge(entry)
        total = term if total is None else total + term
    minors[key] = None if total is None or total.is_zero() else total
    return minors[key]


def _minor_sums(omega: CurvatureMatrix, k: int) -> list:
    """The sums of the principal i x i minors of ``omega``, i = 0..k, as
    (i,i)-blocks, each minor from ``_minor`` (see the module docstring)."""
    n, r, mode = omega.n, omega.r, omega.mode
    entries = [[None if f.is_zero() else PPForm.from_form(f, 1) for f in row]
               for row in omega.entries]
    minors = {}
    minor_sums = [PPForm.constant(n, 1, mode)]
    for i in range(1, k + 1):
        total = PPForm.zero(n, i, mode)
        for subset in itertools.combinations(range(r), i):
            det = _minor(entries, subset, subset, minors)
            if det is not None:
                total = total + det
        minor_sums.append(total)
    return minor_sums


@functools.lru_cache(maxsize=GRAM_CACHE_SIZE)
def _gram_step(m: int, d: int, dtype: np.dtype) -> tuple:
    """Index tables that grow the rows of Phi over S into those of Phi over
    S + (s,), |S| = d, for ``_gram_blocks``.

    Rows of Phi are the size-d multisets kappa of the m columns, in
    ``combinations_with_replacement`` order, then one zero row; its columns
    are the d-subsets J of the n directions, in ``combinations`` order.
    Expanding the new row last,

        Phi'[kappa', J'] = sum over distinct k in kappa' and p in J' of
                           (-1)^(d - pos(p, J')) Phi[kappa' - {k}, J' - {p}] T[p, s, k],

    and the tables over J' are those of ``forms._laplace_step(n, d, dtype)``,
    since (-1)^(d - t) = (-1)^(d + t).

    Returns (kappa_src, col, weight): ``kappa_src[a, t]`` and ``col[a, t]``
    name the source row and the column k of the t-th distinct k of kappa'_a
    (padded with the zero row), and ``weight[a]`` is |Stab kappa'_a| (0 on
    the zero row), a scalar of ``dtype``: a Python int for object arrays.
    """
    kappas = {kappa: a for a, kappa in
              enumerate(itertools.combinations_with_replacement(range(m), d))}
    pad, width = len(kappas), min(d + 1, m)
    kappa_src, col, weight = [], [], []
    for kappa in itertools.combinations_with_replacement(range(m), d + 1):
        distinct = sorted(set(kappa))
        # dropping the first copy of k keeps the multiset sorted
        src = [kappas[kappa[:kappa.index(c)] + kappa[kappa.index(c) + 1:]] for c in distinct]
        kappa_src.append(src + [pad] * (width - len(src)))
        col.append(distinct + [0] * (width - len(distinct)))
        weight.append(math.prod(math.factorial(kappa.count(c)) for c in distinct))
    kappa_src.append([pad] * width)
    col.append([0] * width)
    weight.append(0)
    return np.array(kappa_src), np.array(col), np.array(weight, dtype=dtype)


def _gram_blocks(tensor: np.ndarray, k: int) -> list:
    """G_i = sum over row subsets S, |S| = i, and size-i column multisets
    kappa of |Stab kappa| Phi_{S,kappa} Phi_{S,kappa}^*, i = 1..k, for the
    factor tensor T[p, i, k] (see the module docstring)."""
    n, r, m = tensor.shape
    blocks = [None] + [np.zeros((math.comb(n, i),) * 2, tensor.dtype) for i in range(1, k + 1)]
    phi = np.zeros((2, 1), tensor.dtype)
    phi[0, 0] = 1
    # (first row still free, depth, Phi over the rows taken), depth first
    stack = [(0, 0, phi)]
    while stack:
        start, d, phi = stack.pop()
        kappa_src, col, weight = _gram_step(m, d, tensor.dtype)
        j_src, direction, sign = _laplace_step(n, d, tensor.dtype)
        # Phi[kappa' - {k}, J' - {p}], shared by every next row s
        gathered = phi[kappa_src][:, :, j_src]
        signed = tensor[direction] * sign[:, :, None, None]
        for s in range(start, r):
            nxt = np.einsum("kajb,jbka->kj", gathered, signed[:, :, s][..., col])
            blocks[d + 1] += (nxt * weight[:, None]).T @ nxt.conj()
            if d + 1 < k:
                stack.append((s + 1, d + 1, nxt))
    return blocks


def _checked_tensor(tensor: CurvatureTensor) -> np.ndarray:
    """T[p, i, k] of a float tensor as ``factor_from_tensor(tensor)`` holds
    it: a nonzero entry times the 1 + 0j of dz^p, the multiply of
    ``Form.scale``, and an exactly zero one as 0j.

    Raises the ``InputError`` of ``CurvatureMatrix`` when a coefficient
    sum_k T[p, i, k] conj(T[q, j, k]) of Omega = A ^ conj(A^t) is not
    finite, summed in k order as ``bott_chern_curvature`` sums it, naming
    the first entry (i, j) in row-major order.
    """
    a = tensor.array
    t = np.where(a == 0, 0j, a * (1 + 0j))
    with np.errstate(over="ignore", invalid="ignore"):
        # products[p, i, q, j, k] = T[p, i, k] conj(T[q, j, k])
        products = t[:, :, None, None, :] * t.conj()[None, None]
        total = products[..., 0]
        for k in range(1, t.shape[2]):
            total = total + products[..., k]
    bad = np.argwhere(~np.isfinite(total).all(axis=(0, 2)))
    if len(bad):
        i, j = bad[0]
        raise InputError(f"curvature entry ({i + 1},{j + 1}) is not finite")
    return t


def chern_forms(source: Union[CurvatureTensor, CurvatureMatrix]) -> ChernFormSet:
    """Chern forms of a curvature, through degree min(r, n), n the base
    dimension, in the scalar mode of ``source``.  A ``CurvatureTensor``
    takes its forms from the Gram blocks of its factor, a
    ``CurvatureMatrix`` from the Laplace expansion of its principal minors (see
    the module docstring).  The set records the factor's column count m, or
    None for a ``CurvatureMatrix``.

    An exact tensor is read as its array.  A float one is read through
    ``_checked_tensor``, which raises the overflow error of
    ``bott_chern_curvature(tensor)``, and gives the forms of
    ``factor_from_tensor(tensor)``, bit for bit, without building it.  A
    float Chern form whose coefficients overflow to inf or NaN, from finite
    curvature entries, raises ``InputError``.
    """
    if not isinstance(source, (CurvatureTensor, CurvatureMatrix)):
        raise TypeError("chern_forms takes a CurvatureTensor or a CurvatureMatrix")
    n, r, mode = source.n, source.r, source.mode
    k = min(r, n)
    out = [PPForm.constant(n, 1, mode)]
    # an overflow is reported below, as an InputError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(source, CurvatureMatrix):
            minor_sums, m = _minor_sums(source, k), None
            for i in range(1, k + 1):
                phase = _PHASES[i % 4] if mode == EXACT else (1j / (2.0 * math.pi)) ** i
                out.append(minor_sums[i].scale(phase))
        else:
            blocks = _gram_blocks(_checked_tensor(source) if mode == FLOAT else source.array, k)
            m = source.m
            for i in range(1, k + 1):
                # (sqrt(-1))^i (-1)^(i(i-1)/2) = (sqrt(-1))^(i^2), and i^2 = i mod 2
                if mode == EXACT:
                    scaled = blocks[i] * _PHASES[i & 1]
                else:
                    scaled = blocks[i] * ((1j if i & 1 else 1.0) * (2.0 * math.pi) ** -i)
                out.append(PPForm(n, i, mode, scaled))
    if mode == FLOAT:
        for i, form in enumerate(out):
            if not np.isfinite(form.block).all():
                raise InputError(f"Chern form c_{i} is not finite: its coefficients overflow")
    return ChernFormSet(n=n, r=r, forms=tuple(out), mode=mode, m=m)


def chern_product(cs: ChernFormSet, parts: Sequence[int]) -> PPForm:
    """c_lambda = c_{lambda_1} ^ ... ^ c_{lambda_l}  (zero parts are skipped).

    Parts above r are rejected: c_j is not a variable of the rank-r problem.
    Parts between min(r, n) and r are legal and contribute the zero form.
    The product is ``cs.product(1, nonzero parts)``, so partitions with the
    same leading parts share their wedges.
    """
    for part in parts:
        if part < 0 or part > cs.r:
            raise InputError(f"partition part {part} out of range 0..r={cs.r}")
    return cs.product(1, [part for part in parts if part])


def top_coefficient(form: PPForm, tol: float = 1e-9) -> Union[Fraction, float]:
    """Scalar t with phi = t * prod_j (sqrt(-1) dz^j ^ dzbar^j) for an
    (n,n)-form phi, read off its 1 x 1 block.

    Exact mode returns a Fraction and demands exact reality; float mode
    returns a float, tolerates an imaginary part up to tol * scale and
    refuses a value that is not finite.  The zero form gives 0.
    """
    n = form.n
    if form.is_zero():
        return Fraction(0) if form.mode == EXACT else 0.0
    if form.p != n:
        raise InputError(f"top coefficient requires an ({n},{n})-form")
    raw = form.block[0, 0]
    # evaluate on the standard basis tuple: (-i)^(n^2) * raw
    if form.mode == EXACT:
        value = _PHASES[(-(n * n)) % 4] * raw
        if value.im != 0:
            raise InputError("top coefficient of an exact form must be real")
        return value.re
    value = ((-1j) ** (n * n % 4)) * complex(raw)
    if not cmath.isfinite(value):
        raise InputError("top coefficient is not finite: the form overflows")
    scale = max(1.0, abs(value))
    if abs(value.imag) > tol * scale:
        raise InputError(f"top coefficient has imaginary part {value.imag:.3e} beyond tolerance")
    return float(value.real)
