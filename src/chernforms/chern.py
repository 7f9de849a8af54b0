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
off the tensor's array, in either scalar mode, and builds no A; only a
float T whose entries are large enough for Omega's coefficients to
overflow builds Omega, with ``curvature.bott_chern_curvature``, to check
it (``_checked_tensor``).  For a row subset
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
block of c_i, a ``PPForm``, which splits an exact block once into
Gaussian-integer numerators over one denominator.

*Laplace route* (a ``CurvatureMatrix``, whose entries are (1,1)-blocks,
e.g. from ``omega`` literals or ``change_frame``).  Each minor is expanded
along its last row over the blocks, d = |rows| - 1,

    det Omega[rows, cols] = sum over t of (-1)^(d+t)
                            det Omega[rows[:-1], cols - {cols[t]}] ^ Omega[rows[-1], cols[t]],

computing each (rows, cols) minor once per call and skipping zero entries
and zero sub-minors.  The principal minors of each size are summed in
``itertools.combinations`` order onto the (i,i) zero block, and the scaled
sum is the block of c_i.  In exact mode the same ``PPForm`` code runs on
int64 numerators when an a-priori bound on every numerator it forms, and
on the denominators, proves that they fit (``_fits_int64``, after Bareiss,
Math. Comp. 22, 1968), and on Python ints otherwise.  Exact integers do not
depend on the order of the arithmetic, and each finished sum goes back to
Python ints, so both give the same normalised fields.

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
from typing import Optional, Sequence, Union

import numpy as np

from .curvature import CurvatureMatrix, CurvatureTensor, bott_chern_curvature
from .errors import InputError
from .forms import DEFAULT_TOL, PPForm, _laplace_step, _minor
from .scalars import EXACT, FLOAT, GaussianRational

#: exact phase (sqrt(-1))^i, i mod 4
_PHASES = (GaussianRational(1), GaussianRational(0, 1),
           GaussianRational(-1), GaussianRational(0, -1))

#: every numerator of the int64 Laplace route, and every denominator ratio
#: it rescales by, lies below this (``_fits_int64``)
INT64_BOUND = 1 << 62

#: index tables kept by ``_gram_step``, least recently used dropped first;
#: one instance needs one per degree below min(r, n) and scalar mode
GRAM_CACHE_SIZE = 64


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
    the products of these forms that ``product`` builds, keyed by their
    parts, each computed once and shared by every Chern number and every
    polynomial evaluated on the set, and ``zeros`` the keys of those that
    are the zero form, each tested once, as it is built.  Both live and die
    with the set, and equality, hashing and repr ignore them.
    """

    n: int
    r: int
    forms: tuple[PPForm, ...]
    mode: str
    m: Optional[int]
    memo: dict = dataclasses.field(default_factory=dict, init=False, compare=False,
                                   repr=False)
    zeros: set = dataclasses.field(default_factory=set, init=False, compare=False,
                                   repr=False)

    @property
    def top_degree(self) -> int:
        return len(self.forms) - 1

    def form(self, i: int) -> PPForm:
        """c_i; identically zero outside 0 <= i <= min(r, n)."""
        if i < 0 or i > self.top_degree:
            return PPForm.zero(self.n, max(i, 0), self.mode)
        return self.forms[i]

    def product(self, parts: Sequence[int]) -> PPForm:
        """c_{p_1} ^ c_{p_2} ^ ... ^ c_{p_k}, wedged left to right from the
        stored c_{p_1}; c_0 for no parts.

        Each prefix is kept in ``memo`` under its parts (p_1, ..., p_t), the
        one key shape of the memo, so products that share leading parts
        share their wedges, and the walk stops at the first zero prefix.
        Every entry is the form the unmemoized left-to-right wedge builds,
        bit for bit.
        """
        parts = tuple(parts)
        key = parts[:1]
        out = self.memo.get(key)
        if out is None:
            out = self._remember(key, self.form(parts[0] if parts else 0))
        for part in parts[1:]:
            if key in self.zeros:
                break
            key += (part,)
            nxt = self.memo.get(key)
            if nxt is None:
                nxt = self._remember(key, out.wedge(self.form(part)))
            out = nxt
        return out

    def _remember(self, key: tuple, form: PPForm) -> PPForm:
        """Keep ``form`` in ``memo`` under ``key``, and the key in ``zeros``
        when the form is zero."""
        self.memo[key] = form
        if form.is_zero():
            self.zeros.add(key)
        return form

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


def _fits_int64(entries: list, r: int, k: int) -> bool:
    """Whether every numerator that ``_minor_sums`` forms from the nonzero
    exact (1,1)-blocks ``entries`` of an r x r matrix, through degree k,
    lies below 2^62 in absolute value, and so does every denominator ratio
    that ``PPForm.__add__`` multiplies a numerator array by.

    Put every entry on the lcm D of the entries' ``den``, and let A be the
    largest |part| of the numerators over D.  The test is B(r, k, A) < 2^62
    and D^k < 2^62, with

        B(r, k, A) = max over 1 <= i <= k of C(r, i) (i!)^3 (sqrt(2) A)^i.

    Proof.  Call a monomial of degree i a signed product of i entry
    coefficients, each written over D; its numerator is a product of i
    Gaussian integers of modulus at most sqrt(2) A, so it has modulus at
    most (sqrt(2) A)^i.  A value of degree i held over a denominator d that
    divides D^i has numerator value * d, of modulus at most |value| D^i:
    reducing a fraction, or bringing it to the lcm of two divisors of D^i,
    never makes its numerator larger than over D^i itself.  Every
    denominator here divides D^i: an entry's divides D, a wedge multiplies
    the two denominators, and a sum takes their lcm.  So the real and
    imaginary part of every numerator is at most the sum of the moduli of
    the monomials the value is a signed sum of, each monomial counted
    once.

    - A coefficient of the (i,i)-block of one i x i minor expands into at
      most i! (permutations) times (i!)^2 (the ways to deal its i dz and i
      dzbar indices to the i factors) monomials: at most (i!)^3.
    - ``PPForm.wedge`` of a sub-minor of size i-1 by an entry forms the
      products a c, b e, a e and b c of the parts of two coefficients w and
      z, each at most |w| |z| <= ((i-1)!)^3 (sqrt(2) A)^i; the
      differences and sums of two of them are parts of w z; and its sum
      over axis 1 adds i^2 such terms, one per way to split the indices.
      Every partial sum is a signed sum of distinct monomials of the
      minor, and so are the partial sums of the Laplace expansion, whose i
      terms give i * i^2 * ((i-1)!)^3 = (i!)^3.
    - The sum of the C(r, i) principal minors adds C(r, i) such sums, and
      ``PPForm.__add__`` first brings both operands to the lcm of their
      denominators, a divisor of D^i.

    So every numerator part of degree i is at most C(r, i) (i!)^3
    (sqrt(2) A)^i <= B < 2^62, and the sum or difference of two of them
    stays below 2^63.  The ratios ``__add__`` multiplies by divide D^i
    <= D^k < 2^62.  A Python int beyond int64 would raise in numpy, but an
    int64 product wraps silently, hence both tests.  B is compared squared,
    in integers.
    """
    blocks = [b for row in entries for b in row if b is not None]
    if not blocks:
        return False
    den = math.lcm(*(b.den for b in blocks))
    peak = max(max(map(abs, itertools.chain(b.re.flat, b.im.flat))) * (den // b.den)
               for b in blocks)
    return den ** k < INT64_BOUND and all(
        math.comb(r, i) ** 2 * math.factorial(i) ** 6 * 2 ** i * peak ** (2 * i)
        < INT64_BOUND ** 2 for i in range(1, k + 1))


def _numerators_as(form: PPForm, dtype) -> PPForm:
    """The exact ``form`` with its numerators held in a numpy array of ``dtype``."""
    return PPForm._exact(form.n, form.p, form.re.astype(dtype), form.im.astype(dtype), form.den)


def _minor_sums(omega: CurvatureMatrix, k: int) -> list:
    """The sums of the principal i x i minors of ``omega``, i = 0..k, as
    (i,i)-blocks, each minor from ``_minor`` (see the module docstring).

    Exact blocks compute on int64 numerators when ``_fits_int64`` proves
    that every numerator fits, and on Python ints otherwise; each sum is
    returned on Python ints either way."""
    n, r, mode = omega.n, omega.r, omega.mode
    entries = [[None if b.is_zero() else b for b in row] for row in omega.blocks]
    narrow = mode == EXACT and _fits_int64(entries, r, k)
    if narrow:
        entries = [[None if b is None else _numerators_as(b, np.int64) for b in row]
                   for row in entries]
    minors = {}
    minor_sums = [PPForm.constant(n, 1, mode)]
    for i in range(1, k + 1):
        total = PPForm.zero(n, i, mode)
        if narrow:
            total = _numerators_as(total, np.int64)
        for subset in itertools.combinations(range(r), i):
            det = _minor(entries, subset, subset, minors, PPForm.wedge)
            if det is not None:
                total = total + det
        minor_sums.append(_numerators_as(total, object) if narrow else total)
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
    """T[p, i, k] of ``tensor``, its array, after the overflow check of
    ``bott_chern_curvature`` on a float tensor; every coefficient and
    partial sum of Omega is at most 2 m peak^2, so a small peak needs no check."""
    a = tensor.array
    if tensor.mode == FLOAT:
        peak = float(np.abs(a).max())
        if not 2 * tensor.m * peak * peak <= 1e307:
            bott_chern_curvature(tensor)
    return a


def chern_forms(source: Union[CurvatureTensor, CurvatureMatrix]) -> ChernFormSet:
    """Chern forms of a curvature, through degree min(r, n), n the base
    dimension, in the scalar mode of ``source``.  A ``CurvatureTensor``
    takes its forms from the Gram blocks of its factor, a
    ``CurvatureMatrix`` from the Laplace expansion of its principal minors (see
    the module docstring).  The set records the factor's column count m, or
    None for a ``CurvatureMatrix``.

    A tensor is read as its array, in either mode, after ``_checked_tensor``
    raises the overflow error of ``bott_chern_curvature(tensor)`` on a float
    one.  A float Chern form whose coefficients overflow to inf or NaN, from
    finite curvature entries, raises ``InputError``.
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
            blocks = _gram_blocks(_checked_tensor(source), k)
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
    The product is ``cs.product(nonzero parts)``, so partitions with the
    same leading parts share their wedges, with each other and with the
    terms of every polynomial ``schur.evaluate_on_forms`` substitutes.
    """
    for part in parts:
        if part < 0 or part > cs.r:
            raise InputError(f"partition part {part} out of range 0..r={cs.r}")
    return cs.product([part for part in parts if part])


def top_coefficient(form: PPForm, tol: float = DEFAULT_TOL) -> Union[Fraction, float]:
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
