"""Chern forms of a curvature matrix and their top-degree coefficients.

For an r x r curvature matrix Omega of (1,1)-forms on an n-dimensional base,
the Chern forms are the coefficients of the characteristic polynomial

    det(t I_r + (sqrt(-1)/2*pi) Omega) = sum_i c_i(Omega) t^{r-i},

i.e. c_i = (sqrt(-1)/2*pi)^i * (sum of principal i x i minors of Omega).
Entries of Omega have even total degree, so they commute and the Leibniz
determinant is unambiguous.  Forms of degree above min(r, n) vanish; the set
stops there.

``chern_forms`` takes one of two routes, chosen by the witness alone.

*Gram route* (witnessed Omega = A ^ conj(A^t), A_ik = sum_p T[p, i, k] dz^p,
A an r x m factor).  A ``CurvatureTensor`` is witnessed by construction:
``chern_forms`` reads T off its array and builds neither A nor Omega as
forms, and checks Omega's coefficients for overflow from T as
``CurvatureMatrix`` checks its entries.  A witnessed ``CurvatureMatrix``
gives T through its witness.  For a row subset S = (s_1 < ... < s_i) and a size-i
multiset kappa of the m columns, let Phi_{S,kappa} be the (i,0)-form

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
(Laplace along the new row) and adds each subset's term to its block; the
index tables depend only on (n, m, |S|) and are cached.  Both scalar modes
run the same numpy code: complex128 arrays, or object arrays of
``GaussianRational``.  The forms list their keys in the order of the walk's
forms (``_key_order``), so their products reuse the same wedge plans.

*Leibniz walk* (unwitnessed Omega, e.g. ``omega`` literals).  The minors are
expanded in one depth-first walk over the row subsets: lexicographic order,
all sizes 1..min(r, n) interleaved, so (0), (0,1), (0,1,2), ..., (0,2),
..., (1), ...  Each size still meets its subsets in
``itertools.combinations`` order, and each minor still sums its
permutations in ``itertools.permutations`` order, so every minor sum adds
the same determinants in the same order as a loop over the subsets of each
size.  Minors whose first rows agree share their prefix wedges: each row
subset hands its minor its parent's memo levels plus one fresh level (see
``leibniz_det``'s ``memo``), so a product over rows S[:d+1] with a given
column tuple is computed once, and every product is one such a loop
computes, bit for bit.

On the same entries the routes agree exactly in exact mode and to rounding
in float mode, where the Gram route sums in another order.

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
import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .curvature import CurvatureMatrix, CurvatureTensor
from .errors import InputError
from .forms import Form
from .scalars import EXACT, FLOAT, GaussianRational

#: exact phase (sqrt(-1))^i, i mod 4
_PHASES = (GaussianRational(1), GaussianRational(0, 1),
           GaussianRational(-1), GaussianRational(0, -1))

#: index tables kept by ``_gram_step``, least recently used dropped first;
#: one instance needs one per degree below min(r, n) and scalar mode
GRAM_CACHE_SIZE = 64


def leibniz_det(entries: Sequence[Sequence], one, zero, mul: Callable,
                subset: Optional[Sequence[int]] = None, memo: Optional[list] = None):
    """Leibniz determinant of a square matrix over a commutative ring, or of
    its principal minor on the indices ``subset`` (default: all of them).

    Entries need ``is_zero()``, ``+`` and unary ``-``; ``mul`` multiplies
    two ring elements (``Form.wedge`` for even-degree forms, which commute,
    or ``operator.mul``); ``one`` and ``zero`` are the ring's 1 and 0.
    Row d of the minor is row ``subset[d]``, and its columns are ``subset``
    in order.  Permutations are walked depth-first in
    ``itertools.permutations`` order, row by row, so each prefix product
    mul(...mul(one, e[s0][c0])..., e[sd][cd]) is computed once.  A zero
    entry or a zero prefix prunes every permutation below it.  Terms are
    summed onto ``zero`` in permutation order, each negated when the
    permutation is odd.

    ``memo`` holds one dict per row of ``subset`` (default: fresh ones), and
    ``memo[d]`` maps a column tuple (c0, ..., cd) to the product over rows
    ``subset[:d+1]``, so calls handed the same levels for a shared row
    prefix compute its products once, bit for bit as this walk would.
    """
    if subset is None:
        subset = range(len(entries))
    k = len(subset)
    if k == 0:
        return one
    if memo is None:
        memo = [{} for _ in subset]
    total = zero
    free = list(subset)

    def walk(d: int, prod, odd: int, cols: tuple):
        nonlocal total
        row, level = entries[subset[d]], memo[d]
        for pos, col in enumerate(free):
            f = row[col]
            if f.is_zero():
                continue
            key = cols + (col,)
            nxt = level.get(key)
            if nxt is None:
                nxt = level[key] = mul(prod, f)
            if nxt.is_zero():
                continue
            # columns still free left of col each form one inversion with it
            parity = odd ^ (pos & 1)
            if d + 1 == k:
                total = total + (-nxt if parity else nxt)
                continue
            del free[pos]
            walk(d + 1, nxt, parity, key)
            free.insert(pos, col)

    walk(0, one, 0, ())
    # walk refers to itself: drop it so the cycle does not keep ``memo``
    # alive until the next garbage collection
    del walk
    return total


@dataclasses.dataclass(frozen=True)
class ChernFormSet:
    """Chern forms c_0, ..., c_k of one curvature matrix, k = min(r, n).

    ``witnessed`` records whether the source curvature carried a factor
    witness; the nonnegativity engines demand it.  ``mode`` is the scalar
    mode; in exact mode each stored form is (sqrt(-1))^i * (minor sum) and
    the symbolic residual prefactor is (2*pi)^(-i) (see module docstring).

    ``memo`` holds the wedge products of these forms that ``product``
    builds, each computed once and shared by every Chern number and every
    polynomial evaluated on the set.  It lives and dies with the set, and
    equality, hashing and repr ignore it.
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

    def product(self, head, factors: Sequence) -> Form:
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
            out = self.memo[key] = Form.constant(self.n, head, self.mode)
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


def _minor_sums(omega: CurvatureMatrix, k: int) -> list:
    """The sums of the principal i x i minors of ``omega``, i = 0..k, from one
    depth-first walk over the row subsets (see the module docstring)."""
    n, r, mode = omega.n, omega.r, omega.mode
    one, zero = Form.constant(n, 1, mode), Form.zero(n, mode)
    minor_sums = [one] + [zero] * k

    def visit(rows: tuple, memo: list):
        # depth first over the row subsets that extend ``rows``, in
        # lexicographic order; see the module docstring
        for s in range(rows[-1] + 1 if rows else 0, r):
            sub, sub_memo = rows + (s,), memo + [{}]
            i = len(sub)
            minor_sums[i] = minor_sums[i] + leibniz_det(omega.entries, one, zero, Form.wedge,
                                                        sub, sub_memo)
            if i < k:
                visit(sub, sub_memo)

    visit((), [])
    # visit refers to itself: drop it so the cycle does not keep
    # ``minor_sums`` alive until the next garbage collection
    del visit
    return minor_sums


@functools.lru_cache(maxsize=GRAM_CACHE_SIZE)
def _gram_step(n: int, m: int, d: int, dtype: np.dtype) -> tuple:
    """Index tables that grow Phi over the rows S into Phi over S + (s,),
    |S| = d, for ``_gram_blocks``.

    Rows of Phi are the size-d multisets kappa of the m columns, in
    ``combinations_with_replacement`` order, then one zero row; its columns
    are the d-subsets J of the n directions, in ``combinations`` order.
    Expanding the new row last,

        Phi'[kappa', J'] = sum over distinct k in kappa' and p in J' of
                           (-1)^(d - pos(p, J')) Phi[kappa' - {k}, J' - {p}] T[p, s, k].

    Returns (kappa_src, col, j_src, direction, sign, weight):
    ``kappa_src[a, t]`` and ``col[a, t]`` name the source row and the column k
    of the t-th distinct k of kappa'_a (padded with the zero row),
    ``j_src[b, t]``, ``direction[b, t]`` and ``sign[b, t]`` the source column,
    the direction p and the sign of the t-th p of J'_b, and ``weight[a]`` is
    |Stab kappa'_a| (0 on the zero row).  ``sign`` and ``weight`` hold scalars
    of ``dtype``: Python ints for object arrays.
    """
    kappas = {kappa: a for a, kappa in
              enumerate(itertools.combinations_with_replacement(range(m), d))}
    subsets = {j: b for b, j in enumerate(itertools.combinations(range(n), d))}
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
    j_src, direction, sign = [], [], []
    for j in itertools.combinations(range(n), d + 1):
        j_src.append([subsets[j[:t] + j[t + 1:]] for t in range(d + 1)])
        direction.append(list(j))
        # dz^p moves left past the d - t directions of J' above it
        sign.append([(-1) ** (d - t) for t in range(d + 1)])
    return (np.array(kappa_src), np.array(col), np.array(j_src), np.array(direction),
            np.array(sign, dtype=dtype), np.array(weight, dtype=dtype))


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
        kappa_src, col, j_src, direction, sign, weight = _gram_step(n, m, d, tensor.dtype)
        # Phi[kappa' - {k}, J' - {p}], shared by every next row s
        gathered = phi[kappa_src][:, :, j_src]
        signed = tensor[direction] * sign[:, :, None, None]
        for s in range(start, r):
            nxt = np.einsum("kajb,jbka->kj", gathered, signed[:, :, s][..., col])
            blocks[d + 1] += np.einsum("kj,k,kl->jl", nxt, weight, nxt.conj())
            if d + 1 < k:
                stack.append((s + 1, d + 1, nxt))
    return blocks


@functools.lru_cache(maxsize=GRAM_CACHE_SIZE)
def _key_order(n: int, i: int) -> tuple:
    """The (i,i) keys (h, a) in the order in which the left-to-right wedge
    of i dense (1,1)-forms with keys in (p, q) order first meets them, the
    key order of c_1^i and of the walk's c_i, each with the positions of h
    and a in ``combinations`` order.  Chern forms in one key order share
    the pair plans of ``Form.wedge``."""
    pos = {sum(1 << p for p in j): b for b, j in enumerate(itertools.combinations(range(n), i))}
    ones = [(1 << p, 1 << q) for p in range(n) for q in range(n)]
    keys = [(0, 0)]
    for _ in range(i):
        keys = list(dict.fromkeys((h | h1, a | a1) for h, a in keys for h1, a1 in ones
                                  if not (h & h1 or a & a1)))
    return tuple((key, pos[key[0]], pos[key[1]]) for key in keys)


def _factor_tensor(witness) -> np.ndarray:
    """T[p, i, k] with A_ik = sum_p T[p, i, k] dz^p, read off the factor:
    complex, or objects (``GaussianRational`` and the int 0) in exact mode."""
    t = np.zeros((witness.n, witness.r, witness.m), object if witness.mode == EXACT else complex)
    for i, row in enumerate(witness.entries):
        for k, entry in enumerate(row):
            for (h, _), c in entry.terms.items():
                t[h.bit_length() - 1, i, k] = c
    return t


def _checked_tensor(tensor: CurvatureTensor) -> np.ndarray:
    """T[p, i, k] of a tensor instance, as ``_factor_tensor`` reads it off
    ``factor_from_tensor(tensor)``: a nonzero entry times the 1 + 0j of
    dz^p, the multiply of ``Form.scale``, and an exactly zero one as 0j.

    Raises the ``InputError`` of ``CurvatureMatrix`` when a coefficient
    sum_k T[p, i, k] conj(T[q, j, k]) of Omega = A ^ conj(A^t) is not
    finite, summed in k order as ``FactorMatrix.product`` sums it, naming
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


def chern_forms(omega: Union[CurvatureMatrix, CurvatureTensor]) -> ChernFormSet:
    """Chern forms of a curvature matrix, through degree min(r, n), n the
    base dimension of its entries.  A witnessed ``omega`` takes its forms
    from the Gram blocks of its factor, an unwitnessed one from the Leibniz
    walk over its principal minors (see the module docstring).  The result
    inherits the scalar mode of ``omega`` and records whether ``omega`` was
    witnessed.

    A ``CurvatureTensor`` stands for the float curvature
    ``bott_chern_curvature(factor_from_tensor(tensor))`` and gives the same
    forms, bit for bit, without building it: it is witnessed by
    construction, and its Gram route reads T off the tensor directly
    (``_checked_tensor``, which also raises that curvature's overflow error).
    """
    tensor = isinstance(omega, CurvatureTensor)
    n, r = omega.n, omega.r
    mode = FLOAT if tensor else omega.mode
    k = min(r, n)
    out = [Form.constant(n, 1, mode)]
    if not tensor and omega.witness is None:
        minor_sums = _minor_sums(omega, k)
        for i in range(1, k + 1):
            if mode == EXACT:
                out.append(minor_sums[i].scale(_PHASES[i % 4]))
            else:
                out.append(minor_sums[i].scale((1j / (2.0 * math.pi)) ** i))
    else:
        t = _checked_tensor(omega) if tensor else _factor_tensor(omega.witness)
        blocks = _gram_blocks(t, k)
        for i in range(1, k + 1):
            # (sqrt(-1))^i (-1)^(i(i-1)/2) = (sqrt(-1))^(i^2), and i^2 = i mod 2
            if mode == EXACT:
                scaled = blocks[i] * _PHASES[i & 1]
            else:
                scaled = blocks[i] * ((1j if i & 1 else 1.0) * (2.0 * math.pi) ** -i)
            rows = scaled.tolist()
            out.append(Form._raw(n, mode, {key: c for key, a, b in _key_order(n, i)
                                           if (c := rows[a][b])}))
    return ChernFormSet(n=n, r=r, forms=tuple(out), mode=mode,
                        witnessed=tensor or omega.witnessed)


def chern_product(cs: ChernFormSet, parts: Sequence[int]) -> Form:
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
