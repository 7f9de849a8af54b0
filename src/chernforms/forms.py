"""Pointwise exterior algebra of complex (p,q)-forms.

Everything here lives at a single point of an n-dimensional complex vector
space: a form is a finite sum of monomials

    c * dz^{i_1} ^ ... ^ dz^{i_p} ^ dzbar^{j_1} ^ ... ^ dzbar^{j_q}

with strictly increasing 1-based index lists.  A monomial is keyed by a pair
of bitmasks ``(h, a)`` -- bit ``i-1`` of ``h`` set iff dz^i occurs, bit
``i-1`` of ``a`` set iff dzbar^i occurs -- so wedge products reduce to mask
disjointness tests plus a sign.  The sign comes from sorting
dz^{h1} dzbar^{a1} dz^{h2} dzbar^{a2} into canonical order: dzbar^{a1} hops
over dz^{h2} (|a1| |h2| transpositions), then each family is merge-sorted
(one transposition per inversion between the two masks).  Coefficients live
in one scalar mode (see ``scalars``): exact Gaussian rationals or float
complex.  Forms are immutable by convention.

A homogeneous (p,p)-form also has a dense representation, ``PPForm``: its
C(n,p) x C(n,p) coefficient block H, with H[J, K] the coefficient of
dz^J ^ dzbar^K and J, K in ``itertools.combinations`` order.  Chern, Schur
and chain-step forms compute as blocks, the Laplace expansion of the minors
of a curvature matrix included; ``Form`` is the type of literals, and
``Form.wedge`` multiplies literals (``bott_chern_curvature`` writes its
terms in the same order, without it).  The wedge of a (p,p)- and
a (q,q)-block is

    (F ^ G)[I u J, K u L] = (-1)^(pq) eps(I, J) eps(K, L) F[I, K] G[J, L],

summed over the disjoint pairs, eps the sign that sorts the concatenation
(CONVENTIONS.md, "Coefficient blocks").  ``PPForm.wedge`` gathers every
pair's product from flat index tables cached per (n, p, q) and sums them
with numpy, in either scalar mode.

The loop order of ``Form.wedge`` and of ``Form.__add__`` is part of the
contract: it fixes the key order of every result and the order of every
float sum, and with them the bits of every report.  Reports are
byte-identical for a given seed only while that order stays.

Evaluation pairs a homogeneous (p,p)-form with a p-tuple of tangent vectors
X = (X_1, ..., X_p):

    evaluate(phi, X) = (-sqrt(-1))^(p^2) * sum_terms c
                        * det(X_b^{i_a}) * conj(det(X_b^{j_a}))

(the determinant pairing, no 1/p! factor).  With this normalization
(sqrt(-1))^(p^2) * psi ^ conj(psi) evaluates to |pairing(psi, X)|^2 for any
(p,0)-form psi, so forms of that shape are pointwise nonnegative, and the
standard volume normalization holds:

    evaluate(prod_j sqrt(-1) dz^j ^ dzbar^j, (e_1, ..., e_n)) = 1.

On a block this is (-sqrt(-1))^(p^2) d^T H conj(d), where d holds the p x p
minors d_J = det(X_b^{j_a}) over every p-subset J.  ``_minors`` computes d
in one row-by-row Laplace pass, in either scalar mode: the minors of rows
0..k come from those of rows 0..k-1 by expanding along row k, with index
tables cached per (n, k).  A float tuple with p = n has the one minor
``np.linalg.det`` gives.

``nonnegative_sampled`` Monte-Carlo-checks that nonnegativity against
standard complex normal tuples from a seeded counter-based stream.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import InputError
from .rng import complex_normal, substream
from .scalars import (
    EXACT,
    FLOAT,
    GaussianRational,
    check_same_mode,
    coerce,
    parse_scalar,
    scalar_json,
)

#: hard cap on the ambient complex dimension (two 14-bit masks per key)
MAX_DIM = 14

#: default sampling tolerance: minima down to -tol * scale still PASS
DEFAULT_TOL = 1e-9

#: shuffle tables kept by ``PPForm.wedge``, least recently used dropped
#: first; n = 8 has 28 pairs (p, q), and one ``schur verify`` there builds 23
SHUFFLE_CACHE_SIZE = 64


def _indices_to_mask(indices: Iterable[int], n: int) -> int:
    mask = 0
    prev = 0
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, int) or i < 1 or i > n:
            raise InputError(f"form index {i!r} out of range 1..{n}")
        if i <= prev:
            raise InputError("form indices must be strictly increasing")
        prev = i
        mask |= 1 << (i - 1)
    return mask


def _mask_to_indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _inversions(x: int, y: int) -> int:
    """Number of pairs i in x, j in y with i > j (masks, bit b = index b+1)."""
    count = 0
    while y:
        low = y & -y
        count += (x >> low.bit_length()).bit_count()
        y ^= low
    return count


class Form:
    """Complex differential form at a point, immutable by convention.

    Do not reassign ``n``, ``mode`` or ``terms`` or mutate ``terms`` after
    construction; all operations return new forms.  Addition, wedge and
    comparison require matching ``n`` and scalar mode.
    """

    __slots__ = ("n", "mode", "terms")

    def __init__(self, n: int, mode: str = FLOAT, terms: Optional[dict] = None):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0 or n > MAX_DIM:
            raise InputError(f"base dimension must be an int in 0..{MAX_DIM}, got {n!r}")
        if mode not in (EXACT, FLOAT):
            raise InputError(f"unknown scalar mode {mode!r}")
        clean: dict = {}
        if terms:
            limit = 1 << n
            for (h, a), c in terms.items():
                if h >= limit or a >= limit or h < 0 or a < 0:
                    raise InputError("monomial mask exceeds the base dimension")
                c = coerce(c, mode)
                if c:
                    clean[(h, a)] = c
        self.n = n
        self.mode = mode
        self.terms = clean

    @classmethod
    def _raw(cls, n: int, mode: str, terms: dict) -> "Form":
        # internal fast path: terms already coerced and zero-free
        self = object.__new__(cls)
        self.n = n
        self.mode = mode
        self.terms = terms
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, n: int, mode: str = FLOAT) -> "Form":
        return cls(n, mode, {})

    @classmethod
    def constant(cls, n: int, value, mode: str = FLOAT) -> "Form":
        return cls(n, mode, {(0, 0): value})

    @classmethod
    def monomial(cls, n: int, dz_indices: Sequence[int], dzbar_indices: Sequence[int],
                 coefficient=1, mode: str = FLOAT) -> "Form":
        """c * dz^{i_1} ^ ... ^ dzbar^{j_q} with strictly increasing indices."""
        key = (_indices_to_mask(dz_indices, n), _indices_to_mask(dzbar_indices, n))
        return cls(n, mode, {key: coefficient})

    @classmethod
    def dz(cls, n: int, i: int, mode: str = FLOAT) -> "Form":
        return cls.monomial(n, [i], [], 1, mode)

    @classmethod
    def dzbar(cls, n: int, i: int, mode: str = FLOAT) -> "Form":
        return cls.monomial(n, [], [i], 1, mode)

    # ------------------------------------------------------------------
    # structure

    def is_zero(self) -> bool:
        return not self.terms

    def bidegrees(self) -> set[tuple[int, int]]:
        """Set of (p,q) bidegrees present; empty for the zero form."""
        return {(h.bit_count(), a.bit_count()) for (h, a) in self.terms}

    def is_homogeneous(self, p: Optional[int] = None, q: Optional[int] = None) -> bool:
        """True if all monomials share one bidegree (matching (p,q) if given).
        The zero form is homogeneous of every bidegree."""
        degs = self.bidegrees()
        if not degs:
            return True
        if len(degs) > 1:
            return False
        (dp, dq), = degs
        return (p is None or dp == p) and (q is None or dq == q)

    def bidegree(self) -> tuple[int, int]:
        """The (p,q) of a nonzero homogeneous form."""
        degs = self.bidegrees()
        if len(degs) != 1:
            raise InputError("form is zero or not homogeneous; no single bidegree")
        return next(iter(degs))

    def coefficient(self, dz_indices: Sequence[int], dzbar_indices: Sequence[int]):
        """Coefficient of the canonical monomial with these index lists."""
        key = (_indices_to_mask(dz_indices, self.n), _indices_to_mask(dzbar_indices, self.n))
        c = self.terms.get(key)
        return coerce(0, self.mode) if c is None else c

    def max_coefficient_magnitude(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # ------------------------------------------------------------------
    # algebra

    def _check_compatible(self, other: "Form", what: str):
        if not isinstance(other, Form):
            raise InputError(f"{what} requires two forms, got {type(other).__name__}")
        if self.n != other.n:
            raise InputError(f"{what} requires matching base dimension: {self.n} vs {other.n}")
        check_same_mode(self.mode, other.mode, what)

    def __add__(self, other: "Form") -> "Form":
        self._check_compatible(other, "addition")
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key)
            total = c if acc is None else acc + c
            if not total:
                out.pop(key, None)
            else:
                out[key] = total
        return Form._raw(self.n, self.mode, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form._raw(self.n, self.mode, {k: -c for k, c in self.terms.items()})

    def scale(self, value) -> "Form":
        """Multiply every coefficient by a scalar of this form's mode
        (int and Fraction are accepted in either mode)."""
        c0 = coerce(value, self.mode)
        if not c0:
            return Form.zero(self.n, self.mode)
        return Form._raw(self.n, self.mode, {k: c0 * c for k, c in self.terms.items()})

    def wedge(self, other: "Form") -> "Form":
        """self ^ other.

        Pairs of monomials are visited outer over ``self.terms``, inner over
        ``other.terms``, each in dict order; pairs that share a dz or a dzbar
        index are skipped.  Each product is negated when its sign is odd and
        added to its key, and a key whose sum is exactly zero is dropped (a
        later product re-inserts it at the end).  This order is part of the
        contract (see the module docstring).
        """
        self._check_compatible(other, "wedge")
        out: dict = {}
        for (h1, a1), c1 in self.terms.items():
            for (h2, a2), c2 in other.terms.items():
                if h1 & h2 or a1 & a2:
                    continue
                c = c1 * c2
                if (a1.bit_count() * h2.bit_count() + _inversions(h1, h2)
                        + _inversions(a1, a2)) & 1:
                    c = -c
                key = (h1 | h2, a1 | a2)
                acc = out.get(key)
                total = c if acc is None else acc + c
                if not total:
                    out.pop(key, None)
                else:
                    out[key] = total
        return Form._raw(self.n, self.mode, out)

    def conjugate(self) -> "Form":
        """Complex conjugate: swaps dz and dzbar families with the
        (-1)^{pq} reordering sign, conjugating coefficients."""
        out: dict = {}
        for (h, a), c in self.terms.items():
            sign = -1 if (h.bit_count() * a.bit_count()) & 1 else 1
            cc = c.conjugate()
            out[(a, h)] = -cc if sign < 0 else cc
        return Form._raw(self.n, self.mode, out)

    # ------------------------------------------------------------------
    # comparison / conversion

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.n == other.n and self.mode == other.mode and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.mode, frozenset(self.terms.items())))

    def allclose(self, other: "Form", tol: float = 1e-12) -> bool:
        """Coefficientwise agreement within tol * scale, after converting both
        operands to float mode; scale = max(1, largest coefficient)."""
        if not isinstance(other, Form) or self.n != other.n:
            return False
        a, b = self.to_float(), other.to_float()
        scale = max(1.0, a.max_coefficient_magnitude(), b.max_coefficient_magnitude())
        keys = set(a.terms) | set(b.terms)
        return all(
            abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) <= tol * scale for k in keys
        )

    def to_float(self) -> "Form":
        if self.mode == FLOAT:
            return self
        return Form._raw(self.n, FLOAT, {k: complex(c) for k, c in self.terms.items()})

    # ------------------------------------------------------------------
    # serialization (the Form literal)

    def to_literal(self) -> dict:
        """JSON-able literal: {"n": n, "terms": [{"dz": [...], "dzbar": [...],
        "re": x, "im": y}, ...]} with terms sorted canonically."""
        terms = []
        for (h, a) in sorted(self.terms):
            terms.append({"dz": list(_mask_to_indices(h)), "dzbar": list(_mask_to_indices(a)),
                          **scalar_json(self.terms[(h, a)])})
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_literal(cls, obj, mode: str = FLOAT) -> "Form":
        """Parse a Form literal.  In exact mode the decimal values of "re"/"im"
        are taken exactly (via their decimal string).  Terms with the same
        monomial are summed in literal order; a monomial whose sum is
        exactly zero is dropped, and a later term puts it back at the end."""
        if not isinstance(obj, dict):
            raise InputError("form literal must be an object with fields 'n' and 'terms'")
        n = obj.get("n")
        if isinstance(n, bool) or not isinstance(n, int):
            raise InputError("form literal field 'n': expected an integer")
        raw_terms = obj.get("terms")
        if not isinstance(raw_terms, list):
            raise InputError("form literal field 'terms': expected a list")
        cls.zero(n, mode)  # rejects a bad n or mode before any term is read
        out: dict = {}
        for pos, t in enumerate(raw_terms):
            where = f"terms[{pos}]"
            if not isinstance(t, dict):
                raise InputError(f"form literal {where}: expected an object")
            dz = t.get("dz", [])
            dzbar = t.get("dzbar", [])
            if not isinstance(dz, list) or not isinstance(dzbar, list):
                raise InputError(f"form literal {where}: 'dz' and 'dzbar' must be index lists")
            for name, indices in (("dz", dz), ("dzbar", dzbar)):
                if any(isinstance(i, bool) for i in indices):
                    raise InputError(f"form literal {where}.{name}: expected integer indices")
            coeff = parse_scalar(t, mode, f"form literal {where}")
            try:
                key = (_indices_to_mask(dz, n), _indices_to_mask(dzbar, n))
            except InputError as exc:
                raise InputError(f"form literal {where}: {exc}") from exc
            if not coeff:
                continue
            # the rule of __add__: sum in literal order, drop an exact zero sum
            acc = out.get(key)
            total = coeff if acc is None else acc + coeff
            if not total:
                del out[key]
            else:
                out[key] = total
        return cls._raw(n, mode, out)

    # ------------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return f"Form.zero({self.n}, {self.mode!r})"
        parts = []
        for (h, a) in sorted(self.terms):
            c = self.terms[(h, a)]
            factors = [f"dz{i}" for i in _mask_to_indices(h)]
            factors += [f"dzbar{j}" for j in _mask_to_indices(a)]
            mono = "^".join(factors) if factors else "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)


def wedge(a: Form, b: Form) -> Form:
    return a.wedge(b)


def conjugate(a: Form) -> Form:
    return a.conjugate()


# ----------------------------------------------------------------------
# (p,p)-forms as coefficient blocks


@functools.lru_cache(maxsize=None)
def _masks(n: int, p: int) -> tuple[int, ...]:
    """The mask of each p-subset of the n directions, in ``combinations``
    order: the row and column labels of a (p,p)-block."""
    return tuple(sum(1 << i for i in subset)
                 for subset in itertools.combinations(range(n), p))


@functools.lru_cache(maxsize=SHUFFLE_CACHE_SIZE)
def _shuffle(n: int, p: int, q: int) -> tuple:
    """Gather tables for the wedge of a (p,p)- and a (q,q)-block, p, q >= 1
    and p + q <= n.

    Each of the C(n, p+q) unions U of a p-subset I and a q-subset J is
    split in C(p+q, p) ways, one per I in ``combinations`` order.  For
    unions u, v and splits a, b, entry ((u * C(n, p+q) + v) * C(p+q, p) + a)
    * C(p+q, p) + b of ``f_index`` is the position of F[I_ua, I_vb] in the
    flat [F, -F], in the negated copy when (-1)^(pq) eps(I_ua, J_ua)
    eps(I_vb, J_vb) is -1, and that entry of ``g_index`` is the position of
    G[J_ua, J_vb] in the flat G.  Returns (f_index, g_index, C(n, p+q),
    C(p+q, p)).
    """
    outer, inner = math.comb(n, p + q), math.comb(p + q, p)
    # I takes the positions ``split`` of the sorted union and J the positions
    # ``rest``, so eps(I, J) depends on the split alone
    split = list(itertools.combinations(range(p + q), p))
    rest = [[x for x in range(p + q) if x not in s] for s in split]
    odd = np.array([sum(a > b for a in s for b in r) & 1 for s, r in zip(split, rest)])
    union = np.array(list(itertools.combinations(range(n), p + q)))
    rank = np.zeros(1 << n, dtype=np.intp)
    for k in (p, q):
        rank[list(_masks(n, k))] = np.arange(math.comb(n, k))
    f = rank[(1 << union[:, split]).sum(axis=2)]
    g = rank[(1 << union[:, rest]).sum(axis=2)]
    # axes (u, v, a, b): the splits of one (u, v) are adjacent
    f, g = f.reshape(outer, 1, inner, 1), g.reshape(outer, 1, inner, 1)
    negate = odd[:, None] ^ odd[None, :] ^ (p * q & 1)
    size_f, size_g = math.comb(n, p), math.comb(n, q)
    f_index = ((negate * size_f + f) * size_f + f.transpose(1, 0, 3, 2)).ravel()
    g_index = (g * size_g + g.transpose(1, 0, 3, 2)).ravel()
    return f_index, g_index, outer, inner


class PPForm:
    """Homogeneous (p,p)-form at a point, stored as its coefficient block.

    ``block`` is a C(n,p) x C(n,p) array: entry [J, K] is the coefficient of
    dz^J ^ dzbar^K, with J and K the p-subsets of the n directions in
    ``combinations`` order.  It is complex128 in float mode and an object
    array of ``GaussianRational`` in exact mode.  The zero form of any
    degree is the zero of every degree: it adds to a form of another degree.
    Immutable by convention, like ``Form``.
    """

    __slots__ = ("n", "p", "mode", "block")

    def __init__(self, n: int, p: int, mode: str, block: np.ndarray):
        size = math.comb(n, p)
        if block.shape != (size, size):
            raise InputError(f"a ({p},{p})-block on n={n} must be {size} x {size}, "
                             f"got {block.shape}")
        self.n = n
        self.p = p
        self.mode = mode
        self.block = block

    @classmethod
    def zero(cls, n: int, p: int, mode: str = FLOAT) -> "PPForm":
        size = math.comb(n, p)
        return cls(n, p, mode, np.full((size, size), coerce(0, mode),
                                       object if mode == EXACT else complex))

    @classmethod
    def constant(cls, n: int, value, mode: str = FLOAT) -> "PPForm":
        return cls(n, 0, mode, np.full((1, 1), coerce(value, mode),
                                       object if mode == EXACT else complex))

    @classmethod
    def from_form(cls, form: Form, p: Optional[int] = None) -> "PPForm":
        """The block of a homogeneous (p,p)-form.  A zero form has every
        degree and takes ``p`` (default 0); a nonzero one must have degree
        ``p`` when it is given."""
        degs = form.bidegrees()
        if len(degs) > 1 or any(a != b for a, b in degs):
            raise InputError(f"a coefficient block needs a homogeneous (p,p)-form, "
                             f"got bidegrees {sorted(degs)}")
        if degs:
            (deg, _), = degs
            if p is not None and p != deg:
                raise InputError(f"expected a ({p},{p})-form, got ({deg},{deg})")
            p = deg
        out = cls.zero(form.n, p or 0, form.mode)
        row = {mask: b for b, mask in enumerate(_masks(form.n, out.p))}
        for (h, a), c in form.terms.items():
            out.block[row[h], row[a]] = c
        return out

    def to_form(self) -> Form:
        """The same form as a ``Form``, its keys in block order."""
        masks = _masks(self.n, self.p)
        return Form._raw(self.n, self.mode, {
            (h, a): c for h, row in zip(masks, self.block.tolist())
            for a, c in zip(masks, row) if c})

    @property
    def terms(self) -> dict:
        """The nonzero coefficients keyed by (dz mask, dzbar mask), as a
        ``Form`` holds them; built on each access."""
        return self.to_form().terms

    def is_zero(self) -> bool:
        return not self.block.any()

    def _check_compatible(self, other: "PPForm", what: str):
        if not isinstance(other, PPForm):
            raise InputError(f"{what} requires two coefficient blocks, got {type(other).__name__}")
        if self.n != other.n:
            raise InputError(f"{what} requires matching base dimension: {self.n} vs {other.n}")
        check_same_mode(self.mode, other.mode, what)

    def __add__(self, other: "PPForm") -> "PPForm":
        self._check_compatible(other, "addition")
        if self.p != other.p:
            if other.is_zero():
                return self
            if self.is_zero():
                return other
            raise InputError(f"addition of a ({self.p},{self.p})- and a "
                             f"({other.p},{other.p})-form")
        return PPForm(self.n, self.p, self.mode, self.block + other.block)

    def __neg__(self) -> "PPForm":
        return PPForm(self.n, self.p, self.mode, -self.block)

    def scale(self, value) -> "PPForm":
        """Multiply every coefficient by a scalar of this form's mode."""
        return PPForm(self.n, self.p, self.mode, self.block * coerce(value, self.mode))

    def wedge(self, other: "PPForm") -> "PPForm":
        """self ^ other: H = (-1)^(pq) S^T (F[i1, i1] o G[i2, i2]) S for the
        signed shuffle S of ``_shuffle`` (module docstring)."""
        self._check_compatible(other, "wedge")
        n, p, q = self.n, self.p, other.p
        if p == 0:
            return PPForm(n, q, self.mode, self.block[0, 0] * other.block)
        if q == 0:
            return PPForm(n, p, self.mode, self.block * other.block[0, 0])
        if p + q > n:
            return PPForm.zero(n, p + q, self.mode)
        f_index, g_index, outer, inner = _shuffle(n, p, q)
        flat = self.block.ravel()
        signed = np.concatenate((flat, -flat))
        products = signed.take(f_index) * other.block.ravel().take(g_index)
        block = products.reshape(outer * outer, inner * inner).sum(axis=1)
        return PPForm(n, p + q, self.mode, block.reshape(outer, outer))

    def to_float(self) -> "PPForm":
        if self.mode == FLOAT:
            return self
        return PPForm(self.n, self.p, FLOAT, self.block.astype(complex))

    def __eq__(self, other):
        if not isinstance(other, PPForm):
            return NotImplemented
        return self.n == other.n and self.mode == other.mode and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.mode, frozenset(self.terms.items())))

    def __repr__(self):
        return repr(self.to_form())


# ----------------------------------------------------------------------
# evaluation


def _coerce_vectors(vectors, p: int, n: int, mode: str):
    if len(vectors) != p:
        raise InputError(f"evaluation of a ({p},{p})-form needs {p} tangent vectors, got {len(vectors)}")
    out = []
    for v in vectors:
        comps = [coerce(x, mode) for x in v]
        if len(comps) != n:
            raise InputError(f"tangent vector length {len(comps)} does not match base dimension {n}")
        out.append(comps)
    return out


def evaluate(form: Form, vectors: Sequence[Sequence]) -> complex | GaussianRational:
    """Determinant pairing of a homogeneous (p,p)-form with p tangent vectors.

    Returns a scalar in the form's mode.  For forms in the nonnegative cone
    the result is real and >= 0; reality is not enforced here, callers that
    need it check the imaginary part.
    """
    if form.is_zero():
        return coerce(0, form.mode)
    if not form.is_homogeneous():
        raise InputError("evaluation requires a homogeneous form")
    p, q = form.bidegree()
    if p != q:
        raise InputError(f"evaluation requires a (p,p)-form, got ({p},{q})")
    vecs = _coerce_vectors(vectors, p, form.n, form.mode)
    if p == 0:
        return form.terms[(0, 0)]
    if form.mode == FLOAT:
        arr = np.array(vecs, dtype=complex).reshape(1, p, form.n)
        return complex(_pairing(PPForm.from_form(form), arr)[0])

    # sum over the form's terms, not its C(n,p)^2 block: a literal may have
    # few terms, and exact block products cost a scalar product per entry
    minors = _minors(np.array(vecs, dtype=object).reshape(1, p, form.n))[0]
    minor = dict(zip(_masks(form.n, p), minors))
    total = GaussianRational(0)
    for (h, a), c in form.terms.items():
        total = total + c * minor[h] * minor[a].conjugate()
    # (-i)^(p^2): 1 for even p, -i for odd p
    return total * GaussianRational(0, -1) if p & 1 else total


# one entry per (n, k) and dtype, so n <= MAX_DIM bounds the cache
@functools.lru_cache(maxsize=None)
def _laplace_step(n: int, k: int, dtype: np.dtype) -> tuple:
    """Index tables that grow the k x k minors of rows 0..k-1 of a tuple of
    vectors in n directions into the (k+1) x (k+1) minors of rows 0..k,
    0 <= k < n; at k = 0 the one 0 x 0 minor is 1.  ``_minors`` and the Gram
    route of ``chern`` (``_gram_blocks``, from k = 0) read them.

    Expanding the new row k along the columns j_0 < ... < j_k of J',

        d'[J'] = sum over t of (-1)^(k+t) X[k, j_t] d[J' - {j_t}].

    Returns (src, direction, sign): ``src[b, t]``, ``direction[b, t]`` and
    ``sign[b, t]`` are the position of J'_b - {j_t} among the k-subsets,
    j_t, and (-1)^(k+t), with J'_b the b-th (k+1)-subset in ``combinations``
    order.  ``sign`` holds scalars of ``dtype``: Python ints for object
    arrays.
    """
    subsets = {j: b for b, j in enumerate(itertools.combinations(range(n), k))}
    src, direction, sign = [], [], []
    for j in itertools.combinations(range(n), k + 1):
        src.append([subsets[j[:t] + j[t + 1:]] for t in range(k + 1)])
        direction.append(list(j))
        sign.append([(-1) ** (k + t) for t in range(k + 1)])
    return np.array(src), np.array(direction), np.array(sign, dtype=dtype)


def _minors(samples: np.ndarray) -> np.ndarray:
    """The p x p minors d_J = det(X_b^{j_a}) of a (t, p, n) batch of tuples,
    p >= 1, over every p-subset J in ``combinations`` order: a (t, C(n,p))
    array of the batch's dtype (complex, or object in exact mode).

    One Laplace pass: the minors of row 0 are its entries, and row k grows
    the minors of rows 0..k-1 into those of rows 0..k (``_laplace_step``).
    A float batch with p = n has one minor, the determinant of the tuple,
    and takes it from ``np.linalg.det``."""
    t, p, n = samples.shape
    if p == n and samples.dtype != object:
        return np.linalg.det(samples)[:, None]
    minors = samples[:, 0, :]
    for k in range(1, p):
        src, direction, sign = _laplace_step(n, k, samples.dtype)
        minors = (samples[:, k, direction] * minors[:, src] * sign).sum(axis=2)
    return minors


def _pairing(form: PPForm, samples: np.ndarray) -> np.ndarray:
    """Evaluate a float block on a (t, p, n) batch of vector tuples:
    (-sqrt(-1))^(p^2) d^T H conj(d) per tuple, with the minors d of every
    p-subset from one Laplace pass (``_minors``)."""
    t, p, n = samples.shape
    if p == 0:
        return np.full(t, form.block[0, 0], dtype=complex)
    minors = _minors(samples)
    vals = ((minors @ form.block) * minors.conj()).sum(axis=1)
    return ((-1j) ** (p * p % 4)) * vals


# ----------------------------------------------------------------------
# sampled nonnegativity


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of a sampled pointwise-nonnegativity check (report schema 2).

    ``method`` names what decided it: ``"sampled"``, or ``"exact-zero"`` for
    a form that is exactly zero and so was not sampled.  ``argmin`` is the
    index of the minimizing tuple in the batch that ``seed`` draws (None
    when nothing was sampled); the tuple itself, as [[{re, im}, ...], ...],
    is the ``witness`` of a failed check only, since
    ``complex_normal(substream(seed, 0), (trials, degree, n))[argmin]``
    regenerates it bit for bit.  ``margin`` is min_value / (tol * scale):
    below -1 is a FAIL.
    """

    passed: bool
    min_value: float
    trials: int
    seed: int
    tol: float
    scale: float
    degree: int
    witness: Optional[list] = None          # argmin tuple of a FAIL, [[{re,im}, ...], ...]
    max_imag: float = 0.0                   # largest |Im| seen across samples
    argmin: Optional[int] = None            # index of the argmin tuple in the batch
    method: str = "sampled"

    @property
    def margin(self) -> float:
        return self.min_value / (self.tol * self.scale)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "method": self.method,
            "min_value": self.min_value,
            "margin": self.margin,
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "scale": self.scale,
            "degree": self.degree,
            "argmin": self.argmin,
            "witness": self.witness,
            "max_imag": self.max_imag,
        }


def nonnegative_sampled(form: Union[PPForm, Form], trials: int = 50, seed: int = 0,
                        tol: float = DEFAULT_TOL) -> VerdictReport:
    """Sample-test pointwise nonnegativity of a real (p,p)-form.

    Draws ``trials`` p-tuples of standard complex normal tangent vectors from
    the Philox stream keyed by ``seed`` and evaluates the form on each.  The
    check passes iff the minimum value is >= -tol * scale, where scale is
    max(1, largest coefficient magnitude).  The report names the argmin
    tuple by its index in the batch; a failed check also carries the tuple
    as its witness.  An exactly zero form passes with method
    ``"exact-zero"``, unsampled.  A ``tol`` that is not finite and positive
    is rejected, and so is a form that is not (p,p), has a coefficient that
    is not finite, or is not real within tol * scale; a min_value or
    max_imag that overflows raises too.  A ``Form`` is converted to its
    block first.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if not 0 < tol < np.inf:
        raise InputError(f"tol must be a finite positive number, got {tol!r}")
    if form.is_zero():
        return VerdictReport(passed=True, min_value=0.0, trials=trials, seed=seed,
                             tol=tol, scale=1.0, degree=0, method="exact-zero")
    if isinstance(form, Form):
        form = PPForm.from_form(form)
    f = form.to_float()
    p, block = f.p, f.block
    peak = float(np.abs(block).max())
    if not math.isfinite(peak):
        raise InputError(f"form is not finite: largest coefficient magnitude {peak}")
    scale = max(1.0, peak)
    # the conjugate form's block is (-1)^p H^*: Im is half the difference
    imag_norm = 0.5 * float(np.abs(block - (-1) ** p * block.conj().T).max())
    if imag_norm > tol * scale:
        raise InputError(
            f"form is not real: max imaginary coefficient {imag_norm:.3e} "
            f"exceeds {tol:.1e} * scale ({scale:.3e})")

    rng = substream(seed, 0)
    samples = complex_normal(rng, (trials, p, f.n))
    vals = _pairing(f, samples)
    reals = vals.real
    arg = int(np.argmin(reals))
    min_value = float(reals[arg])
    max_imag = float(np.max(np.abs(vals.imag)))
    if not (math.isfinite(min_value) and math.isfinite(max_imag)):
        raise InputError(f"sampled values overflow: min_value {min_value}, "
                         f"max |Im| {max_imag}")
    passed = bool(min_value >= -tol * scale)
    return VerdictReport(
        passed=passed,
        min_value=min_value,
        trials=trials,
        seed=seed,
        tol=tol,
        scale=scale,
        degree=p,
        argmin=arg,
        witness=None if passed else [[scalar_json(z) for z in vec] for vec in samples[arg]],
        max_imag=max_imag,
    )
