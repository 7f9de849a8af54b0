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
dz^J ^ dzbar^K and J, K in ``itertools.combinations`` order.  Curvature
entries and Chern, Schur and chain-step forms are blocks, and ``Form`` is
the type of general literals: ``read_literal`` reads a (p,p) literal into
its block and ``PPForm.to_literal`` writes it.  The wedge of a (p,p)- and
a (q,q)-block is

    (F ^ G)[I u J, K u L] = (-1)^(pq) eps(I, J) eps(K, L) F[I, K] G[J, L],

summed over the disjoint pairs, eps the sign that sorts the concatenation
(CONVENTIONS.md, "Coefficient blocks").  ``PPForm.wedge`` gathers every
pair's product from flat index tables cached per (n, p, q) and sums them
with numpy.  A float block is a complex128 array.  An exact block is held
as Gaussian-integer numerators, object arrays of Python ints, over one
denominator, and its arithmetic runs on the numerators; it builds
``GaussianRational``s only for readers (``PPForm.block``, ``to_form``).

The loop order of ``Form.wedge`` and of ``Form.__add__`` is part of the
contract: it fixes the key order of every result and the order of every
float sum.  ``_sum_terms`` adds the repeated terms of a literal in literal
order (``Form.from_literal``, ``read_literal``), which fixes the float
coefficients a report prints.

Evaluation pairs a homogeneous (p,p)-form with a p-tuple of tangent vectors
X = (X_1, ..., X_p):

    evaluate(phi, X) = (-sqrt(-1))^(p^2) * sum_terms c
                        * det(X_b^{i_a}) * conj(det(X_b^{j_a}))

(the determinant pairing, no 1/p! factor).  With this normalization
(sqrt(-1))^(p^2) * psi ^ conj(psi) evaluates to |pairing(psi, X)|^2 for any
(p,0)-form psi, so forms of that shape are pointwise nonnegative, and the
standard volume normalization holds:

    evaluate(prod_j sqrt(-1) dz^j ^ dzbar^j, (e_1, ..., e_n)) = 1.

``evaluate`` runs this sum over the form's terms in either scalar mode,
and expands only the minors of their masks, each once (``_minor``).  On a
block it is (-sqrt(-1))^(p^2) d^T H conj(d), where d holds the p x p minors
d_J = det(X_b^{j_a}) over every p-subset J.  For a float batch of tuples
``_minors`` computes d in one row-by-row Laplace pass: the minors of rows
0..k come from those of rows 0..k-1 by expanding along row k, with index
tables cached per (n, k), at every p up to n.

``nonnegative_sampled`` Monte-Carlo-checks that nonnegativity against
standard complex normal tuples from a seeded counter-based stream.  The
checks of one degree can share one ``TupleBatch``: one seeded draw of
tuples with its minors, taken once, which each check pairs with its own
block.  Every method that decides a check, sampled or not
(``schur.nonnegative_psd``), first makes the checks of ``_real_float``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import InputError
from .rng import complex_normal, substream
from .scalars import (
    EXACT,
    FLOAT,
    GaussianRational,
    _raw as _raw_scalar,
    _reduced,
    check_same_mode,
    coerce,
    exact_fields,
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
        return Form._raw(self.n, self.mode,
                         _sum_terms(itertools.chain(self.terms.items(), other.terms.items())))

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
        products = (((h1 | h2, a1 | a2),
                     -(c1 * c2) if (a1.bit_count() * h2.bit_count() + _inversions(h1, h2)
                                  + _inversions(a1, a2)) & 1 else c1 * c2)
                    for (h1, a1), c1 in self.terms.items()
                    for (h2, a2), c2 in other.terms.items() if not (h1 & h2 or a1 & a2))
        return Form._raw(self.n, self.mode, _sum_terms(products))

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
        n, terms = _literal_terms(obj, mode)
        if mode == EXACT:
            terms = [(key, _raw_scalar(*c)) for key, c in terms]
        return cls._raw(n, mode, _sum_terms(terms))

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


def _literal_terms(obj, mode: str) -> tuple[int, list]:
    """n and the nonzero terms ((dz mask, dzbar mask), c) of a Form literal,
    checked in order; c is a complex, or the exact fields (x, y, d)."""
    if not isinstance(obj, dict):
        raise InputError("form literal must be an object with fields 'n' and 'terms'")
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError("form literal field 'n': expected an integer")
    raw_terms = obj.get("terms")
    if not isinstance(raw_terms, list):
        raise InputError("form literal field 'terms': expected a list")
    Form(n, mode)  # rejects a bad n or mode before any term is read
    out = []
    for pos, t in enumerate(raw_terms):
        where = f"form literal terms[{pos}]"
        if not isinstance(t, dict):
            raise InputError(f"{where}: expected an object")
        dz, dzbar = t.get("dz", []), t.get("dzbar", [])
        if not isinstance(dz, list) or not isinstance(dzbar, list):
            raise InputError(f"{where}: 'dz' and 'dzbar' must be index lists")
        if bool in map(type, dz + dzbar):
            name = "dz" if bool in map(type, dz) else "dzbar"
            raise InputError(f"{where}.{name}: expected integer indices")
        re, im = t.get("re", 0), t.get("im", 0)
        if mode == EXACT and type(re) is int and type(im) is int:
            c = re, im, 1  # int parts are numerators as they stand
        else:
            c = parse_scalar(t, mode, where)
            c = exact_fields(c) if mode == EXACT else c
        try:
            key = (_indices_to_mask(dz, n), _indices_to_mask(dzbar, n))
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from exc
        if c if mode == FLOAT else c[0] or c[1]:
            out.append((key, c))
    return n, out


def _sum_terms(terms: Iterable) -> dict:
    """Terms (key, c) summed per key in order, as every ``Form`` sum is."""
    out: dict = {}
    for key, c in terms:
        acc = out.get(key)
        total = c if acc is None else acc + c
        if not total:
            # an exactly zero sum drops its key; a later term puts it back at the end
            out.pop(key, None)
        else:
            out[key] = total
    return out


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
    ``combinations`` order.  In float mode it is the complex128 array the
    form holds.  In exact mode the form holds Gaussian-integer numerators
    over one denominator, block = (re + im*i) / den: ``re`` and ``im`` are
    object arrays of Python ints and ``den`` an int, normalised so that
    den > 0 and gcd(den, every numerator) = 1, so equal blocks have equal
    fields.  Exact arithmetic runs on the numerators; ``block`` is then an
    object array of normalised ``GaussianRational``, built on each access,
    and ``re``, ``im`` and ``den`` are None in float mode.  The zero form of
    any degree is the zero of every degree: it adds to a form of another
    degree.  Immutable by convention, like ``Form``.
    """

    __slots__ = ("n", "p", "mode", "_block", "re", "im", "den")

    def __init__(self, n: int, p: int, mode: str, block: np.ndarray):
        """A block of ``mode``'s scalars; an exact one (``GaussianRational``,
        int or Fraction entries) is split into numerators over the least
        common denominator."""
        size = math.comb(n, p)
        if block.shape != (size, size):
            raise InputError(f"a ({p},{p})-block on n={n} must be {size} x {size}, "
                             f"got {block.shape}")
        self.n = n
        self.p = p
        self.mode = mode
        if mode == EXACT:
            fields = [exact_fields(c) for c in block.flat]
            den = math.lcm(*(d for _, _, d in fields))
            self._block = None
            self.re = np.array([x * (den // d) for x, _, d in fields], object).reshape(size, size)
            self.im = np.array([y * (den // d) for _, y, d in fields], object).reshape(size, size)
            self.den = den
        else:
            self._block = block
            self.re = self.im = self.den = None

    @classmethod
    def _exact(cls, n: int, p: int, re: np.ndarray, im: np.ndarray, den: int) -> "PPForm":
        """The exact form (re + im*i) / den, den > 0, normalised."""
        if den != 1:
            g = math.gcd(den, *re.flat, *im.flat)
            if g != 1:
                re, im, den = re // g, im // g, den // g
        self = object.__new__(cls)
        self.n, self.p, self.mode, self._block = n, p, EXACT, None
        self.re, self.im, self.den = re, im, den
        return self

    @property
    def block(self) -> np.ndarray:
        """The coefficient block: the float array itself, or the exact
        entries as a new object array of normalised ``GaussianRational``."""
        if self.mode == FLOAT:
            return self._block
        den = self.den
        return np.frompyfunc(lambda x, y: _reduced(x, y, den), 2, 1)(self.re, self.im)

    @classmethod
    def zero(cls, n: int, p: int, mode: str = FLOAT) -> "PPForm":
        size = math.comb(n, p)
        return cls(n, p, mode, np.zeros((size, size), object if mode == EXACT else complex))

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
        p = p or 0
        size = math.comb(form.n, p)
        block = np.zeros((size, size), object if form.mode == EXACT else complex)
        row = {mask: b for b, mask in enumerate(_masks(form.n, p))}
        for (h, a), c in form.terms.items():
            block[row[h], row[a]] = c
        return cls(form.n, p, form.mode, block)

    def to_form(self) -> Form:
        """The same form as a ``Form``, its keys in block order."""
        masks = _masks(self.n, self.p)
        return Form._raw(self.n, self.mode, {(h, a): c for h, row in zip(masks, self.block.tolist())
                                             for a, c in zip(masks, row) if c})

    def literal_terms(self) -> tuple[list, list]:
        """The terms ``to_literal`` writes: the index tuple of each p-subset
        in block order, and each nonzero entry, sorted by (dz mask, dzbar
        mask), as (row, column, re, im), each part the float of
        ``to_float``: an exact part is its numerator x as x / den, entry by
        entry.  An exact entry is nonzero by its numerators, so one whose
        float underflows to 0.0 is kept."""
        masks = _masks(self.n, self.p)
        order = sorted(range(len(masks)), key=masks.__getitem__)
        labels = [_mask_to_indices(mask) for mask in masks]
        if self.mode == FLOAT:
            rows = self._block.tolist()
            return labels, [(b, c, z.real, z.imag) for b in order for c in order
                            if (z := rows[b][c])]
        re, im, den = self.re.tolist(), self.im.tolist(), self.den
        try:
            return labels, [(b, c, re[b][c] / den, im[b][c] / den) for b in order for c in order
                            if re[b][c] or im[b][c]]
        except OverflowError as exc:
            raise InputError("an exact value lies beyond the float range of the report") from exc

    def to_literal(self) -> dict:
        """``to_form().to_literal()``, read off the block by ``literal_terms``."""
        labels, terms = self.literal_terms()
        return {"n": self.n, "terms": [{"dz": list(labels[b]), "dzbar": list(labels[c]),
                                        "re": re, "im": im} for b, c, re, im in terms]}

    @property
    def terms(self) -> dict:
        """The nonzero coefficients keyed by (dz mask, dzbar mask), as a
        ``Form`` holds them; built on each access."""
        return self.to_form().terms

    def is_zero(self) -> bool:
        if self.mode == FLOAT:
            return not self._block.any()
        return not (self.re.any() or self.im.any())

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _check_compatible(self, other: "PPForm", what: str):
        if not isinstance(other, PPForm):
            raise InputError(f"{what} requires two coefficient blocks, got {type(other).__name__}")
        if self.n != other.n:
            raise InputError(f"{what} requires matching base dimension: {self.n} vs {other.n}")
        check_same_mode(self.mode, other.mode, what)

    def __add__(self, other: "PPForm") -> "PPForm":
        """The sum; exact numerators are brought to the least common
        denominator of the two blocks."""
        self._check_compatible(other, "addition")
        if self.p != other.p:
            if other.is_zero():
                return self
            if self.is_zero():
                return other
            raise InputError(f"addition of a ({self.p},{self.p})- and a "
                             f"({other.p},{other.p})-form")
        if self.mode == FLOAT:
            return PPForm(self.n, self.p, FLOAT, self._block + other._block)
        d, e = self.den, other.den
        if d == e:
            return PPForm._exact(self.n, self.p, self.re + other.re, self.im + other.im, d)
        g = math.gcd(d, e)
        s, t = e // g, d // g
        return PPForm._exact(self.n, self.p, self.re * s + other.re * t,
                             self.im * s + other.im * t, d * s)

    def __neg__(self) -> "PPForm":
        if self.mode == FLOAT:
            return PPForm(self.n, self.p, FLOAT, -self._block)
        return PPForm._exact(self.n, self.p, -self.re, -self.im, self.den)

    def _times(self, x: int, y: int, d: int) -> "PPForm":
        """An exact form times (x + y*i) / d."""
        re, im = self.re, self.im
        return PPForm._exact(self.n, self.p, re * x - im * y, re * y + im * x, self.den * d)

    def scale(self, value) -> "PPForm":
        """Multiply every coefficient by a scalar of this form's mode."""
        if self.mode == FLOAT:
            return PPForm(self.n, self.p, FLOAT, self._block * coerce(value, FLOAT))
        return self._times(*exact_fields(value))

    def wedge(self, other: "PPForm") -> "PPForm":
        """self ^ other: H = (-1)^(pq) S^T (F[i1, i1] o G[i2, i2]) S for the
        signed shuffle S of ``_shuffle`` (module docstring).  Exact blocks
        multiply their numerators, re = a c - b e and im = a e + b c for
        F = (a + b*i) / D and G = (c + e*i) / E, over the denominator D E."""
        self._check_compatible(other, "wedge")
        n, p, q, mode = self.n, self.p, other.p, self.mode
        if p == 0:
            if mode == FLOAT:
                return PPForm(n, q, FLOAT, self._block[0, 0] * other._block)
            return other._times(self.re[0, 0], self.im[0, 0], self.den)
        if q == 0:
            if mode == FLOAT:
                return PPForm(n, p, FLOAT, self._block * other._block[0, 0])
            return self._times(other.re[0, 0], other.im[0, 0], other.den)
        if p + q > n:
            return PPForm.zero(n, p + q, mode)
        f_index, g_index, outer, inner = _shuffle(n, p, q)
        shape = (outer * outer, inner * inner)
        if mode == FLOAT:
            flat = self._block.ravel()
            signed = np.concatenate((flat, -flat))
            products = signed.take(f_index) * other._block.ravel().take(g_index)
            block = products.reshape(shape).sum(axis=1)
            return PPForm(n, p + q, FLOAT, block.reshape(outer, outer))
        a, b = self.re.ravel(), self.im.ravel()
        a = np.concatenate((a, -a)).take(f_index)
        b = np.concatenate((b, -b)).take(f_index)
        c, e = other.re.ravel().take(g_index), other.im.ravel().take(g_index)
        re = (a * c - b * e).reshape(shape).sum(axis=1).reshape(outer, outer)
        im = (a * e + b * c).reshape(shape).sum(axis=1).reshape(outer, outer)
        return PPForm._exact(n, p + q, re, im, self.den * other.den)

    def to_float(self) -> "PPForm":
        """The float form; an exact entry becomes the correctly rounded
        quotient of its numerators by the denominator, as
        ``complex(GaussianRational)`` gives it."""
        if self.mode == FLOAT:
            return self
        block = np.empty(self.re.shape, complex)
        block.real = self.re / self.den
        block.imag = self.im / self.den
        return PPForm(self.n, self.p, FLOAT, block)

    def __eq__(self, other):
        if not isinstance(other, PPForm):
            return NotImplemented
        return self.n == other.n and self.mode == other.mode and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.mode, frozenset(self.terms.items())))

    def __repr__(self):
        return repr(self.to_form())


def read_literal(obj, mode: str, p: int) -> Union[PPForm, Form]:
    """The block of a (p,p)-form literal, with the errors and sums of
    ``Form.from_literal`` and no ``Form`` built (exact terms as numerators
    over one denominator); one with a nonzero sum off degree (p,p) is
    returned as its ``Form``, for the caller to refuse."""
    n, terms = _literal_terms(obj, mode)
    position = {mask: b for b, mask in enumerate(_masks(n, p))}
    if any(h not in position or a not in position for (h, a), _ in terms):
        form = Form.from_literal(obj, mode)
        return PPForm.from_form(form, p) if form.is_homogeneous(p, p) else form
    size = len(position)
    if mode == FLOAT:
        block = np.zeros((size, size), complex)
        for (h, a), c in _sum_terms(terms).items():
            block[position[h], position[a]] = c
        return PPForm(n, p, FLOAT, block)
    den = math.lcm(*(d for _, (_, _, d) in terms))
    re, im = np.zeros((2, size, size), object)
    for (h, a), (x, y, d) in terms:
        re[position[h], position[a]] += x * (den // d)
        im[position[h], position[a]] += y * (den // d)
    return PPForm._exact(n, p, re, im, den)


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
    # sum over the form's terms, not its C(n,p)^2 block: a literal may have
    # few terms; only the minors of the terms' masks, and their sub-minors,
    # are expanded
    zero = coerce(0, form.mode)
    entries, minors, rows = [[x or None for x in v] for v in vecs], {}, tuple(range(p))
    minor = {mask: _minor(entries, rows, tuple(j - 1 for j in _mask_to_indices(mask)), minors,
                          operator.mul) or zero
             for mask in {mask for key in form.terms for mask in key}}
    minor_bar = {mask: d.conjugate() for mask, d in minor.items()}
    total = zero
    for (h, a), c in form.terms.items():
        total = total + c * minor[h] * minor_bar[a]
    # (-i)^(p^2): 1 for even p, -i for odd p
    return total * (GaussianRational(0, -1) if form.mode == EXACT else -1j) if p & 1 else total


def _minor(entries: list, rows: tuple, cols: tuple, minors: dict, mul: Callable):
    """det M[rows, cols] = sum_t (-1)^(d+t) mul(det M[rows[:-1], cols - {cols[t]}],
    M[rows[-1], cols[t]]), d = len(rows) - 1, over scalars, blocks or
    polynomials, or None when it vanishes (as a zero entry is); each minor
    of two or more rows is computed once and kept under (rows, cols)."""
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
        sub = _minor(entries, head, cols[:t] + cols[t + 1:], minors, mul)
        if sub is None:
            continue
        term = -mul(sub, entry) if (d + t) & 1 else mul(sub, entry)
        total = term if total is None else total + term
    minors[key] = total if total else None
    return minors[key]


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
    """The p x p minors d_J = det(X_b^{j_a}) of a complex (t, p, n) batch of
    tuples, p >= 1, over every p-subset J in ``combinations`` order: a
    (t, C(n,p)) complex array.

    One Laplace pass at every p: the minors of row 0 are its entries, and
    row k grows the minors of rows 0..k-1 into those of rows 0..k
    (``_laplace_step``)."""
    minors = samples[:, 0, :]
    p, n = samples.shape[1:]
    for k in range(1, p):
        src, direction, sign = _laplace_step(n, k, samples.dtype)
        minors = (samples[:, k, direction] * minors[:, src] * sign).sum(axis=2)
    return minors


def _pairing(form: PPForm, samples: np.ndarray,
             minors: Optional[np.ndarray] = None) -> np.ndarray:
    """Evaluate a float block on a (t, p, n) batch of vector tuples:
    (-sqrt(-1))^(p^2) d^T H conj(d) per tuple, with the minors d of every
    p-subset as given, or else from one Laplace pass (``_minors``)."""
    t, p, n = samples.shape
    if p == 0:
        return np.full(t, form.block[0, 0], dtype=complex)
    if minors is None:
        minors = _minors(samples)
    vals = ((minors @ form.block) * minors.conj()).sum(axis=1)
    return ((-1j) ** (p * p % 4)) * vals


# ----------------------------------------------------------------------
# sampled nonnegativity


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of a pointwise-nonnegativity check (report schema 2).

    ``method`` names what decided it: ``"sampled"`` (``nonnegative_sampled``),
    ``"top-coefficient"`` or ``"psd"`` (``nonnegative_psd``, at degrees n
    and 1, n-1), or ``"exact-zero"`` for a form that is exactly zero.
    ``min_value`` is the least value seen: over the sampled tuples, or over
    the tuples with unit minors for ``"top-coefficient"`` and ``"psd"``.
    ``argmin`` is the index of the minimizing tuple in the batch that
    ``seed`` draws, and None when nothing was sampled; the tuple itself, as
    [[{re, im}, ...], ...], is the ``witness`` of a failed check only, since
    ``complex_normal(substream(seed, 0), (trials, degree, n))[argmin]``
    regenerates it bit for bit.  A failed check decided from its block has
    a witness built from the block (CONVENTIONS.md, "Check reports").
    ``margin`` is min_value / (tol * scale): below -1 is a FAIL.
    """

    passed: bool
    min_value: float
    trials: int
    seed: int
    tol: float
    scale: float
    degree: int
    witness: Optional[list] = None          # tuple of a FAIL, [[{re,im}, ...], ...]
    max_imag: float = 0.0                   # largest |Im| seen: of the samples, or
                                            # of the coefficients when unsampled
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


@dataclass(frozen=True, eq=False)
class TupleBatch:
    """``trials`` standard complex normal ``degree``-tuples of tangent
    vectors in n directions, ``complex_normal(substream(seed, 0), (trials,
    degree, n))``, and their minors of size ``degree`` (``_minors``; None
    at degree 0).  The forms are pointwise statements, so every check of
    one degree can be evaluated on one batch: its minors are taken once,
    and each check pairs them with its own block
    (``nonnegative_sampled(..., batch=)``)."""

    seed: int
    trials: int
    degree: int
    n: int
    samples: np.ndarray
    minors: Optional[np.ndarray]

    @classmethod
    def draw(cls, seed: int, trials: int, degree: int, n: int) -> "TupleBatch":
        if trials < 1:
            raise InputError("trials must be >= 1")
        samples = complex_normal(substream(seed, 0), (trials, degree, n))
        return cls(seed, trials, degree, n, samples, _minors(samples) if degree else None)


def _check_arguments(trials: int, tol: float):
    if trials < 1:
        raise InputError("trials must be >= 1")
    if not 0 < tol < np.inf:
        raise InputError(f"tol must be a finite positive number, got {tol!r}")


def _zero_report(trials: int, seed: int, tol: float) -> VerdictReport:
    return VerdictReport(passed=True, min_value=0.0, trials=trials, seed=seed,
                         tol=tol, scale=1.0, degree=0, method="exact-zero")


def _real_float(form: Union[PPForm, Form], tol: float) -> tuple[PPForm, float, float]:
    """The float block of a nonzero (p,p)-form, with its scale,
    max(1, largest coefficient magnitude), and the largest imaginary
    coefficient of the form: the checks every method makes first."""
    if isinstance(form, Form):
        form = PPForm.from_form(form)
    f = form.to_float()
    block = f.block
    peak = float(np.abs(block).max())
    if not math.isfinite(peak):
        raise InputError(f"form is not finite: largest coefficient magnitude {peak}")
    scale = max(1.0, peak)
    # the conjugate form's block is (-1)^p H^*: Im is half the difference
    imag_norm = 0.5 * float(np.abs(block - (-1) ** f.p * block.conj().T).max())
    if imag_norm > tol * scale:
        raise InputError(
            f"form is not real: max imaginary coefficient {imag_norm:.3e} "
            f"exceeds {tol:.1e} * scale ({scale:.3e})")
    return f, scale, imag_norm


def nonnegative_sampled(form: Union[PPForm, Form], trials: int = 50, seed: int = 0,
                        tol: float = DEFAULT_TOL, *,
                        batch: Optional[TupleBatch] = None) -> VerdictReport:
    """Sample-test pointwise nonnegativity of a real (p,p)-form.

    Draws ``trials`` p-tuples of standard complex normal tangent vectors from
    the Philox stream keyed by ``seed`` and evaluates the form on each; a
    ``batch`` drawn for the same (seed, trials, p, n) stands in for that
    draw and gives the same report, bit for bit.  A batch drawn for other
    values is refused (a zero form has every degree, so only its n is held
    to the batch's).  The check passes iff the minimum value is
    >= -tol * scale, where scale is
    max(1, largest coefficient magnitude).  The report names the argmin
    tuple by its index in the batch; a failed check also carries the tuple
    as its witness.  An exactly zero form passes with method
    ``"exact-zero"``, unsampled.  A ``tol`` that is not finite and positive
    is rejected, and so is a form that is not (p,p), has a coefficient that
    is not finite, or is not real within tol * scale; a min_value or
    max_imag that overflows raises too.  A ``Form`` is converted to its
    block first.
    """
    _check_arguments(trials, tol)
    if batch is not None and (batch.seed, batch.trials, batch.n) != (seed, trials, form.n):
        raise InputError(f"a batch of {batch.trials} trials on n={batch.n} from seed "
                         f"{batch.seed} cannot stand in for {trials} trials on n={form.n} "
                         f"from seed {seed}")
    if form.is_zero():
        return _zero_report(trials, seed, tol)
    f, scale, _ = _real_float(form, tol)
    p = f.p
    if batch is None:
        batch = TupleBatch.draw(seed, trials, p, f.n)
    elif batch.degree != p:
        raise InputError(f"a batch of {batch.degree}-tuples cannot evaluate a ({p},{p})-form")
    vals = _pairing(f, batch.samples, batch.minors)
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
        witness=None if passed else [[scalar_json(z) for z in vec] for vec in batch.samples[arg]],
        max_imag=max_imag,
    )
