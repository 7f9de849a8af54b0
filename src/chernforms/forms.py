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
(one transposition per inversion between the two masks).  ``Form.wedge``
reads the disjointness tests, parities and output keys from a *pair plan*
that depends only on the key orders of its two operands, so it is built
once per pair of key orders and kept in a bounded LRU cache
(``PLAN_CACHE_SIZE`` plans).  Key orders recur: every curvature entry of one
instance has the same keys, and so has every Leibniz prefix of one depth.
Coefficients live in one scalar mode (see ``scalars``): exact Gaussian
rationals or float complex.  Forms are immutable by convention.

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

``nonnegative_sampled`` Monte-Carlo-checks that nonnegativity against
standard complex normal tuples from a seeded counter-based stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _linalg
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

#: pair plans kept by ``Form.wedge``, least recently used dropped first; one
#: ``schur verify`` builds 11 at (n, r) = (4, 5) and 22 at (6, 6)
PLAN_CACHE_SIZE = 128


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


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _pair_plan(keys1: tuple, keys2: tuple) -> tuple:
    """The wedge of a form with keys ``keys1`` and one with keys ``keys2``,
    both in dict order: one row per key of the first, listing
    ``(out_key, j, odd)`` for each key j of the second whose dz and dzbar
    masks are both disjoint from it, in order.  ``odd`` is the parity of
    the sign that sorts the product into canonical order.

    The parities come from tables over the distinct masks: for each
    distinct (dz mask, parity of |dzbar mask|) of ``keys1``, ``rows`` lists
    the keys of ``keys2`` whose dz mask is disjoint from it, in order, with
    the dz part of the parity; ``dzbar_sign`` holds the dzbar part.
    """
    dz2 = {h for h, _ in keys2}
    dzbar2 = {a for _, a in keys2}
    dzbar_sign = {a1: {a2: _inversions(a1, a2) & 1 for a2 in dzbar2 if not a1 & a2}
                  for a1 in {a for _, a in keys1}}
    rows = {}
    for h1, odd in {(h, a.bit_count() & 1) for h, a in keys1}:
        sign = {h2: (_inversions(h1, h2) + odd * h2.bit_count()) & 1
                for h2 in dz2 if not h1 & h2}
        rows[h1, odd] = [(h1 | h2, j, a2, sign[h2])
                         for j, (h2, a2) in enumerate(keys2) if h2 in sign]
    plan = []
    for h1, a1 in keys1:
        a_sign = dzbar_sign[a1]
        plan.append(tuple(((h, a1 | a2), j, h_sign ^ a_sign[a2])
                          for h, j, a2, h_sign in rows[h1, a1.bit_count() & 1]
                          if a2 in a_sign))
    return tuple(plan)


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
        ``other.terms``, each in dict order.  Each product is negated when
        its sign is odd and added to its key, and a key whose sum is exactly
        zero is dropped (a later product re-inserts it at the end).  This
        order is part of the contract (see the module docstring).

        The disjointness tests, signs and output keys come from
        ``_pair_plan``, keyed by the two key orders ``(tuple(self.terms),
        tuple(other.terms))`` and kept for the ``PLAN_CACHE_SIZE`` most
        recently used pairs.  Forms with the same keys in another order get
        another plan.
        """
        self._check_compatible(other, "wedge")
        plan = _pair_plan(tuple(self.terms), tuple(other.terms))
        coeffs = tuple(other.terms.values())
        out: dict = {}
        get = out.get
        for c1, row in zip(self.terms.values(), plan):
            for key, j, odd in row:
                c = c1 * coeffs[j]
                if odd:
                    c = -c
                acc = get(key)
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

    def imag_part_magnitude(self) -> float:
        """max |coefficient| of (phi - conj(phi)) / 2: how far from real."""
        diff = self.to_float() - self.conjugate().to_float()
        return 0.5 * diff.max_coefficient_magnitude()

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

    if form.mode == FLOAT:
        arr = np.array(vecs, dtype=complex).reshape(1, p, form.n)
        return complex(_evaluate_batch(form, arr)[0])

    needed = {h for (h, _) in form.terms} | {a for (_, a) in form.terms}
    dets = {mask: _linalg.det([[v[i - 1] for v in vecs] for i in _mask_to_indices(mask)])
            for mask in needed}
    total = GaussianRational(0)
    for (h, a), c in form.terms.items():
        total = total + c * dets[h] * dets[a].conjugate()
    # (-i)^(p^2): 1 for even p, -i for odd p
    if p & 1:
        total = total * GaussianRational(0, -1)
    return total


def _evaluate_batch(form: Form, samples: np.ndarray) -> np.ndarray:
    """Evaluate a float-mode (p,p)-form on a (t, p, n) batch of vector tuples.
    One batched determinant per distinct index subset."""
    t, p, n = samples.shape
    if form.is_zero():
        return np.zeros(t, dtype=complex)
    if p == 0:
        return np.full(t, form.terms.get((0, 0), 0j), dtype=complex)
    needed = {h for (h, _) in form.terms} | {a for (_, a) in form.terms}
    dets = {}
    for mask in needed:
        cols = [i - 1 for i in _mask_to_indices(mask)]
        dets[mask] = np.linalg.det(samples[:, :, cols])
    vals = np.zeros(t, dtype=complex)
    for (h, a), c in form.terms.items():
        vals += c * dets[h] * np.conj(dets[a])
    return ((-1j) ** (p * p % 4)) * vals


# ----------------------------------------------------------------------
# sampled nonnegativity


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of a sampled pointwise-nonnegativity check."""

    passed: bool
    min_value: float
    trials: int
    seed: int
    tol: float
    scale: float
    degree: int
    witness: Optional[list] = None          # argmin tuple, [[{re,im}, ...], ...]
    max_imag: float = 0.0                   # largest |Im| seen across samples

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_value": self.min_value,
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "scale": self.scale,
            "degree": self.degree,
            "witness": self.witness,
            "max_imag": self.max_imag,
        }


def nonnegative_sampled(form: Form, trials: int = 50, seed: int = 0,
                        tol: float = DEFAULT_TOL) -> VerdictReport:
    """Sample-test pointwise nonnegativity of a real (p,p)-form.

    Draws ``trials`` p-tuples of standard complex normal tangent vectors from
    the Philox stream keyed by ``seed`` and evaluates the form on each.  The
    check passes iff the minimum value is >= -tol * scale, where scale is
    max(1, largest coefficient magnitude).  The argmin tuple is reported as a
    witness either way.  A NaN, infinite or negative ``tol`` is rejected, and
    so is a form that is not (p,p) or not real within tol * scale.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if not 0 <= tol < np.inf:
        raise InputError(f"tol must be a finite nonnegative number, got {tol!r}")
    if form.is_zero():
        return VerdictReport(passed=True, min_value=0.0, trials=trials, seed=seed,
                             tol=tol, scale=1.0, degree=0)
    f = form.to_float()
    if not f.is_homogeneous():
        raise InputError("sampled nonnegativity requires a homogeneous form")
    p, q = f.bidegree()
    if p != q:
        raise InputError(f"sampled nonnegativity requires a (p,p)-form, got ({p},{q})")
    scale = max(1.0, f.max_coefficient_magnitude())
    imag_norm = f.imag_part_magnitude()
    if imag_norm > tol * scale:
        raise InputError(
            f"form is not real: max imaginary coefficient {imag_norm:.3e} "
            f"exceeds {tol:.1e} * scale ({scale:.3e})")

    rng = substream(seed, 0)
    samples = complex_normal(rng, (trials, p, f.n))
    vals = _evaluate_batch(f, samples)
    reals = vals.real
    arg = int(np.argmin(reals))
    min_value = float(reals[arg])
    max_imag = float(np.max(np.abs(vals.imag)))
    return VerdictReport(
        passed=bool(min_value >= -tol * scale),
        min_value=min_value,
        trials=trials,
        seed=seed,
        tol=tol,
        scale=scale,
        degree=p,
        witness=[[scalar_json(z) for z in vec] for vec in samples[arg]],
        max_imag=max_imag,
    )
