"""Sparse polynomials with exact coefficients, optionally truncated.

One class serves two rings.  Without caps it is Q[c_1, ..., c_r], the
polynomials in the Chern variables that Schur polynomials, chain steps and
the universal Todd polynomials live in.  With caps (k_1, ..., k_s) it is the
truncated ring Q[x_1, ..., x_s]/(x_j^{k_j + 1}) of a closed-form model,
where every monomial beyond a cap is zero.

Terms keep the order in which arithmetic first produced them, and that
order is part of the contract: ``schur.evaluate_on_forms`` sums float forms
in ``terms`` order, so a reordering would move report bits.  Grading is
left to the callers (``weighted_degree`` below for the Chern grading,
plain exponent sums for the model rings).
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import InputError
from .scalars import _EXACT_PARTS


def weighted_degree(exps: tuple[int, ...]) -> int:
    """Degree of a monomial when variable j (1-based) has degree j, the
    grading of the Chern classes."""
    return sum(j * e for j, e in enumerate(exps, start=1))


def _checked_caps(nvars: int, caps) -> Optional[tuple[int, ...]]:
    """``caps`` as a tuple of ints, after checking ``nvars`` and ``caps``."""
    if nvars < 0:
        raise InputError("number of variables must be nonnegative")
    if caps is not None:
        caps = tuple(int(c) for c in caps)
        if len(caps) != nvars:
            raise InputError("polynomial caps need one entry per variable")
    return caps


class Polynomial:
    """Polynomial in ``nvars`` variables with int or Fraction coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero
    coefficients.  ``caps`` is None for a free polynomial ring, or one
    nilpotency cap per variable.  Each (``nvars``, ``caps``) pair is a ring
    of its own: polynomials of different ranks or caps never mix (arithmetic
    raises ``InputError``) and never compare equal, so c_1 over rank 2 and
    c_1 over rank 5 are different polynomials.  Immutable by convention.
    """

    __slots__ = ("nvars", "caps", "terms")

    def __init__(self, nvars: int, terms: Optional[dict] = None,
                 caps: Optional[tuple[int, ...]] = None):
        caps = _checked_caps(nvars, caps)
        clean: dict = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise InputError("exponent tuples must be nonnegative and of length nvars")
            if isinstance(coeff, bool) or not isinstance(coeff, _EXACT_PARTS):
                raise InputError("polynomial coefficients must be exact (int or Fraction)")
            if caps is not None and any(e > c for e, c in zip(exps, caps)):
                continue  # beyond a nilpotency cap: the monomial is zero
            clean[exps] = clean.get(exps, 0) + coeff
        self.nvars = nvars
        self.caps = caps
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def _raw(cls, nvars: int, caps: Optional[tuple[int, ...]], terms: dict) -> "Polynomial":
        # internal fast path: terms already valid, within the caps and zero-free
        self = object.__new__(cls)
        self.nvars = nvars
        self.caps = caps
        self.terms = terms
        return self

    @classmethod
    def _monomial(cls, nvars: int, caps, exps: tuple[int, ...]) -> "Polynomial":
        # coefficient 1, or zero beyond a nilpotency cap as in __init__
        caps = _checked_caps(nvars, caps)
        beyond = caps is not None and any(e > c for e, c in zip(exps, caps))
        return cls._raw(nvars, caps, {} if beyond else {exps: 1})

    @classmethod
    def zero(cls, nvars: int, caps: Optional[tuple[int, ...]] = None) -> "Polynomial":
        return cls._raw(nvars, _checked_caps(nvars, caps), {})

    @classmethod
    def one(cls, nvars: int, caps: Optional[tuple[int, ...]] = None) -> "Polynomial":
        return cls._monomial(nvars, caps, (0,) * nvars)

    @classmethod
    def variable(cls, j: int, nvars: int,
                 caps: Optional[tuple[int, ...]] = None) -> "Polynomial":
        """The j-th variable, 1-based."""
        if not 1 <= j <= nvars:
            raise InputError(f"variable index {j} out of range 1..{nvars}")
        return cls._monomial(nvars, caps, tuple(int(k == j - 1) for k in range(nvars)))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def select(self, keep: Callable[[tuple[int, ...]], bool]) -> "Polynomial":
        """The terms whose exponent tuple satisfies ``keep``, in order."""
        return Polynomial._raw(self.nvars, self.caps,
                               {e: c for e, c in self.terms.items() if keep(e)})

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> Optional["Polynomial"]:
        if isinstance(other, _EXACT_PARTS):
            return Polynomial._raw(self.nvars, self.caps,
                                   {(0,) * self.nvars: other} if other else {})
        if not isinstance(other, Polynomial):
            return None
        if other.nvars != self.nvars or other.caps != self.caps:
            raise InputError("polynomials belong to different rings")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial._raw(self.nvars, self.caps, {e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.nvars, self.caps, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _EXACT_PARTS):
            return Polynomial._raw(self.nvars, self.caps,
                                   {e: c * other for e, c in self.terms.items()} if other else {})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        caps = self.caps
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                if caps is not None and any(e > cap for e, cap in zip(key, caps)):
                    continue
                out[key] = out.get(key, 0) + c1 * c2
        return Polynomial._raw(self.nvars, caps, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise InputError("polynomial powers must be nonnegative integers")
        out = Polynomial.one(self.nvars, self.caps)
        for _ in range(k):
            out = out * self
        return out

    # ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars, self.caps, self.terms) == (other.nvars, other.caps, other.terms)

    def __hash__(self):
        return hash((self.nvars, self.caps, frozenset(self.terms.items())))

    def __str__(self):
        """Terms by weighted degree, then by descending exponents; variables
        print as c_j without caps (Chern variables) and x_j with them."""
        if not self.terms:
            return "0"
        letter = "c" if self.caps is None else "x"

        def mono(exps):
            factors = [f"{letter}{j + 1}" + (f"^{e}" if e > 1 else "")
                       for j, e in enumerate(exps) if e]
            return "*".join(factors) if factors else "1"

        keys = sorted(self.terms, key=lambda e: (weighted_degree(e), tuple(-x for x in e)))
        pieces = []
        for exps in keys:
            coeff = self.terms[exps]
            m = mono(exps)
            mag = abs(coeff)
            body = m if (mag == 1 and m != "1") else (str(mag) if m == "1" else f"{mag}*{m}")
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self})"
