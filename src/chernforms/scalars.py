"""Scalar coefficient arithmetic in two modes: exact and floating point.

Every form, curvature matrix and Chern class in this package carries its
coefficients in one of two scalar modes:

* ``EXACT``  -- Gaussian rationals: complex numbers whose real and imaginary
  parts are arbitrary-precision ``fractions.Fraction`` values.  Closed under
  +, -, *, / and conjugation, so identity checks (frame invariance, Whitney,
  witness consistency) can demand bit-for-bit equality.
* ``FLOAT``  -- the builtin ``complex``.  Used for sampling and anything with
  a 2*pi in it.

Modes never mix silently.  ``GaussianRational`` refuses arithmetic with
``float``/``complex`` operands (Python then raises ``TypeError``), and the
coercion helpers below reject cross-mode values with an explicit
``InputError``.  Plain ``int`` and ``Fraction`` are mode-neutral and accepted
by both coercions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import InputError

EXACT = "exact"
FLOAT = "float"

_EXACT_PARTS = (int, Fraction)


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Construction accepts ``int``, ``Fraction`` or decimal strings for either
    part; ``float`` is rejected so that rounding error can never leak into
    exact mode unnoticed (convert deliberately via ``from_complex`` if a
    float really is exact).
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction, str] = 0, im: Union[int, Fraction, str] = 0):
        if isinstance(re, float) or isinstance(im, float):
            raise InputError("GaussianRational parts must be exact (int/Fraction/str), not float")
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def from_complex(cls, z: complex) -> "GaussianRational":
        """Exact conversion of a float complex; each part becomes the exact
        binary rational the float represents."""
        return cls(Fraction(float(z.real)), Fraction(float(z.imag)))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, _EXACT_PARTS):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, _EXACT_PARTS):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _EXACT_PARTS):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, _EXACT_PARTS):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _EXACT_PARTS):
            other = GaussianRational(other)
        if isinstance(other, GaussianRational):
            norm = other.re * other.re + other.im * other.im
            if norm == 0:
                raise ZeroDivisionError("division by zero GaussianRational")
            return GaussianRational(
                (self.re * other.re + self.im * other.im) / norm,
                (self.im * other.re - self.re * other.im) / norm,
            )
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _EXACT_PARTS):
            return GaussianRational(other) / self
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _EXACT_PARTS):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


#: the exact imaginary unit
I_EXACT = GaussianRational(0, 1)

ExactScalar = Union[GaussianRational, int, Fraction]
Scalar = Union[GaussianRational, complex, int, float, Fraction]


def coerce(value, mode: str):
    """Coerce ``value`` into the stored representation for ``mode``.

    EXACT stores GaussianRational, FLOAT stores complex.  int and Fraction are
    accepted by both; float/complex into EXACT and GaussianRational into FLOAT
    are rejected (conversions must be explicit, see ``to_float_scalar``).
    """
    if mode == EXACT:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _EXACT_PARTS):
            return GaussianRational(value)
        raise InputError(f"exact mode cannot absorb {type(value).__name__} coefficients")
    if mode == FLOAT:
        if isinstance(value, GaussianRational):
            raise InputError("float mode cannot absorb GaussianRational coefficients; convert explicitly")
        if isinstance(value, (int, float, complex)):
            return complex(value)
        if isinstance(value, Fraction):
            return complex(float(value))
        raise InputError(f"float mode cannot absorb {type(value).__name__} coefficients")
    raise InputError(f"unknown scalar mode {mode!r}")


def parse_scalar(cell, mode: str, where: str):
    """Parse a JSON scalar ``{"re": x, "im": y}`` (a missing part is 0) into
    the stored representation for ``mode``.

    Parts must be finite JSON numbers: ``json`` accepts NaN and Infinity,
    which would poison a float verdict and cannot be exact.  In exact mode
    each part is taken exactly from its decimal string.  ``where`` names the
    field in error messages.
    """
    if not isinstance(cell, dict):
        raise InputError(f"{where}: expected an object with re/im")
    parts = []
    for name in ("re", "im"):
        value = cell.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"{where}.{name}: expected a number")
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"{where}.{name}: expected a finite number, got {value}")
        parts.append(value)
    re, im = parts
    if mode == EXACT:
        return GaussianRational(Fraction(str(re)), Fraction(str(im)))
    return complex(re, im)


def to_float_scalar(value) -> complex:
    """Explicit exact -> float conversion (also passes float values through)."""
    if isinstance(value, GaussianRational):
        return complex(value)
    if isinstance(value, Fraction):
        return complex(float(value))
    return complex(value)


def is_zero(value) -> bool:
    if isinstance(value, GaussianRational):
        return not value
    return value == 0


def magnitude(value) -> float:
    """|value| as a float, for scale estimates and tolerances."""
    return abs(to_float_scalar(value))


def check_same_mode(a_mode: str, b_mode: str, what: str = "operands"):
    if a_mode != b_mode:
        raise InputError(f"scalar mode mismatch: {what} are {a_mode!r} vs {b_mode!r}")
