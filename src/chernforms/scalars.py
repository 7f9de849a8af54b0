"""Scalar coefficient arithmetic in two modes: exact and floating point.

Every form, curvature matrix and Chern class in this package carries its
coefficients in one of two scalar modes:

* ``EXACT``  -- Gaussian rationals: complex numbers (x + y*i) / d with
  arbitrary-precision int x, y, d, kept in lowest terms.  Closed under
  +, -, *, / and conjugation, so identity checks (frame invariance, Whitney,
  Gram route against Laplace route) can demand bit-for-bit equality.  The parts read
  back as ``fractions.Fraction`` values.
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

    Stored as three ints ``(x, y, d)`` meaning (x + y*i) / d, normalised so
    that d > 0 and gcd(x, y, d) = 1.  Equal values therefore have equal
    fields, and sums and products of Gaussian integers (d = 1) never leave
    int arithmetic.  ``re`` and ``im`` are read-only ``Fraction`` views.

    Construction accepts ``int``, ``Fraction`` or decimal strings for either
    part; ``float`` is rejected so that rounding error can never leak into
    exact mode unnoticed (convert deliberately via ``from_complex`` if a
    float really is exact).
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re: Union[int, Fraction, str] = 0, im: Union[int, Fraction, str] = 0):
        if type(re) is int and type(im) is int:
            self._x, self._y, self._d = re, im, 1
            return
        if isinstance(re, float) or isinstance(im, float):
            raise InputError("GaussianRational parts must be exact (int/Fraction/str), not float")
        re, im = Fraction(re), Fraction(im)
        # both parts are in lowest terms, so over their lcm gcd(x, y, d) = 1
        a, b = re.denominator, im.denominator
        d = a // math.gcd(a, b) * b
        self._x, self._y, self._d = re.numerator * (d // a), im.numerator * (d // b), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    @classmethod
    def from_complex(cls, z: complex) -> "GaussianRational":
        """Exact conversion of a float complex; each part becomes the exact
        binary rational the float represents."""
        return cls(Fraction(float(z.real)), Fraction(float(z.imag)))

    def conjugate(self) -> "GaussianRational":
        return _raw(self._x, -self._y, self._d)

    def __add__(self, other):
        # GaussianRational first: isinstance against Fraction, an ABC, is slow
        if not isinstance(other, GaussianRational):
            if isinstance(other, int):
                return _raw(self._x + other * self._d, self._y, self._d)
            if not isinstance(other, Fraction):
                return NotImplemented
            other = GaussianRational(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._x + other._x, self._y + other._y, d)
        return _reduced(self._x * e + other._x * d, self._y * e + other._y * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return self + _raw(-other._x, -other._y, other._d)
        if isinstance(other, _EXACT_PARTS):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _EXACT_PARTS):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            if isinstance(other, int):
                return _reduced(self._x * other, self._y * other, self._d)
            if not isinstance(other, Fraction):
                return NotImplemented
            other = GaussianRational(other)
        x1, y1, x2, y2 = self._x, self._y, other._x, other._y
        return _reduced(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _EXACT_PARTS):
            other = GaussianRational(other)
        if isinstance(other, GaussianRational):
            u, v = other._x, other._y
            norm = u * u + v * v
            if norm == 0:
                raise ZeroDivisionError("division by zero GaussianRational")
            x, y, e = self._x, self._y, other._d
            return _reduced((x * u + y * v) * e, (y * u - x * v) * e, self._d * norm)
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
        return _raw(-self._x, -self._y, self._d)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._x == other._x and self._y == other._y and self._d == other._d
        if isinstance(other, int):
            return self._y == 0 and self._d == 1 and self._x == other
        if isinstance(other, Fraction):
            # with y = 0 the normalisation puts x/d in lowest terms
            return (self._y == 0 and self._x == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        if self._y == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self._x != 0 or self._y != 0

    def __complex__(self):
        # int true division rounds correctly, as Fraction.__float__ does
        return complex(self._x / self._d, self._y / self._d)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}*i)"


def _raw(x: int, y: int, d: int) -> GaussianRational:
    """(x + y*i) / d from fields that are already normalised."""
    z = object.__new__(GaussianRational)
    z._x, z._y, z._d = x, y, d
    return z


def _reduced(x: int, y: int, d: int) -> GaussianRational:
    """(x + y*i) / d for any d > 0, divided through by gcd(x, y, d)."""
    if d != 1:
        g = math.gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
    return _raw(x, y, d)


def exact_fields(value) -> tuple[int, int, int]:
    """The normalised fields (x, y, d) of an exact scalar, value = (x + y*i) / d:
    a ``GaussianRational`` as stored, an int as (value, 0, 1), a Fraction
    through ``coerce``."""
    if type(value) is int:
        return value, 0, 1
    z = coerce(value, EXACT)
    return z._x, z._y, z._d


#: the exact imaginary unit
I_EXACT = GaussianRational(0, 1)


def coerce(value, mode: str):
    """Coerce ``value`` into the stored representation for ``mode``.

    EXACT stores GaussianRational, FLOAT stores complex.  int and Fraction are
    accepted by both; float/complex into EXACT and GaussianRational into FLOAT
    are rejected (conversions must be explicit: ``complex(z)`` or
    ``GaussianRational.from_complex``).
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
        if isinstance(value, (int, float, complex, Fraction)):
            return complex(value)
        raise InputError(f"float mode cannot absorb {type(value).__name__} coefficients")
    raise InputError(f"unknown scalar mode {mode!r}")


def parse_scalar(cell, mode: str, where: str):
    """Parse a JSON scalar ``{"re": x, "im": y}`` (a missing part is 0) into
    the stored representation for ``mode``.

    Parts must be finite JSON numbers: ``json`` accepts NaN and Infinity,
    which would poison a float verdict and cannot be exact.  In exact mode
    an int part is taken as is and a float part exactly from its decimal
    string; in float mode an int part beyond the float range is rejected.
    ``where`` names the field in error messages.
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
    if mode == EXACT:
        return GaussianRational(*(p if isinstance(p, int) else Fraction(str(p)) for p in parts))
    floats = []
    for name, value in zip(("re", "im"), parts):
        try:
            floats.append(float(value))
        except OverflowError:
            raise InputError(f"{where}.{name}: the integer lies beyond the float range") from None
    return complex(*floats)


def scalar_json(value) -> dict:
    """The float view ``{"re": x, "im": y}`` of a scalar of either mode, the
    shape ``parse_scalar`` reads.  An exact value beyond the float range is
    an InputError: no report can show it."""
    try:
        z = complex(value)
    except OverflowError as exc:
        raise InputError("an exact value lies beyond the float range of the report") from exc
    return {"re": z.real, "im": z.imag}


def check_same_mode(a_mode: str, b_mode: str, what: str = "operands"):
    if a_mode != b_mode:
        raise InputError(f"scalar mode mismatch: {what} are {a_mode!r} vs {b_mode!r}")
