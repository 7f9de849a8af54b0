"""Factored curvatures: the factor tensor, the curvature matrix it builds,
and frame changes.

The central object is a factored curvature

    Omega_ij = sum_k A_ik ^ conj(A_jk),       A_ik = sum_p T[p][i][k] dz^p,

an r x r matrix of (1,1)-forms from an r x m matrix A of (1,0)-forms
(p = base direction 1..n, i = fiber index 1..r, k = factor column 1..m),
the shape under which all nonnegativity statements in this package hold.
The coefficient tensor T, a ``CurvatureTensor`` in either scalar mode, is
the one representation of a factored curvature and the certificate of
that shape.  ``factor_from_tensor`` (``tensor.entries``) builds A as forms,
and ``bott_chern_curvature`` builds Omega as a plain ``CurvatureMatrix``,
which carries no factor.  ``change_frame`` conjugates a curvature matrix
into another frame as P^-1 Omega P.

For a float tensor the Griffiths form

    sum_{i,j,p,q} R_{i,j,p,q} xi^i conj(xi^j) eta^p conj(eta^q),
    R_{i,j,p,q} = sum_k T[p][i][k] conj(T[q][j][k])

is a sum of squares; ``griffiths_value`` computes it both ways and insists
they agree.
"""

from __future__ import annotations

import cmath
import dataclasses
from typing import Optional, Sequence

import numpy as np

from . import _linalg
from .errors import ConsistencyError, InputError
from .forms import MAX_DIM, Form
from .rng import complex_normal, substream
from .scalars import EXACT, FLOAT, I_EXACT, GaussianRational, check_same_mode, coerce, \
    parse_scalar, scalar_json

#: relative tolerance for the two Griffiths routes to agree
GRIFFITHS_RTOL = 1e-12


@dataclasses.dataclass(frozen=True)
class CurvatureMatrix:
    """r x r matrix of (1,1)-forms sharing one base dimension and mode.

    Float entries must have finite coefficients: an overflow to inf or NaN,
    as in a ``bott_chern_curvature`` build from huge tensor entries, is
    rejected naming the first such entry in row-major order.
    """

    entries: tuple[tuple[Form, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries or not entries[0]:
            raise InputError("curvature matrix must be a nonempty matrix of forms")
        n, mode = entries[0][0].n, entries[0][0].mode
        for i, row in enumerate(entries):
            if len(row) != len(entries):
                raise InputError("curvature matrix must be square")
            for j, f in enumerate(row):
                if not isinstance(f, Form):
                    raise InputError("curvature matrix entries must be forms")
                if f.n != n:
                    raise InputError("curvature matrix entries must share one base dimension")
                check_same_mode(f.mode, mode, "curvature matrix entries")
                if not f.is_homogeneous(1, 1):
                    raise InputError("curvature matrix entries must be homogeneous (1,1)-forms")
                if mode == FLOAT and not all(map(cmath.isfinite, f.terms.values())):
                    raise InputError(f"curvature entry ({i + 1},{j + 1}) is not finite")

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return self.entries[0][0].n

    @property
    def mode(self) -> str:
        return self.entries[0][0].mode


# ----------------------------------------------------------------------
# the factor tensor


class CurvatureTensor:
    """Tensor T[p][i][k] of a factor A_ik = sum_p T[p][i][k] dz^p, stored as
    an (n, r, m) array with n, r, m >= 1 and n <= ``MAX_DIM``.

    An object array is exact mode: its entries are coerced to
    ``GaussianRational`` (int and Fraction are, float and complex are
    refused).  Any other array is float mode, read as complex and checked
    finite.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        try:
            arr = np.asarray(array)
        except ValueError:
            raise InputError("curvature tensor must be a rectangular [p][i][k] array; "
                             "its nested lists are ragged") from None
        if arr.ndim != 3:
            raise InputError("curvature tensor must be indexed [p][i][k]")
        if 0 in arr.shape:
            raise InputError("curvature tensor needs n, r and m >= 1")
        if arr.shape[0] > MAX_DIM:
            raise InputError(f"curvature tensor has n = {arr.shape[0]} directions; "
                             f"the base dimension is at most {MAX_DIM}")
        if arr.dtype == object:
            arr = np.frompyfunc(lambda z: coerce(z, EXACT), 1, 1)(arr)
        else:
            try:
                arr = arr.astype(complex, copy=False)
            except (TypeError, ValueError):
                raise InputError(f"curvature tensor entries must be numbers, got an array of "
                                 f"{arr.dtype}") from None
            if not np.all(np.isfinite(arr)):
                raise InputError("curvature tensor entries must be finite")
        self.array = arr

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @property
    def r(self) -> int:
        return self.array.shape[1]

    @property
    def m(self) -> int:
        return self.array.shape[2]

    @property
    def mode(self) -> str:
        return EXACT if self.array.dtype == object else FLOAT

    @property
    def entries(self) -> tuple[tuple[Form, ...], ...]:
        """The factor A, built on each access by ``factor_from_tensor``."""
        return factor_from_tensor(self)

    def __eq__(self, other):
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        return self.array.shape == other.array.shape and bool(np.all(self.array == other.array))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "m": self.m,
            "T": [[[scalar_json(z) for z in row] for row in plane] for plane in self.array],
        }

    @classmethod
    def from_json(cls, obj) -> "CurvatureTensor":
        """A float tensor from the ``{n, r, m, T}`` shape ``to_json`` writes."""
        if not isinstance(obj, dict):
            raise InputError("instance must be an object with fields n, r, m, T")
        for key in ("n", "r", "m"):
            value = obj.get(key)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InputError(f"instance field {key!r}: expected a positive integer")
        n, r, m = obj["n"], obj["r"], obj["m"]
        t = obj.get("T")
        if not isinstance(t, list) or len(t) != n:
            raise InputError(f"instance field 'T': expected a list of length n={n}")
        # the cells are parsed into a list as T's lengths are checked, so no
        # array is sized from n, r and m before T has that many entries
        cells = []
        for p, plane in enumerate(t):
            if not isinstance(plane, list) or len(plane) != r:
                raise InputError(f"instance field T[{p}]: expected a list of length r={r}")
            for i, row in enumerate(plane):
                if not isinstance(row, list) or len(row) != m:
                    raise InputError(f"instance field T[{p}][{i}]: expected a list of length m={m}")
                cells += [parse_scalar(cell, FLOAT, f"instance field T[{p}][{i}][{k}]")
                          for k, cell in enumerate(row)]
        return cls(np.array(cells, dtype=complex).reshape(n, r, m))


def _combine(forms: Sequence[Form], coeffs: Sequence, zero: Form) -> Form:
    """sum of c * f over the pairs whose c is nonzero, folded left to right
    onto ``zero``."""
    total = zero
    for f, c in zip(forms, coeffs):
        if c:
            total = total + f.scale(c)
    return total


def factor_from_tensor(tensor: CurvatureTensor) -> tuple[tuple[Form, ...], ...]:
    """A_ik = sum_p T[p][i][k] dz^p, summed in p order over the nonzero
    entries, as an r x m matrix of (1,0)-forms in the tensor's mode."""
    n, mode, t = tensor.n, tensor.mode, tensor.array.tolist()
    dz = [Form.dz(n, p + 1, mode) for p in range(n)]
    zero = Form.zero(n, mode)
    return tuple(tuple(_combine(dz, [t[p][i][k] for p in range(n)], zero)
                       for k in range(tensor.m))
                 for i in range(tensor.r))


def bott_chern_curvature(tensor: CurvatureTensor) -> CurvatureMatrix:
    """Omega = A ^ conj(A^t) for the factor A of ``tensor``: entry (i, j) is
    sum_k A_ik ^ conj(A_jk), summed in k order.

    Each term a_p conj(b_q) dz^p ^ dzbar^q of A_ik ^ conj(A_jk) has sign +1,
    so the terms are written straight from the coefficients of A, in the
    order and with the rules of ``Form.wedge`` and ``Form.__add__``: k, then
    p, then q; an exactly zero product is skipped, and a key whose sum is
    exactly zero is dropped, a later term re-inserting it at the end.
    """
    # A_ik = sum_p a_p dz^p as (dz mask, a_p) pairs, and conj(A_jk) =
    # sum_q conj(b_q) dzbar^q as (dzbar mask, conj(b_q)), taken once for all i
    a = [[[(h, c) for (h, _), c in f.terms.items()] for f in row]
         for row in factor_from_tensor(tensor)]
    a_bar = [[[(g, c.conjugate()) for g, c in terms] for terms in row] for row in a]
    n, mode = tensor.n, tensor.mode
    out = []
    for left in a:
        row = []
        for right in a_bar:
            terms: dict = {}
            for a_k, b_k in zip(left, right):
                for h, c1 in a_k:
                    for g, c2 in b_k:
                        c = c1 * c2
                        if not c:
                            continue
                        key = (h, g)
                        acc = terms.get(key)
                        total = c if acc is None else acc + c
                        if not total:
                            del terms[key]
                        else:
                            terms[key] = total
            row.append(Form._raw(n, mode, terms))
        out.append(tuple(row))
    return CurvatureMatrix(tuple(out))


# ----------------------------------------------------------------------
# frame changes


def change_frame(omega: CurvatureMatrix, frame) -> CurvatureMatrix:
    """Conjugate the curvature into a new frame: P^-1 Omega P.

    ``frame`` is an r x r matrix of scalars in the curvature's mode.  Singular
    (exact) or ill-conditioned (float) frames are rejected.
    """
    mode = omega.mode
    rows = _linalg.as_rows(frame, mode)
    if len(rows) != omega.r:
        raise InputError(f"frame matrix must be {omega.r} x {omega.r}")
    inv_rows = _linalg.inv(rows, mode)
    r = omega.r
    zero = Form.zero(omega.n, mode)
    pairs = [(a, b) for a in range(r) for b in range(r)]
    entries = [omega.entries[a][b] for a, b in pairs]
    new_entries = tuple(
        tuple(_combine(entries, [inv_rows[i][a] * rows[b][j] for a, b in pairs], zero)
              for j in range(r))
        for i in range(r))
    return CurvatureMatrix(new_entries)


# ----------------------------------------------------------------------
# Griffiths quadratic form


def griffiths_value(tensor: CurvatureTensor, xi: Sequence[complex],
                    eta: Sequence[complex]) -> float:
    """Griffiths form of a float tensor at fiber vector xi, base vector eta.

    Computes both the curvature contraction
        sum R_{i,j,p,q} xi^i conj(xi^j) eta^p conj(eta^q)
    and the sum of squares
        sum_k | sum_{i,p} T[p][i][k] conj(xi^i) eta^p |^2,
    raises ConsistencyError if they disagree beyond GRIFFITHS_RTOL * scale,
    and returns the (nonnegative) sum-of-squares value.
    """
    if tensor.mode != FLOAT:
        raise InputError("griffiths_value is a float oracle: it takes a float tensor")
    xi = np.asarray(xi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    if xi.shape != (tensor.r,):
        raise InputError(f"fiber vector must have length r={tensor.r}")
    if eta.shape != (tensor.n,):
        raise InputError(f"base vector must have length n={tensor.n}")
    t = tensor.array  # [p, i, k]
    # route 1: full curvature tensor R_{i,j,p,q} = sum_k T[p][i][k] conj(T[q][j][k]),
    # contracted Hermitian-style: conj(xi) on the first fiber slot
    big_r = np.einsum("pik,qjk->ijpq", t, np.conj(t))
    v1 = complex(np.einsum("ijpq,i,j,p,q->", big_r, np.conj(xi), xi, eta, np.conj(eta)))
    # route 2: sum of squares
    amps = np.einsum("pik,i,p->k", t, np.conj(xi), eta)
    v2 = float(np.sum(np.abs(amps) ** 2))
    scale = max(1.0, abs(v1), v2)
    if abs(v1 - v2) > GRIFFITHS_RTOL * scale:
        raise ConsistencyError(
            f"Griffiths routes disagree: contraction {v1}, sum of squares {v2}")
    return v2


# ----------------------------------------------------------------------
# seeded instance generators


def _require_positive(generator: str, **sizes: int):
    """Refuse a size that is not an int (bools included) or is below 1,
    naming the field, before numpy sees it."""
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"{generator} needs an integer {name}, got {name}={value!r}")
        if value < 1:
            raise InputError(f"{generator} needs {name} >= 1, got {name}={value}")


def random_tensor(n: int, r: int, m: Optional[int] = None, seed: int = 0) -> CurvatureTensor:
    """Random instance with i.i.d. standard complex normal entries.
    When m is omitted it is drawn uniformly from 1..r+1."""
    _require_positive("random tensor", n=n, r=r)
    rng = substream(seed, 101)
    if m is None:
        m = int(rng.integers(1, r + 2))
    _require_positive("random tensor", m=m)
    return CurvatureTensor(complex_normal(rng, (n, r, m)))


def random_exact_factor(n: int, r: int, m: Optional[int] = None,
                        seed: int = 0) -> CurvatureTensor:
    """Exact tensor with Gaussian-integer entries drawn uniformly from
    [-2, 2]^2 (factored instances for identity suites)."""
    _require_positive("random exact factor", n=n, r=r)
    rng = substream(seed, 102)
    if m is None:
        m = int(rng.integers(1, r + 2))
    _require_positive("random exact factor", m=m)
    re = rng.integers(-2, 3, size=(n, r, m)).astype(object)
    im = rng.integers(-2, 3, size=(n, r, m)).astype(object)
    return CurvatureTensor(re + im * I_EXACT)


def random_unitary(r: int, seed: int = 0) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex normal matrix."""
    rng = substream(seed, 103)
    z = complex_normal(rng, (r, r))
    q, upper = np.linalg.qr(z)
    # fix the phase ambiguity so the draw is well-defined
    d = np.diagonal(upper)
    q = q * (d / np.abs(np.where(d == 0, 1, d)))
    return q


def random_invertible(r: int, seed: int = 0) -> np.ndarray:
    """Complex normal matrix, redrawn until its condition number is <= 1e6."""
    for attempt in range(64):
        z = complex_normal(substream(seed, 104, attempt), (r, r))
        if np.linalg.cond(z) <= 1e6:
            return z
    raise ConsistencyError("could not draw a well-conditioned matrix (improbable)")


def random_signed_phase_permutation(r: int, seed: int = 0) -> list[list[GaussianRational]]:
    """Exactly unitary exact-mode matrix: permutation times diagonal phases
    drawn from {1, -1, i, -i}."""
    rng = substream(seed, 105)
    perm = rng.permutation(r)
    phases = rng.integers(0, 4, size=r)
    unit = {0: GaussianRational(1), 1: GaussianRational(-1),
            2: GaussianRational(0, 1), 3: GaussianRational(0, -1)}
    zero = GaussianRational(0)
    out = [[zero for _ in range(r)] for _ in range(r)]
    for col in range(r):
        out[int(perm[col])][col] = unit[int(phases[col])]
    return out
