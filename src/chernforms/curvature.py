"""Curvature matrices in factored (manifestly nonnegative) shape.

The central object is a factored curvature

    Omega_ij = sum_k A_ik ^ conj(A_jk),       A an r x m matrix of (1,0)-forms,

the shape under which all nonnegativity statements in this package hold.
The factor ``A`` (a ``FactorMatrix``, or the ``CurvatureTensor`` it is
built from) is the certificate of that shape and the one representation of
a factored curvature: ``bott_chern_curvature(A)`` builds Omega as a plain
``CurvatureMatrix``, which carries no factor.  ``change_frame`` conjugates
a curvature matrix into another frame as P^-1 Omega P.

A convenient source of factors is a curvature-type tensor T[p][i][k]
(p = base direction 1..n, i = fiber index 1..r, k = factor column 1..m),
giving A_ik = sum_p T[p][i][k] dz^p.  For such data the Griffiths form

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
from .forms import Form
from .rng import complex_normal, substream
from .scalars import EXACT, FLOAT, GaussianRational, check_same_mode, parse_scalar, scalar_json

#: relative tolerance for the two Griffiths routes to agree
GRIFFITHS_RTOL = 1e-12


def _common_shape(entries, kind: str, p: int, q: int):
    """Validate a rectangular matrix of homogeneous (p,q)-forms; return (n, mode)."""
    if not entries or not entries[0]:
        raise InputError(f"{kind} must be a nonempty matrix of forms")
    n = entries[0][0].n
    mode = entries[0][0].mode
    width = len(entries[0])
    for row in entries:
        if len(row) != width:
            raise InputError(f"{kind} rows must have equal length")
        for f in row:
            if not isinstance(f, Form):
                raise InputError(f"{kind} entries must be forms")
            if f.n != n:
                raise InputError(f"{kind} entries must share one base dimension")
            check_same_mode(f.mode, mode, f"{kind} entries")
            if not f.is_homogeneous(p, q):
                raise InputError(f"{kind} entries must be homogeneous ({p},{q})-forms")
    return n, mode


@dataclasses.dataclass(frozen=True)
class FactorMatrix:
    """r x m matrix A of (1,0)-forms, the factor of a nonnegative curvature."""

    entries: tuple[tuple[Form, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        _common_shape(entries, "factor matrix", 1, 0)

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def m(self) -> int:
        return len(self.entries[0])

    @property
    def n(self) -> int:
        return self.entries[0][0].n

    @property
    def mode(self) -> str:
        return self.entries[0][0].mode


@dataclasses.dataclass(frozen=True)
class CurvatureMatrix:
    """r x r matrix of (1,1)-forms.

    Float entries must have finite coefficients: an overflow to inf or NaN,
    as in a ``bott_chern_curvature`` build from huge factor entries, is
    rejected naming the first such entry in row-major order.
    """

    entries: tuple[tuple[Form, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        _, mode = _common_shape(entries, "curvature matrix", 1, 1)
        if len(entries) != len(entries[0]):
            raise InputError("curvature matrix must be square")
        if mode == FLOAT:
            for i, row in enumerate(entries):
                for j, entry in enumerate(row):
                    if not all(map(cmath.isfinite, entry.terms.values())):
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


def bott_chern_curvature(factor: FactorMatrix) -> CurvatureMatrix:
    """Omega = A ^ conj(A^t): entry (i, j) is sum_k A_ik ^ conj(A_jk),
    summed in k order, with each conj(A_jk) taken once for all rows i."""
    a = factor.entries
    a_bar = [[f.conjugate() for f in row] for row in a]
    zero = Form.zero(factor.n, factor.mode)
    out = []
    for i in range(factor.r):
        row = []
        for j in range(factor.r):
            total = zero
            for k in range(factor.m):
                total = total + a[i][k].wedge(a_bar[j][k])
            row.append(total)
        out.append(tuple(row))
    return CurvatureMatrix(tuple(out))


# ----------------------------------------------------------------------
# tensor-shaped input


class CurvatureTensor:
    """Dense tensor T[p][i][k] of complex numbers defining a factor matrix
    A_ik = sum_p T[p][i][k] dz^p.  Stored as a (n, r, m) complex array."""

    __slots__ = ("array",)

    def __init__(self, array):
        arr = np.asarray(array, dtype=complex)
        if arr.ndim != 3:
            raise InputError("curvature tensor must be indexed [p][i][k]")
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
        arr = np.zeros((n, r, m), dtype=complex)
        for p, plane in enumerate(t):
            if not isinstance(plane, list) or len(plane) != r:
                raise InputError(f"instance field T[{p}]: expected a list of length r={r}")
            for i, row in enumerate(plane):
                if not isinstance(row, list) or len(row) != m:
                    raise InputError(f"instance field T[{p}][{i}]: expected a list of length m={m}")
                for k, cell in enumerate(row):
                    arr[p, i, k] = parse_scalar(cell, FLOAT, f"instance field T[{p}][{i}][{k}]")
        return cls(arr)


def _combine(forms: Sequence[Form], coeffs: Sequence, zero: Form) -> Form:
    """sum of c * f over the pairs whose c is nonzero, folded left to right
    onto ``zero``."""
    total = zero
    for f, c in zip(forms, coeffs):
        if c:
            total = total + f.scale(c)
    return total


def _factor(shape: tuple[int, int, int], coeff, mode: str) -> FactorMatrix:
    """A_ik = sum_p coeff(p, i, k) dz^p for (n, r, m) = ``shape``; ``coeff``
    returns scalars in ``mode``."""
    n, r, m = shape
    dz = [Form.dz(n, p + 1, mode) for p in range(n)]
    zero = Form.zero(n, mode)
    return FactorMatrix(tuple(
        tuple(_combine(dz, [coeff(p, i, k) for p in range(n)], zero) for k in range(m))
        for i in range(r)))


def factor_from_tensor(tensor: CurvatureTensor) -> FactorMatrix:
    """A_ik = sum_p T[p][i][k] dz^p as a float-mode factor matrix."""
    t = tensor.array.tolist()
    return _factor(tensor.array.shape, lambda p, i, k: t[p][i][k], FLOAT)


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
    """Griffiths form of a factored curvature at fiber vector xi, base vector eta.

    Computes both the curvature contraction
        sum R_{i,j,p,q} xi^i conj(xi^j) eta^p conj(eta^q)
    and the sum of squares
        sum_k | sum_{i,p} T[p][i][k] conj(xi^i) eta^p |^2,
    raises ConsistencyError if they disagree beyond GRIFFITHS_RTOL * scale,
    and returns the (nonnegative) sum-of-squares value.
    """
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


def random_tensor(n: int, r: int, m: Optional[int] = None, seed: int = 0) -> CurvatureTensor:
    """Random instance with i.i.d. standard complex normal entries.
    When m is omitted it is drawn uniformly from 1..r+1."""
    if n < 1 or r < 1:
        raise InputError("random tensor needs n >= 1 and r >= 1")
    rng = substream(seed, 101)
    if m is None:
        m = int(rng.integers(1, r + 2))
    if m < 1:
        raise InputError("random tensor needs m >= 1")
    return CurvatureTensor(complex_normal(rng, (n, r, m)))


def random_exact_factor(n: int, r: int, m: Optional[int] = None,
                        seed: int = 0) -> FactorMatrix:
    """Exact-mode factor matrix with Gaussian-integer tensor entries drawn
    uniformly from [-2, 2]^2 (factored instances for identity suites)."""
    rng = substream(seed, 102)
    if m is None:
        m = int(rng.integers(1, r + 2))
    re = rng.integers(-2, 3, size=(n, r, m)).tolist()
    im = rng.integers(-2, 3, size=(n, r, m)).tolist()
    return _factor((n, r, m), lambda p, i, k: GaussianRational(re[p][i][k], im[p][i][k]),
                   EXACT)


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
