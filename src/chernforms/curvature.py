"""Factored curvatures: the factor tensor, the curvature matrix it builds,
and frame changes.

The central object is a factored curvature

    Omega_ij = sum_k A_ik ^ conj(A_jk),       A_ik = sum_p T[p][i][k] dz^p,

an r x r matrix of (1,1)-forms from an r x m matrix A of (1,0)-forms
(p = base direction 1..n, i = fiber index 1..r, k = factor column 1..m),
the shape under which all nonnegativity statements in this package hold.
The coefficient tensor T, a ``CurvatureTensor`` in either scalar mode, is
the one representation of a factored curvature and the certificate of
that shape.  ``factor_from_tensor`` (``tensor.entries``) builds A as forms.
A ``CurvatureMatrix``, which carries no factor, holds Omega as (1,1)
coefficient blocks: ``bott_chern_curvature`` writes them from T, and
``change_frame`` conjugates them into another frame as P^-1 Omega P.

For a float tensor the Griffiths form

    sum_{i,j,p,q} R_{i,j,p,q} conj(xi^i) xi^j eta^p conj(eta^q),
    R_{i,j,p,q} = sum_k T[p][i][k] conj(T[q][j][k])

is the sum of squares sum_k |sum_{i,p} T[p][i][k] conj(xi^i) eta^p|^2, which
``griffiths_value`` computes.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

from . import _linalg
from .errors import InputError
from .forms import MAX_DIM, Form, PPForm
from .rng import complex_normal, substream
from .scalars import EXACT, FLOAT, I_EXACT, check_same_mode, coerce, parse_scalar, scalar_json


class CurvatureMatrix:
    """r x r matrix of (1,1)-forms of one base dimension and mode, each
    given as a ``PPForm`` or a ``Form``: ``blocks[i][j]`` is Omega_ij's block
    and ``entries`` its ``Form``, built on each access.  A float coefficient
    that is not finite is rejected, naming the first such entry."""

    __slots__ = ("blocks",)

    def __init__(self, entries):
        rows = [list(row) for row in entries]
        if not rows or not rows[0]:
            raise InputError("curvature matrix must be a nonempty matrix of forms")
        n, mode = rows[0][0].n, rows[0][0].mode
        for i, row in enumerate(rows):
            if len(row) != len(rows):
                raise InputError("curvature matrix must be square")
            for j, f in enumerate(row):
                if not isinstance(f, (Form, PPForm)):
                    raise InputError("curvature matrix entries must be forms")
                if f.n != n:
                    raise InputError("curvature matrix entries must share one base dimension")
                check_same_mode(f.mode, mode, "curvature matrix entries")
                if isinstance(f, Form) and f.is_homogeneous(1, 1):
                    f = PPForm.from_form(f, 1)
                if not isinstance(f, PPForm) or f.p != 1:
                    raise InputError("curvature matrix entries must be homogeneous (1,1)-forms")
                if mode == FLOAT and not np.isfinite(f.block).all():
                    raise InputError(f"curvature entry ({i + 1},{j + 1}) is not finite")
                row[j] = f
        self.blocks = tuple(map(tuple, rows))

    @property
    def entries(self) -> tuple[tuple[Form, ...], ...]:
        return tuple(tuple(b.to_form() for b in row) for row in self.blocks)

    @property
    def r(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return self.blocks[0][0].n

    @property
    def mode(self) -> str:
        return self.blocks[0][0].mode


# ----------------------------------------------------------------------
# the factor tensor


class CurvatureTensor:
    """Tensor T[p][i][k] of a factor A_ik = sum_p T[p][i][k] dz^p, stored as
    an (n, r, m) array with n, r, m >= 1 and n <= ``MAX_DIM``.

    An object array is exact mode: its entries are coerced to
    ``GaussianRational`` (int and Fraction are, float and complex are
    refused).  Any other array is float mode, read as complex and checked
    finite.  Immutable by convention.
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
        """The ``{n, r, m, T}`` shape ``from_json`` reads; each entry is the
        ``scalar_json`` of its value, read off one ``tolist`` for a float
        tensor.  A report prints it through its ``InstanceText`` view."""
        if self.mode == FLOAT:
            t = [[[{"re": z.real, "im": z.imag} for z in row] for row in plane]
                 for plane in self.array.tolist()]
        else:
            t = [[[scalar_json(z) for z in row] for row in plane] for plane in self.array]
        return {"n": self.n, "r": self.r, "m": self.m, "T": t}

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


class InstanceText:
    """A tensor's ``to_json()`` as a report prints it, from one ``repr`` per
    float part, taken when the view is made, so that an exact value beyond
    the float range raises the ``InputError`` of ``scalar_json`` there.
    ``sha256`` is the digest of the compact text, ``text("", "", ":")``, and
    ``cli.report_json`` writes ``text(newline)``."""

    __slots__ = ("tensor", "reprs", "sha256")

    def __init__(self, tensor: CurvatureTensor):
        self.tensor, z = tensor, tensor.array
        # each entry's im part before its re part, as sorted keys put them
        if tensor.mode == FLOAT:
            parts = np.stack((z.imag, z.real), axis=-1).ravel().tolist()
        else:
            parts = [x for c in map(scalar_json, z.flat) for x in (c["im"], c["re"])]
        self.reprs = tuple(map(float.__repr__, parts))
        self.sha256 = hashlib.sha256(self.text("", "", ":").encode()).hexdigest()

    def text(self, newline: str, step: str = "  ", colon: str = ": ") -> str:
        """``json.dumps(self.tensor.to_json(), sort_keys=True, indent=2)`` for
        an instance whose ``{`` stands on a line indented as ``newline``, or,
        with ``newline`` and ``step`` empty and ``colon`` ":", the compact
        text of ``separators=(",", ":")``."""
        n, r, m = self.tensor.array.shape
        lines = [newline + step * depth for depth in range(6)]
        cell = f'{{{lines[5]}"im"{colon}%s,{lines[5]}"re"{colon}%s{lines[4]}}}'
        row = f"[{lines[4]}" + f",{lines[4]}".join([cell] * m) + f"{lines[3]}]"
        plane = f"[{lines[3]}" + f",{lines[3]}".join([row] * r) + f"{lines[2]}]"
        t = f"[{lines[2]}" + f",{lines[2]}".join([plane] * n) + f"{lines[1]}]"
        key = "," + lines[1]
        layout = (f'{{{lines[1]}"T"{colon}{t}{key}"m"{colon}{m}{key}"n"{colon}{n}'
                  f'{key}"r"{colon}{r}{lines[0]}}}')
        return layout % self.reprs


def factor_from_tensor(tensor: CurvatureTensor) -> tuple[tuple[Form, ...], ...]:
    """A_ik = sum_p T[p][i][k] dz^p as an r x m matrix of (1,0)-forms in the
    tensor's mode: each A_ik holds the nonzero entries of T's column (i, k)
    as they stand, in p order."""
    n, mode, t = tensor.n, tensor.mode, tensor.array.tolist()
    return tuple(tuple(Form._raw(n, mode, {(1 << p, 0): c for p in range(n) if (c := t[p][i][k])})
                       for k in range(tensor.m))
                 for i in range(tensor.r))


def bott_chern_curvature(tensor: CurvatureTensor) -> CurvatureMatrix:
    """Omega = A ^ conj(A^t) for the factor A of ``tensor``: entry (i, j) is
    sum_k A_ik ^ conj(A_jk), the block sum_k T[p, i, k] conj(T[q, j, k]),
    since each term has sign +1, summed by one einsum in either mode.  A
    float sum may overflow to inf or NaN; ``CurvatureMatrix`` rejects it."""
    t = tensor.array
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.einsum("pik,qjk->ijpq", t, np.conj(t))
    return CurvatureMatrix([[PPForm(tensor.n, 1, tensor.mode, b) for b in row] for row in sums])


# ----------------------------------------------------------------------
# frame changes


def _combine(forms: Sequence[PPForm], coeffs: Sequence, zero: PPForm) -> PPForm:
    """sum of c * f over the pairs whose c is nonzero, folded left to right
    onto ``zero``."""
    total = zero
    for f, c in zip(forms, coeffs):
        if c:
            total = total + f.scale(c)
    return total


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
    zero = PPForm.zero(omega.n, 1, mode)
    pairs = [(a, b) for a in range(r) for b in range(r)]
    blocks = [omega.blocks[a][b] for a, b in pairs]
    return CurvatureMatrix([
        [_combine(blocks, [inv_rows[i][a] * rows[b][j] for a, b in pairs], zero)
         for j in range(r)]
        for i in range(r)])


# ----------------------------------------------------------------------
# Griffiths quadratic form


def griffiths_value(tensor: CurvatureTensor, xi: Sequence[complex],
                    eta: Sequence[complex]) -> float:
    """Griffiths form of a float tensor at fiber vector xi, base vector eta,
    as the sum of squares sum_k | sum_{i,p} T[p][i][k] conj(xi^i) eta^p |^2
    (see the module docstring)."""
    if tensor.mode != FLOAT:
        raise InputError("griffiths_value takes a float tensor")
    xi = np.asarray(xi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    if xi.shape != (tensor.r,):
        raise InputError(f"fiber vector must have length r={tensor.r}")
    if eta.shape != (tensor.n,):
        raise InputError(f"base vector must have length n={tensor.n}")
    amps = np.einsum("pik,i,p->k", tensor.array, np.conj(xi), eta)
    return float(np.sum(np.abs(amps) ** 2))


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
