"""Small dense linear algebra over either scalar mode.

Exact mode works over GaussianRational with fraction-preserving Gaussian
elimination (pivot = first nonzero entry); float mode delegates to numpy.
Matrices are lists of lists of scalars (or numpy arrays in float mode).
Only the tiny sizes this package needs (rank <= 14, typically <= 5) are
expected, so clarity beats asymptotics here.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .scalars import FLOAT, GaussianRational, coerce, is_zero

#: condition-number ceiling above which a float matrix is treated as singular
COND_LIMIT = 1e12


def as_rows(matrix, mode: str):
    """Normalize a matrix-like (sequence of sequences / ndarray) to a list of
    list of mode-coerced scalars.  Must be square."""
    rows = [[coerce(v, mode) for v in row] for row in matrix]
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise InputError("matrix must be square")
    return rows


def det(rows):
    """Determinant of an exact matrix, by elimination over GaussianRational."""
    k = len(rows)
    if k == 0:
        return GaussianRational(1)
    work = [row[:] for row in rows]
    sign_flips = 0
    acc = GaussianRational(1)
    for col in range(k):
        pivot_row = next((r for r in range(col, k) if not is_zero(work[r][col])), None)
        if pivot_row is None:
            return GaussianRational(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign_flips += 1
        pivot = work[col][col]
        acc = acc * pivot
        for r in range(col + 1, k):
            factor = work[r][col] / pivot
            if is_zero(factor):
                continue
            work[r] = [work[r][c] - factor * work[col][c] for c in range(k)]
    return -acc if sign_flips % 2 else acc


def inv(rows, mode: str):
    """Matrix inverse.  Raises InputError on a singular (exact) or
    ill-conditioned (float, cond > COND_LIMIT) matrix."""
    k = len(rows)
    if mode == FLOAT:
        arr = np.array(rows, dtype=complex)
        if k and (not np.all(np.isfinite(arr)) or np.linalg.cond(arr) > COND_LIMIT):
            raise InputError("frame matrix is singular or too ill-conditioned to invert")
        out = np.linalg.inv(arr) if k else arr.reshape(0, 0)
        return [[complex(out[r, c]) for c in range(k)] for r in range(k)]
    work = [row[:] + [GaussianRational(1 if c == r else 0) for c in range(k)]
            for r, row in enumerate(rows)]
    for col in range(k):
        pivot_row = next((r for r in range(col, k) if not is_zero(work[r][col])), None)
        if pivot_row is None:
            raise InputError("frame matrix is singular (exact determinant is zero)")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [v / pivot for v in work[col]]
        for r in range(k):
            if r == col or is_zero(work[r][col]):
                continue
            factor = work[r][col]
            work[r] = [work[r][c] - factor * work[col][c] for c in range(2 * k)]
    return [row[k:] for row in work]


def conj_transpose(rows):
    k = len(rows)
    return [[rows[c][r].conjugate() for c in range(k)] for r in range(k)]


def matmul(a, b):
    # sum() starts from int 0, which both scalar modes absorb
    k = len(a)
    return [[sum(a[r][m] * b[m][c] for m in range(k)) for c in range(k)] for r in range(k)]


def is_unitary(rows, mode: str, tol: float = 1e-9) -> bool:
    """conj(P)^t P == identity; exact equality in exact mode, entrywise tol in float."""
    k = len(rows)
    if mode == FLOAT:
        arr = np.array(rows, dtype=complex)
        return bool(np.allclose(arr.conj().T @ arr, np.eye(k), atol=tol))
    prod = matmul(conj_transpose(rows), rows)
    ident = GaussianRational(1)
    zero = GaussianRational(0)
    return all(prod[r][c] == (ident if r == c else zero) for r in range(k) for c in range(k))
