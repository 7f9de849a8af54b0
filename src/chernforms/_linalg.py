"""Small dense linear algebra over either scalar mode.

Exact mode works over GaussianRational with one fraction-preserving forward
elimination (pivot = first nonzero entry), shared by ``det`` and ``inv``;
``inv`` follows it with a back pass.  Float mode delegates to numpy.
Matrices are lists of lists of scalars (or numpy arrays in float mode).
Only the tiny sizes this package needs (rank <= 14, typically <= 5) are
expected, so clarity beats asymptotics here.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .scalars import FLOAT, GaussianRational, coerce

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


def _eliminate(work, k: int):
    """Forward elimination, in place, on the leading k columns of the exact
    rows ``work``; returns the determinant of the leading k x k block, the
    signed product of the pivots.

    The pivot of column c is the first nonzero entry at or below row c.
    Each row below it loses its multiple of the pivot row in the columns
    right of c, across the full width, so an augmented [M | I] ends as
    [U | L] with U upper triangular on and above the diagonal (entries below
    it are left stale and never read again).  A zero determinant stops the
    elimination early.
    """
    acc = GaussianRational(1)
    for col in range(k):
        pivot_row = next((r for r in range(col, k) if work[r][col]), None)
        if pivot_row is None:
            return GaussianRational(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            acc = -acc
        top = work[col]
        pivot = top[col]
        acc = acc * pivot
        for r in range(col + 1, k):
            row = work[r]
            if row[col]:
                factor = row[col] / pivot
                row[col + 1:] = [v - factor * t for v, t in zip(row[col + 1:], top[col + 1:])]
    return acc


def det(rows):
    """Determinant of an exact square matrix (1 for the 0 x 0 matrix)."""
    return _eliminate([row[:] for row in rows], len(rows))


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
    work = [list(row) + [GaussianRational(int(c == r)) for c in range(k)]
            for r, row in enumerate(rows)]
    if not _eliminate(work, k):
        raise InputError("frame matrix is singular (exact determinant is zero)")
    # back pass on [U | L]: solve U X = L from the last row up
    for col in reversed(range(k)):
        pivot = work[col][col]
        work[col] = solved = [v / pivot for v in work[col][k:]]
        for r in range(col):
            factor = work[r][col]
            if factor:
                work[r][k:] = [v - factor * t for v, t in zip(work[r][k:], solved)]
    return work

