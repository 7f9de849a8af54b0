"""The exact elimination shared by ``_linalg.det`` and ``_linalg.inv``.

``det`` runs only the forward pass and ``inv`` adds a back pass.  Both must
give the same values as the Gauss-Jordan elimination they replaced, kept
below as ``ref_gauss_jordan``, which clears every other row and divides
each pivot row across the full width.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from chernforms import _linalg
from chernforms.errors import InputError
from chernforms.scalars import EXACT, GaussianRational


def ref_det(rows):
    """Sum over permutations of signed products: no division, no pivots."""
    k = len(rows)
    total = GaussianRational(0)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        term = GaussianRational(-1 if inversions & 1 else 1)
        for r, c in enumerate(perm):
            term = term * rows[r][c]
        total = total + term
    return total


def ref_gauss_jordan(work, k: int):
    """The replaced elimination: in place on the leading k columns; an
    augmented [M | I] ends as [I | M^-1].  Returns the determinant."""
    acc = GaussianRational(1)
    for col in range(k):
        pivot_row = next((r for r in range(col, k) if work[r][col]), None)
        if pivot_row is None:
            return GaussianRational(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            acc = -acc
        pivot = work[col][col]
        acc = acc * pivot
        work[col] = top = [v / pivot for v in work[col]]
        for r in range(k):
            factor = work[r][col]
            if r != col and factor:
                work[r] = [v - factor * t for v, t in zip(work[r], top)]
    return acc


def ref_inv(rows):
    """M^-1 through ``ref_gauss_jordan`` on [M | I], or None if singular."""
    k = len(rows)
    work = [list(row) + [GaussianRational(int(c == r)) for c in range(k)]
            for r, row in enumerate(rows)]
    if not ref_gauss_jordan(work, k):
        return None
    return [row[k:] for row in work]


def gaussian_matrix(rng, k: int, span: int = 2):
    """k x k Gaussian-integer matrix with parts in [-span, span]; about a
    third of the entries are zero, so zero pivots and singular draws occur."""
    re = rng.integers(-span, span + 1, size=(k, k))
    im = rng.integers(-span, span + 1, size=(k, k))
    keep = rng.random((k, k)) < 0.65
    return [[GaussianRational(int(re[r, c] * keep[r, c]), int(im[r, c] * keep[r, c]))
             for c in range(k)] for r in range(k)]


def rational_matrix(rng, k: int):
    """k x k Gaussian-rational matrix: parts are fractions with denominators
    up to 6, about a third of the entries are zero, and every fourth draw
    repeats a row times a rational, so it is singular."""
    def part():
        return Fraction(int(rng.integers(-7, 8)), int(rng.integers(1, 7)))

    rows = [[GaussianRational(part(), part()) if rng.random() < 0.65 else GaussianRational(0)
             for _ in range(k)] for _ in range(k)]
    if k > 1 and rng.random() < 0.25:
        a, b = (int(v) for v in rng.choice(k, size=2, replace=False))
        scale = GaussianRational(part(), part())
        rows[b] = [scale * v for v in rows[a]]
    return rows


def swap_forcing(k: int):
    """The exchange matrix with entries 1 + i: the leading entry is zero, and
    elimination swaps row pairs until the middle."""
    return [[GaussianRational(1, 1) if r + c == k - 1 else GaussianRational(0)
             for c in range(k)] for r in range(k)]


def matmul(a, b):
    k = len(a)
    return [[sum((a[r][s] * b[s][c] for s in range(k)), GaussianRational(0))
             for c in range(k)] for r in range(k)]


def identity(k: int):
    return [[GaussianRational(int(r == c)) for c in range(k)] for r in range(k)]


def seeded_matrices():
    rng = np.random.default_rng(31)
    out = [gaussian_matrix(rng, k) for k in range(1, 6) for _ in range(40)]
    out += [swap_forcing(k) for k in range(2, 6)]
    return out


class TestDet:
    def test_empty_matrix(self):
        assert _linalg.det([]) == 1

    def test_against_permutation_sum(self):
        matrices = seeded_matrices()
        singular = 0
        for rows in matrices:
            value = _linalg.det(rows)
            assert value == ref_det(rows), rows
            singular += not value
        # the seeded draws include singular matrices, and not only those
        assert 0 < singular < len(matrices)

    def test_swaps_flip_the_sign(self):
        # exchange of 2 rows is one swap, of 3 rows one swap, of 4 rows two
        for k, sign in ((2, -1), (3, -1), (4, 1), (5, 1)):
            assert _linalg.det(swap_forcing(k)) == sign * GaussianRational(1, 1) ** k

    def test_input_is_left_unchanged(self):
        rows = swap_forcing(3)
        copy = [row[:] for row in rows]
        _linalg.det(rows)
        assert rows == copy


class TestInv:
    def test_inverse_times_matrix_is_identity(self):
        checked = 0
        for rows in seeded_matrices():
            if not ref_det(rows):
                continue
            inverse = _linalg.inv(rows, EXACT)
            assert matmul(inverse, rows) == identity(len(rows))
            assert matmul(rows, inverse) == identity(len(rows))
            checked += 1
        assert checked > 100

    def test_singular_frame_raises(self):
        rows = [[GaussianRational(1), GaussianRational(0, 1)],
                [GaussianRational(0, 1), GaussianRational(-1)]]
        assert not ref_det(rows)
        with pytest.raises(InputError, match="singular"):
            _linalg.inv(rows, EXACT)

    def test_every_seeded_singular_matrix_raises(self):
        for rows in seeded_matrices():
            if ref_det(rows):
                continue
            with pytest.raises(InputError):
                _linalg.inv(rows, EXACT)

    def test_empty_matrix(self):
        assert _linalg.inv([], EXACT) == []


class TestAgainstGaussJordan:
    """Forward pass (``det``) and forward plus back pass (``inv``) against
    the replaced Gauss-Jordan elimination on Gaussian-rational matrices."""

    def matrices(self):
        rng = np.random.default_rng(47)
        out = [rational_matrix(rng, k) for k in range(0, 7) for _ in range(40)]
        return out + seeded_matrices()

    def test_det(self):
        singular = 0
        for rows in self.matrices():
            value = _linalg.det(rows)
            assert value == ref_gauss_jordan([row[:] for row in rows], len(rows)), rows
            singular += not value
        assert singular > 40

    def test_inv(self):
        inverted = singular = 0
        for rows in self.matrices():
            expected = ref_inv(rows)
            if expected is None:
                singular += 1
                with pytest.raises(InputError, match="singular"):
                    _linalg.inv(rows, EXACT)
            else:
                inverted += 1
                assert _linalg.inv(rows, EXACT) == expected, rows
        assert inverted > 200 and singular > 40
