"""Shared fixtures, instance builders, and the acceptance summary hook."""

from __future__ import annotations

import numpy as np
import pytest

from chernforms import FLOAT, FactorMatrix, Form

# ----------------------------------------------------------------------
# acceptance bookkeeping: test_acceptance records one verdict per criterion,
# and the terminal summary prints one line each so the gate is readable
# straight off a plain `pytest -v` run.

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((number, name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok, detail in sorted(ACCEPTANCE_RESULTS):
        line = f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)


# ----------------------------------------------------------------------
# instance builders


def diagonal_factor(n: int, mode: str = FLOAT) -> FactorMatrix:
    """A = diag(dz^1, ..., dz^n): the simplest witnessed r = n instance."""
    rows = []
    for i in range(n):
        row = [Form.dz(n, i + 1, mode) if k == i else Form.zero(n, mode)
               for k in range(n)]
        rows.append(tuple(row))
    return FactorMatrix(tuple(rows))


def integer_tensor_pair(n: int, r: int, m: int, seed: int):
    """One Gaussian-integer tensor rendered both ways: the exact FactorMatrix
    of ``random_exact_factor`` and the float CurvatureTensor read off its
    entries."""
    from chernforms import CurvatureTensor, random_exact_factor

    factor = random_exact_factor(n, r, m, seed=seed)
    a = np.zeros((n, r, m), dtype=complex)
    for i, row in enumerate(factor.entries):
        for k, entry in enumerate(row):
            for p in range(n):
                c = entry.terms.get((1 << p, 0))
                if c is not None:
                    a[p, i, k] = complex(c)
    return factor, CurvatureTensor(a)


def form_matrix_det(entries, n: int, mode: str) -> Form:
    """The Leibniz determinant of a square matrix of even-degree forms."""
    from chernforms.chern import leibniz_det

    return leibniz_det(entries, Form.constant(n, 1, mode), Form.zero(n, mode), Form.wedge)


def schur_and_chain_polynomials(n: int, r: int) -> list:
    """Every Schur polynomial of degree 1..n and every chain-step polynomial
    of weight n over rank r: the polynomials one instance evaluates."""
    from chernforms import partitions, schur_polynomial
    from chernforms.schur import chain_step_polynomials

    polys = [schur_polynomial(lam, r) for i in range(1, n + 1) for lam in partitions(i, r)]
    for lam in partitions(n, r):
        polys += [poly for _, poly in chain_step_polynomials(lam, r)]
    return polys


@pytest.fixture
def diag2():
    """Diagonal r = 2 witnessed curvature used by several frozen checks."""
    from chernforms import bott_chern_curvature

    return bott_chern_curvature(diagonal_factor(2))
