"""Shared fixtures, instance builders, the test-only frame generators and
reference routes, and the acceptance summary hook."""

from __future__ import annotations

import numpy as np
import pytest

from chernforms import (EXACT, FLOAT, CurvatureTensor, Form, GaussianRational,
                        bott_chern_curvature, random_exact_factor)
from chernforms.rng import complex_normal, substream

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
# form comparison


def allclose(a: Form, b: Form, tol: float = 1e-12) -> bool:
    """Coefficientwise agreement of two forms within tol * scale, after
    converting both to float mode; scale = max(1, largest coefficient).
    False when ``b`` is not a ``Form`` or the base dimensions differ."""
    if not isinstance(b, Form) or a.n != b.n:
        return False
    a, b = a.to_float(), b.to_float()
    scale = max(1.0, a.max_coefficient_magnitude(), b.max_coefficient_magnitude())
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) <= tol * scale for k in keys)


# ----------------------------------------------------------------------
# instance builders


def diagonal_tensor(n: int, mode: str = FLOAT) -> CurvatureTensor:
    """T[p, i, k] = 1 exactly when p = i = k, so A = diag(dz^1, ..., dz^n):
    the simplest factored r = n instance."""
    t = np.zeros((n, n, n), object if mode == EXACT else complex)
    for i in range(n):
        t[i, i, i] = 1
    return CurvatureTensor(t)


def integer_tensor_pair(n: int, r: int, m: int, seed: int):
    """One Gaussian-integer tensor in both modes: the exact tensor of
    ``random_exact_factor`` and its float view."""
    exact = random_exact_factor(n, r, m, seed=seed)
    return exact, CurvatureTensor(exact.array.astype(complex))


def factor_tensor(factor) -> np.ndarray:
    """T[p, i, k] read off the coefficients of a factor's entries, A_ik =
    sum_p T[p, i, k] dz^p: complex, or objects (``GaussianRational`` and the
    int 0) in exact mode.  The oracle for what the Gram route reads."""
    n, mode = factor[0][0].n, factor[0][0].mode
    t = np.zeros((n, len(factor), len(factor[0])), object if mode == EXACT else complex)
    for i, row in enumerate(factor):
        for k, entry in enumerate(row):
            for (h, _), c in entry.terms.items():
                t[h.bit_length() - 1, i, k] = c
    return t


def random_invertible(r: int, seed: int = 0) -> np.ndarray:
    """Complex normal r x r frame, redrawn until its condition number is
    <= 1e6."""
    for attempt in range(64):
        z = complex_normal(substream(seed, 104, attempt), (r, r))
        if np.linalg.cond(z) <= 1e6:
            return z
    raise RuntimeError("could not draw a well-conditioned matrix (improbable)")


def random_signed_phase_permutation(r: int, seed: int = 0) -> list:
    """Exactly unitary exact-mode frame: a permutation times diagonal phases
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


def griffiths_contraction(tensor: CurvatureTensor, xi, eta) -> complex:
    """sum R[i, j, p, q] conj(xi^i) xi^j eta^p conj(eta^q), R[i, j] the block
    of Omega_ij from ``bott_chern_curvature``: the Griffiths form by the
    curvature route, against which the sum of squares of ``griffiths_value``
    is checked."""
    xi, eta = np.asarray(xi, dtype=complex), np.asarray(eta, dtype=complex)
    sums = np.array([[b.block for b in row] for row in bott_chern_curvature(tensor).blocks])
    return complex(np.einsum("ijpq,i,j,p,q->", sums, np.conj(xi), xi, eta, np.conj(eta)))


# ----------------------------------------------------------------------
# the depth-first Leibniz walk over forms


def form_matrix_det(entries, n: int, mode: str) -> Form:
    """The determinant of a square matrix of even-degree forms by the walk
    ``schur._schur_polynomial`` runs over polynomials: permutations in
    ``itertools.permutations`` order, each prefix wedge computed once, a
    zero entry or zero prefix pruning every permutation below it, and the
    signed terms summed onto the zero form in permutation order."""
    if not entries:
        return Form.constant(n, 1, mode)
    return sum(_leibniz_terms(entries, list(range(len(entries))), Form.constant(n, 1, mode), 0),
               Form.zero(n, mode))


def _leibniz_terms(entries, free: list, prod: Form, odd: int):
    """The signed nonzero terms of ``form_matrix_det`` whose rows above
    len(entries) - len(free) took the other columns, with product ``prod``
    and parity ``odd`` so far, in permutation order."""
    d = len(entries) - len(free)
    row = entries[d]
    for pos, col in enumerate(free):
        f = row[col]
        if f.is_zero():
            continue
        nxt = prod.wedge(f)
        if nxt.is_zero():
            continue
        # columns still free left of col each form one inversion with it
        parity = odd ^ (pos & 1)
        if d + 1 == len(entries):
            yield -nxt if parity else nxt
        else:
            yield from _leibniz_terms(entries, free[:pos] + free[pos + 1:], nxt, parity)


def schur_and_chain_polynomials(n: int, r: int) -> list:
    """Every Schur polynomial of degree 1..n and every chain-step polynomial
    of weight n over rank r: the polynomials one instance evaluates."""
    from chernforms import partitions, schur_polynomial
    from chernforms.schur import chain_step_polynomials

    polys = [schur_polynomial(lam, r) for i in range(1, n + 1) for lam in partitions(i, r)]
    for lam in partitions(n, r):
        polys += [poly for _, poly in chain_step_polynomials(lam, r)]
    return polys


# ----------------------------------------------------------------------
# references for the float minors of ``forms._minors``


def gather_minors(samples: np.ndarray) -> np.ndarray:
    """The p x p minors of a float (t, p, n) batch over every p-subset, in
    ``combinations`` order: each submatrix copied out and handed to one
    stacked ``np.linalg.det``."""
    import itertools

    t, p, n = samples.shape
    cols = np.array(list(itertools.combinations(range(n), p)), dtype=np.intp)
    # samples[:, :, cols] is (t, p, subsets, p): one p x p matrix per subset and tuple
    return np.linalg.det(np.moveaxis(samples[:, :, cols], 2, 1))


def mask_det_evaluate(form: Form, vectors):
    """Exact ``evaluate`` of a homogeneous (p,p)-form on p exact vectors:
    one ``_linalg.det`` per index mask of the form's terms, and one sum
    over its terms, times (-i)^(p^2)."""
    from chernforms import _linalg
    from chernforms.scalars import GaussianRational

    p, _ = form.bidegree()
    needed = {h for (h, _) in form.terms} | {a for (_, a) in form.terms}
    dets = {mask: _linalg.det([[v[i] for v in vectors] for i in range(form.n) if mask >> i & 1])
            for mask in needed}
    total = GaussianRational(0)
    for (h, a), c in form.terms.items():
        total = total + c * dets[h] * dets[a].conjugate()
    return total * GaussianRational(0, -1) if p & 1 else total


@pytest.fixture
def diag2():
    """Diagonal r = 2 factored curvature used by several frozen checks."""
    from chernforms import bott_chern_curvature

    return bott_chern_curvature(diagonal_tensor(2))
