"""Acceptance gate: one test per shipped guarantee, pinned tolerances.

Each criterion reports one PASS/FAIL line in the pytest terminal summary (see
conftest.pytest_terminal_summary).  The numbered guarantees:

1. exact Schur identities for r <= 5, i <= 5, under 1 second
2. 200 seeded witnessed instances, every Schur form nonnegative within
   tol 1e-9 relative: from its block at degrees 1, n-1 and n, on 50 sampled
   tuples elsewhere; under 60 seconds
3. same instances: every inequality-chain step form passes its check and
   the top-degree scalars are ordered within 1e-9 relative, all lambda in
   Gamma(n, r)
4. frame invariance: 100 exact signed-permutation-phase changes leave the
   Chern forms literally identical; 100 float invertible changes agree to
   1e-10 relative
5. 100 random curvature quadratic-form evaluations: tensor-contraction route
   equals the sum-of-squares route within 1e-12 relative, and is >= 0
6. model Chern numbers match the binomial oracle on CP^n (n = 1..4), the
   integer bound chain passes on every catalog model, torus-type models are
   identically zero with the vanishing propagated, signed variant included
7. Riemann-Roch: chi(CP^n, O(m)) = C(m+n, n) exactly for n <= 3, |m| <= 5;
   Todd polynomials match the classical closed forms; the Kodaira leading
   coefficient is the top RR coefficient on every catalog model
8. determinism per seed, and this module (the dominant cost of the suite)
   finishes well inside the 2-minute budget

Tolerances are pinned here and nowhere else: TOL_SAMPLED = 1e-9,
TOL_FRAME_FLOAT = 1e-10, TOL_GRIFFITHS = 1e-12.
"""

import functools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from chernforms import (
    CATALOG,
    CurvatureTensor,
    bott_chern_curvature,
    bounds_chain_check,
    chern_forms,
    chern_number,
    complex_torus,
    euler_characteristic,
    griffiths_value,
    kodaira_leading,
    line_class,
    partitions,
    product,
    projective_space,
    random_exact_factor,
    random_tensor,
    rr_polynomial,
    schur_polynomial,
    todd_polynomials,
    verify_number_bounds,
    verify_schur_nonnegativity,
)
from chernforms.cli import run as cli_run
from chernforms.errors import InputError
from chernforms.rng import derive_seed, substream
from chernforms.schur import chern_variable

from conftest import allclose, griffiths_contraction, random_invertible, \
    random_signed_phase_permutation, record_criterion

MODULE_START = time.perf_counter()

MASTER_SEED = 20260819
INSTANCE_COUNT = 200
TRIALS = 50
TOL_SAMPLED = 1e-9
TOL_FRAME_FLOAT = 1e-10
TOL_GRIFFITHS = 1e-12


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                record_criterion(num, name, False)
                raise
            record_criterion(num, name, True, detail or "")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def instance_batch():
    """The 200 seeded instances shared by criteria 2 and 3."""
    batch = []
    for idx in range(INSTANCE_COUNT):
        dims = substream(MASTER_SEED, 3, idx)
        n = int(dims.integers(1, 5))
        r = int(dims.integers(1, 5))
        m = int(dims.integers(1, 6))
        batch.append(random_tensor(n, r, m, seed=derive_seed(MASTER_SEED, 4, idx)))
    return batch


def by_method(reports) -> str:
    """How many of ``reports`` each method decided, with the worst margin,
    min_value / (tol * scale), among them: below -1 is a FAIL."""
    margins: dict = {}
    for rep in reports:
        margins.setdefault(rep.method, []).append(rep.margin)
    return ", ".join(f"{method} {len(values)} worst margin {min(values):.2e}"
                     for method, values in sorted(margins.items()))


@criterion(1, "schur-identities")
def test_criterion_1_schur_identities():
    start = time.perf_counter()
    for r in range(1, 6):
        for i in range(1, 6):
            assert schur_polynomial((i,), r) == chern_variable(i, r), (r, i)
            for j in range(1, i // 2 + 1):
                lhs = schur_polynomial((i - j, j), r)
                rhs = (chern_variable(i - j, r) * chern_variable(j, r)
                       - chern_variable(i - j + 1, r) * chern_variable(j - 1, r))
                assert lhs == rhs, (r, i, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"identity suite took {elapsed:.2f}s"
    return f"r,i <= 5 exact, {elapsed * 1000:.0f} ms"


@criterion(2, "schur-nonnegativity")
def test_criterion_2_schur_nonnegativity(instance_batch):
    start = time.perf_counter()
    reports = []
    failures = []
    for idx, tensor in enumerate(instance_batch):
        report = verify_schur_nonnegativity(
            tensor, trials=TRIALS, seed=derive_seed(MASTER_SEED, 5, idx),
            tol=TOL_SAMPLED)
        reports += [chk.report for chk in report.checks]
        failures += [(idx, chk.degree, chk.partition, chk.report.min_value)
                     for chk in report.checks if not chk.report.passed]
    elapsed = time.perf_counter() - start
    assert not failures, failures[:5]
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    return (f"{INSTANCE_COUNT} instances, {len(reports)} partition checks "
            f"({by_method(reports)}), {elapsed:.1f}s")


@criterion(3, "inequality-chains")
def test_criterion_3_inequality_chains(instance_batch):
    start = time.perf_counter()
    chains = 0
    steps = []
    failures = []
    for idx, tensor in enumerate(instance_batch):
        cs = chern_forms(tensor)
        for lam_idx, lam in enumerate(partitions(tensor.n, tensor.r)):
            rep = bounds_chain_check(
                cs, lam, trials=TRIALS,
                seed=derive_seed(MASTER_SEED, 6, idx, lam_idx), tol=TOL_SAMPLED)
            chains += 1
            steps += [step.report for step in rep.steps]
            assert rep.top is not None  # weight = n by construction
            if not rep.passed:
                failures.append((idx, lam.parts, rep.top))
    elapsed = time.perf_counter() - start
    assert not failures, failures[:5]
    return (f"{chains} chains / {len(steps)} step forms ({by_method(steps)}) on the "
            f"criterion-2 instances, top scalars ordered, {elapsed:.1f}s")


@criterion(4, "frame-invariance")
def test_criterion_4_frame_invariance():
    # exact half: the frame is exactly unitary, so equality is literal
    for case in range(100):
        dims = substream(MASTER_SEED, 7, case)
        n = int(dims.integers(1, 4))
        r = int(dims.integers(1, 5))
        m = int(dims.integers(1, 3))
        factor = random_exact_factor(n, r, m, seed=derive_seed(MASTER_SEED, 8, case))
        omega = bott_chern_curvature(factor)
        frame = random_signed_phase_permutation(r, seed=derive_seed(MASTER_SEED, 9, case))
        from chernforms import change_frame

        # Gram route in the first frame, Laplace route in the second
        cs_a = chern_forms(factor)
        cs_b = chern_forms(change_frame(omega, frame))
        for i in range(cs_a.top_degree + 1):
            assert cs_a.form(i) == cs_b.form(i), (case, i)

    # float half: arbitrary well-conditioned invertible frames
    from chernforms import change_frame

    worst = 0.0
    for case in range(100):
        dims = substream(MASTER_SEED, 10, case)
        n = int(dims.integers(1, 5))
        r = int(dims.integers(1, 5))
        tensor = random_tensor(n, r, seed=derive_seed(MASTER_SEED, 11, case))
        omega = bott_chern_curvature(tensor)
        frame = random_invertible(r, seed=derive_seed(MASTER_SEED, 12, case))
        cs_a = chern_forms(tensor)
        cs_b = chern_forms(change_frame(omega, frame))
        for i in range(1, cs_a.top_degree + 1):
            a, b = cs_a.form(i).to_form(), cs_b.form(i).to_form()
            scale = max(1.0, a.max_coefficient_magnitude())
            diff = (a - b).max_coefficient_magnitude() / scale
            worst = max(worst, diff)
            assert allclose(a, b, TOL_FRAME_FLOAT), (case, i, diff)
    return f"100 exact identical + 100 float within {TOL_FRAME_FLOAT:g} (worst {worst:.2e})"


@criterion(5, "griffiths-identity")
def test_criterion_5_griffiths_identity():
    # griffiths_value is the sum of squares; the contraction of Omega's
    # coefficients (bott_chern_curvature) is the other route, held to it here;
    # the summary names the smallest value and the largest gap between the
    # routes relative to the scale they are held to
    smallest, worst_gap = math.inf, 0.0
    for case in range(100):
        dims = substream(MASTER_SEED, 13, case)
        n = int(dims.integers(1, 5))
        r = int(dims.integers(1, 5))
        m = int(dims.integers(1, 5))
        tensor = random_tensor(n, r, m, seed=derive_seed(MASTER_SEED, 14, case))
        vecs = substream(MASTER_SEED, 15, case)
        xi = vecs.normal(size=r) + 1j * vecs.normal(size=r)
        eta = vecs.normal(size=n) + 1j * vecs.normal(size=n)
        value = griffiths_value(tensor, xi, eta)
        contraction = griffiths_contraction(tensor, xi, eta)
        scale = max(1.0, abs(contraction), value)
        assert abs(contraction - value) <= TOL_GRIFFITHS * scale, (case, contraction, value)
        assert value >= 0.0, (case, value)
        smallest = min(smallest, value)
        worst_gap = max(worst_gap, abs(contraction - value) / scale)
    return (f"100 instances, routes within {TOL_GRIFFITHS:g} (worst {worst_gap:.2e}), "
            f"min value {smallest:.2e}")


@criterion(6, "model-chern-numbers")
def test_criterion_6_model_numbers():
    # binomial oracle on projective spaces
    for n in range(1, 5):
        model = projective_space(n)
        for lam in partitions(n, n):
            want = 1
            for part in lam.parts:
                if part:
                    want *= math.comb(n + 1, part)
            assert chern_number(model, lam) == want, (n, lam.parts)
    cp3 = projective_space(3)
    assert chern_number(cp3, (3,)) == 4
    assert chern_number(cp3, (2, 1)) == 24
    assert chern_number(cp3, (1, 1, 1)) == 64

    # integer bound chain on every catalog model
    for model in CATALOG:
        rep = verify_number_bounds(model)
        assert rep.passed, model.label
        if model.torus_dim:
            assert rep.all_zero and all(v == 0 for _, v in rep.numbers), model.label

    # signed variant on the torus-type models; rejected elsewhere
    for model in (complex_torus(1), complex_torus(2),
                  product(complex_torus(1), complex_torus(1))):
        rep = verify_number_bounds(model, signed=True)
        assert rep.passed and rep.all_zero, model.label
    with pytest.raises(InputError):
        verify_number_bounds(projective_space(2), signed=True)
    return "CP^1..CP^4 vs binomial oracle; 11 catalog chains; vanishing + signed"


@criterion(7, "riemann-roch")
def test_criterion_7_riemann_roch():
    # chi(CP^n, O(m)) = C(m+n, n) for all integers m, binomial read as the
    # degree-n polynomial; cross-checked against the monomial-count oracle
    def binom_poly(m, n):
        num = 1
        for j in range(1, n + 1):
            num *= m + j
        return Fraction(num, math.factorial(n))

    def monomial_count(n, m):
        if m >= 0:
            return math.comb(m + n, n)
        s = -m - n - 1
        return 0 if s < 0 else (-1) ** n * math.comb(s + n, n)

    for n in range(1, 4):
        model = projective_space(n)
        hyper = line_class(model, "O(1)")
        for m in range(-5, 6):
            chi = euler_characteristic(model, hyper, m)
            assert chi == binom_poly(m, n) == monomial_count(n, m), (n, m)

    # Todd polynomials against the classical closed forms
    c = lambda d: chern_variable(d, 4)
    closed = (
        Fraction(1, 2) * c(1),
        Fraction(1, 12) * (c(1) ** 2 + c(2)),
        Fraction(1, 24) * c(1) * c(2),
        Fraction(-1, 720) * (c(1) ** 4 - 4 * c(1) ** 2 * c(2)
                             - 3 * c(2) ** 2 - c(1) * c(3) + c(4)),
    )
    got = todd_polynomials(4)
    for i, want in enumerate(closed, start=1):
        assert got[i] == want, f"td_{i}"

    # Kodaira leading coefficient = top coefficient of chi(M, K^m)
    for model in CATALOG:
        poly = rr_polynomial(model, line_class(model, "K"))
        assert poly[model.dim] == kodaira_leading(model), model.label
    assert kodaira_leading(projective_space(1)) == -2
    assert kodaira_leading(projective_space(2)) == Fraction(9, 2)
    assert kodaira_leading(complex_torus(2)) == 0
    return "chi oracle n<=3 |m|<=5; td_1..td_4 closed forms; catalog Kodaira"


@criterion(8, "determinism-and-runtime")
def test_criterion_8_determinism_and_runtime(instance_batch, capsys):
    tensor = instance_batch[0]
    a = verify_schur_nonnegativity(tensor, trials=30, seed=77, tol=TOL_SAMPLED)
    b = verify_schur_nonnegativity(tensor, trials=30, seed=77, tol=TOL_SAMPLED)
    assert a.to_dict() == b.to_dict()

    cs = chern_forms(tensor)
    lam = partitions(tensor.n, tensor.r)[0]
    ca = bounds_chain_check(cs, lam, trials=30, seed=78, tol=TOL_SAMPLED)
    cb = bounds_chain_check(cs, lam, trials=30, seed=78, tol=TOL_SAMPLED)
    assert ca.to_dict() == cb.to_dict()

    # byte-for-byte identical CLI reports
    argv = ["schur", "verify", "--random", "--n", "2", "--r", "2",
            "--seed", "123", "--trials", "20"]
    assert cli_run(argv) == 0
    out1 = capsys.readouterr().out
    assert cli_run(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2 and json.loads(out1)["verdict"] == "PASS"

    elapsed = time.perf_counter() - MODULE_START
    assert elapsed < 120.0, f"acceptance module took {elapsed:.1f}s"
    return f"reports byte-identical per seed; acceptance module {elapsed:.1f}s"
