"""Schur polynomials in the Chern variables, partition enumeration, the
nonnegativity sweep, and the inequality chain decomposition.

The heavyweight oracle here is classical symmetric function theory: the
determinant det(c_{lam_j - j + k}) with c_d replaced by the elementary
symmetric polynomial e_d(x_1..x_r) must equal the Schur function of the
conjugate partition, computed completely independently via the bialternant
ratio of alternants.  Exact Fraction arithmetic throughout, so agreement is
on the nose.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernforms import (
    EXACT,
    Form,
    PPForm,
    Partition,
    Polynomial,
    bott_chern_curvature,
    bounds_chain_check,
    chern_forms,
    chern_number,
    evaluate_on_forms,
    nonnegative_sampled,
    partitions,
    projective_space,
    random_exact_factor,
    random_tensor,
    schur_polynomial,
    verify_schur_nonnegativity,
)
from chernforms import schur
from chernforms.chern import chern_product, top_coefficient
from chernforms.errors import InputError
from chernforms.polynomials import weighted_degree
from chernforms.schur import chain_step_polynomials, chern_variable, instance_digest

from conftest import diagonal_tensor, integer_tensor_pair, schur_and_chain_polynomials


def leibniz_det(rows):
    size = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(size)):
        sign = 1
        for a in range(size):
            for b in range(a + 1, size):
                if perm[a] > perm[b]:
                    sign = -sign
        term = Fraction(sign)
        for a in range(size):
            term *= rows[a][perm[a]]
        total += term
    return total


def elementary(d, xs):
    if d == 0:
        return Fraction(1)
    if d < 0 or d > len(xs):
        return Fraction(0)
    return sum((Fraction(1) * a for combo in itertools.combinations(xs, d)
                for a in [_prod(combo)]), Fraction(0))


def _prod(vals):
    out = Fraction(1)
    for v in vals:
        out *= v
    return out


def conjugate_partition(parts):
    parts = [p for p in parts if p > 0]
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= k) for k in range(1, parts[0] + 1))


def bialternant_schur(nu, xs):
    """s_nu(xs) = det(x_i^{nu_j + N - j}) / det(x_i^{N - j}); xs distinct."""
    n_vars = len(xs)
    nu = tuple(nu) + (0,) * (n_vars - len(nu))
    numer = [[Fraction(x) ** (nu[j] + n_vars - 1 - j) for j in range(n_vars)] for x in xs]
    denom = [[Fraction(x) ** (n_vars - 1 - j) for j in range(n_vars)] for x in xs]
    return leibniz_det(numer) / leibniz_det(denom)


def degrees(poly):
    """The weighted degrees (c_j has degree j) of a polynomial's terms."""
    return {weighted_degree(e) for e in poly.terms}


def restrict(poly, r):
    """The convention c_d = 0 for d > r: drop every term using c_{>r}, as a
    polynomial in c_1, ..., c_r."""
    return Polynomial(r, {e[:r]: c for e, c in poly.terms.items() if not any(e[r:])})


def poly_at_elementary(poly, xs):
    """Evaluate a Chern polynomial at c_d = e_d(xs)."""
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = Fraction(coeff)
        for j, e in enumerate(exps, start=1):
            if e:
                term *= elementary(j, xs) ** e
        total += term
    return total


# ----------------------------------------------------------------------
# partitions


class TestPartitions:
    def test_validation(self):
        with pytest.raises(InputError):
            Partition((1, 2))
        with pytest.raises(InputError):
            Partition((2, -1))
        assert Partition((3, 1, 0)).weight == 4
        assert Partition((3, 1, 0)).trimmed() == (3, 1)
        assert str(Partition((2, 1, 0))) == "(2,1)"
        assert str(Partition(())) == "(0)"

    def test_bool_parts_are_refused(self):
        # True would read as the part 1: chern_number(CP1, (True,)) was 2
        for parts in ((True,), (2, False), (1, True)):
            with pytest.raises(InputError, match="not bools"):
                Partition(parts)
        with pytest.raises(InputError, match="not bools"):
            chern_number(projective_space(1), (True,))

    def test_frozen_small_tables(self):
        assert [p.parts for p in partitions(2, 2)] == [(2, 0), (1, 1)]
        assert [p.parts for p in partitions(3, 2)] == [(2, 1, 0), (1, 1, 1)]
        assert [p.parts for p in partitions(1, 5)] == [(1,)]
        assert [p.parts for p in partitions(0, 3)] == [()]

    def test_against_brute_enumeration(self):
        for i in range(0, 7):
            for r in range(0, 7):
                got = [p.parts for p in partitions(i, r)]
                brute = sorted(
                    {tuple(sorted(c, reverse=True)) + (0,) * (i - len(c))
                     for k in range(i + 1)
                     for c in itertools.combinations_with_replacement(range(1, r + 1), k)
                     if sum(c) == i},
                    reverse=True)
                if i == 0:
                    brute = [()]
                assert got == brute, (i, r)

    def test_descending_lex_order(self):
        table = [p.parts for p in partitions(4, 4)]
        assert table == sorted(table, reverse=True)
        assert table[0] == (4, 0, 0, 0)
        assert table[-1] == (1, 1, 1, 1)

    def test_invalid_arguments(self):
        with pytest.raises(InputError):
            partitions(-1, 2)


# ----------------------------------------------------------------------
# polynomial ring


class TestChernPolynomial:
    def test_basic_algebra(self):
        c1 = chern_variable(1, 2)
        c2 = chern_variable(2, 2)
        p = (c1 + c2) * (c1 - c2)
        assert p == c1 * c1 - c2 * c2
        assert degrees(c1 ** 3) == {3}
        assert degrees(c1 * c2) == {3}
        assert len(degrees(c1 + c2)) > 1

    def test_conventions(self):
        assert chern_variable(0, 3) == Polynomial.one(3)
        assert chern_variable(-1, 3).is_zero()
        assert chern_variable(4, 3).is_zero()

    def test_float_coefficients_rejected(self):
        with pytest.raises(InputError):
            Polynomial(1, {(1,): 0.5})

    def test_fraction_coefficients_allowed(self):
        p = Polynomial(1, {(1,): Fraction(1, 2)})
        assert (p + p) == Polynomial(1, {(1,): 1})

    def test_mixing_ranks_raises(self):
        # each rank is a ring of its own: c_1 over rank 2 and over rank 5
        # neither mix nor compare equal
        with pytest.raises(InputError):
            chern_variable(1, 2) + chern_variable(1, 5)
        with pytest.raises(InputError):
            chern_variable(1, 2) * chern_variable(1, 5)
        assert chern_variable(1, 2) != chern_variable(1, 5)
        assert chern_variable(2, 2) != chern_variable(1, 2)

    def test_restrict(self):
        p = chern_variable(1, 3) * chern_variable(3, 3) + chern_variable(2, 3)
        assert restrict(p, 2) == chern_variable(2, 2)

    def test_str(self):
        s = str(schur_polynomial((1, 1, 1), 3))
        assert s == "c1^3 - 2*c1*c2 + c3"

    def test_power_validation(self):
        with pytest.raises(InputError):
            chern_variable(1, 1) ** -1

    def test_unit_constructors_match_the_validating_init(self):
        # zero, one and variable skip __init__ but build the same ring
        # elements, caps of 0 and below included, and reject the same rings
        for caps in (None, [0, 1, 2], (2, 0, -1)):
            assert Polynomial.zero(3, caps) == Polynomial(3, {}, caps)
            assert Polynomial.one(3, caps) == Polynomial(3, {(0, 0, 0): 1}, caps)
            for j in (1, 2, 3):
                exps = tuple(int(k == j - 1) for k in range(3))
                assert Polynomial.variable(j, 3, caps) == Polynomial(3, {exps: 1}, caps)
        for build in (Polynomial.zero, Polynomial.one,
                      lambda nvars, caps=None: Polynomial.variable(1, nvars, caps)):
            with pytest.raises(InputError, match="one entry per variable"):
                build(2, (1,))
        for build in (Polynomial.zero, Polynomial.one):
            with pytest.raises(InputError, match="nonnegative"):
                build(-1)
        for j in (0, 3):
            with pytest.raises(InputError, match="out of range"):
                Polynomial.variable(j, 2)


# ----------------------------------------------------------------------
# Schur polynomials


class TestSchurPolynomial:
    def test_single_row_is_chern_class(self):
        for r in range(1, 6):
            for i in range(1, r + 1):
                assert schur_polynomial((i,), r) == chern_variable(i, r)

    def test_two_row_identity(self):
        # S_(i-j, j) = c_{i-j} c_j - c_{i-j+1} c_{j-1}
        for r in range(1, 6):
            for i in range(1, 6):
                for j in range(1, i // 2 + 1):
                    got = schur_polynomial((i - j, j), r)
                    want = (chern_variable(i - j, r) * chern_variable(j, r)
                            - chern_variable(i - j + 1, r) * chern_variable(j - 1, r))
                    assert got == want, (r, i, j)

    def test_frozen_column_case(self):
        assert schur_polynomial((1, 1, 1), 3) == (
            chern_variable(1, 3) ** 3
            - 2 * chern_variable(1, 3) * chern_variable(2, 3)
            + chern_variable(3, 3))

    def test_padding_invariance(self):
        for r in (2, 3):
            for lam in partitions(4, r):
                assert schur_polynomial(lam.trimmed(), r) == schur_polynomial(lam, r)
                assert schur_polynomial(lam.trimmed() + (0, 0, 0), r) == schur_polynomial(lam, r)

    def test_built_once_per_trimmed_partition(self):
        # one entry per (lam.trimmed(), r): padded and unpadded lambda, as a
        # Partition or a sequence, share the expansion of the trimmed parts,
        # which lists its terms as the padded determinant does
        poly = schur_polynomial(Partition((2, 1, 0)), 3)
        assert schur_polynomial(Partition((2, 1, 0)), 3) is poly
        assert schur_polynomial([2, 1, 0, 0], 3) is poly
        assert schur_polynomial((2, 1), 3) is poly
        assert schur_polynomial((2, 1), 4) is not poly
        for parts in ((2, 1), (2, 1, 0), (2, 1, 0, 0)):
            fresh = schur._schur_polynomial.__wrapped__(parts, 3)
            assert list(poly.terms.items()) == list(fresh.terms.items())

    def test_chain_steps_built_once(self):
        steps = chain_step_polynomials(Partition((2, 1)), 3)
        assert isinstance(steps, tuple)
        assert chain_step_polynomials(Partition((2, 1)), 3) is steps

    def test_part_above_rank_is_zero(self):
        assert schur_polynomial((3,), 2).is_zero()
        assert schur_polynomial((3, 1), 2).is_zero()

    def test_rank_embedding_truncates(self):
        # the rank-r polynomial is the rank-R one with c_{>r} struck out
        for lam in [(2, 1), (2, 2), (3, 1)]:
            assert schur_polynomial(lam, 2) == restrict(schur_polynomial(lam, 5), 2)

    def test_against_bialternant_oracle(self):
        # dual Jacobi-Trudi: det(c_{lam_j - j + k}) at c_d = e_d(x) equals the
        # Schur function of the conjugate partition
        xs_pool = [2, 3, 5, 7, 11]
        for r in range(1, 5):
            xs = xs_pool[:r]
            for weight in range(1, 6):
                for lam in partitions(weight, r):
                    lhs = poly_at_elementary(schur_polynomial(lam, r), xs)
                    rhs = bialternant_schur(conjugate_partition(lam.parts), xs)
                    assert lhs == rhs, (r, lam.parts)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_bialternant_oracle_random_points(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 5))
        xs = list({int(v) for v in rng.integers(-9, 10, size=8)})[:r]
        if len(xs) < r:
            return
        weight = int(rng.integers(1, 6))
        lams = partitions(weight, r)
        lam = lams[int(rng.integers(0, len(lams)))]
        lhs = poly_at_elementary(schur_polynomial(lam, r), xs)
        rhs = bialternant_schur(conjugate_partition(lam.parts), xs)
        assert lhs == rhs


# ----------------------------------------------------------------------
# substitution into Chern forms


class TestEvaluateOnForms:
    def test_zero_polynomial(self, diag2):
        cs = chern_forms(diag2)
        assert evaluate_on_forms(Polynomial.zero(2), cs).is_zero()

    def test_single_variable(self, diag2):
        cs = chern_forms(diag2)
        assert evaluate_on_forms(chern_variable(1, 2), cs) == cs.form(1)

    def test_two_row_schur_on_diagonal_instance(self, diag2):
        # on the diagonal instance c_1^2 = 2 c_2, so S_(1,1) = c_1^2 - c_2 = c_2
        cs = chern_forms(diag2)
        got = evaluate_on_forms(schur_polynomial((1, 1), 2), cs)
        assert got.to_form().allclose(cs.form(2).to_form(), 1e-13)

    def test_variable_above_rank_gives_zero(self, diag2):
        # a rank-5 polynomial mentioning c_3 lands on a rank-2 instance: zero
        cs = chern_forms(diag2)
        assert evaluate_on_forms(chern_variable(3, 5), cs).is_zero()
        assert evaluate_on_forms(chern_variable(2, 5), cs) == cs.form(2)

    def test_exact_mode_grading(self):
        factor = random_exact_factor(2, 2, 2, seed=3)
        cs = chern_forms(factor)
        f = evaluate_on_forms(schur_polynomial((1, 1), 2), cs)
        assert f.p == 2 and f.block.shape == (1, 1)
        assert f.mode == EXACT


class TestChernFormSetMemo:
    @staticmethod
    def _tensor(seed=2):
        return random_tensor(4, 3, 2, seed=seed)

    def test_equality_hash_and_repr_ignore_memo(self):
        filled, fresh = chern_forms(self._tensor()), chern_forms(self._tensor())
        evaluate_on_forms(schur_polynomial((2, 1), 3), filled)
        assert filled.memo and not fresh.memo
        assert filled == fresh
        assert hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        assert "memo" not in repr(filled)

    def test_evaluation_order_does_not_change_bits(self):
        polys = schur_and_chain_polynomials(4, 3)
        forward, backward = chern_forms(self._tensor()), chern_forms(self._tensor())
        got_fwd = [repr(list(evaluate_on_forms(p, forward).terms.items())) for p in polys]
        got_bwd = [repr(list(evaluate_on_forms(p, backward).terms.items()))
                   for p in reversed(polys)][::-1]
        got_fresh = [repr(list(evaluate_on_forms(p, chern_forms(self._tensor())).terms.items()))
                     for p in polys]
        assert got_fwd == got_bwd == got_fresh

    def test_power_matches_wedge_power(self):
        # the pair (j, e) stands for 1 ^ c_j ^ ... ^ c_j (e factors)
        cs = chern_forms(self._tensor())
        for j in range(cs.top_degree + 2):
            want = PPForm.constant(cs.n, 1, cs.mode)
            for e in range(4):
                got = cs.product(1, (j,) * e)
                assert repr(list(got.terms.items())) == repr(list(want.terms.items()))
                assert cs.product(7, [(j, e)]) is cs.memo[(7, (j, e))]
                want = want.wedge(cs.form(j))
        assert cs.product(1, (1, 1, 1)) is cs.product(1, (1, 1, 1))

    def test_float_to_numeric_shares_the_memo(self):
        cs = chern_forms(self._tensor())
        assert cs.to_numeric() is cs
        for lam in partitions(4, 3):
            bounds_chain_check(cs, lam, trials=5, seed=0)
        assert (1, 1, 1, 1, 1) in cs.memo

    def test_chain_top_reads_the_memo_entry_of_one_to_the_n(self, monkeypatch):
        # the top chain's c_1^n is the product of the partition (1^n): one
        # memo entry, wedged once per set
        cs = chern_forms(self._tensor())
        tops = []

        def recording(form, tol=1e-9):
            tops.append(form)
            return top_coefficient(form, tol)

        monkeypatch.setattr(schur, "top_coefficient", recording)
        report = bounds_chain_check(cs, (2, 1, 1), trials=5, seed=0)
        assert report.top is not None and len(tops) == 3
        assert tops[2] is cs.memo[(1, 1, 1, 1, 1)] is chern_product(cs, (1, 1, 1, 1))
        assert tops[1] is cs.memo[(1, 2, 1, 1)]

    def test_exact_to_numeric_starts_empty(self):
        cs = chern_forms(random_exact_factor(2, 2, 2, seed=3))
        evaluate_on_forms(schur_polynomial((1, 1), 2), cs)
        num = cs.to_numeric()
        assert num is not cs and cs.memo and not num.memo


# ----------------------------------------------------------------------
# the verification engines


class TestVerifySchur:
    def test_diagonal_instance_passes(self):
        import numpy as np
        from chernforms import CurvatureTensor

        arr = np.zeros((2, 2, 2), dtype=complex)
        arr[0, 0, 0] = 1.0
        arr[1, 1, 1] = 1.0
        rep = verify_schur_nonnegativity(CurvatureTensor(arr), trials=30, seed=1)
        assert rep.passed
        assert {c.degree for c in rep.checks} == {1, 2}
        assert [c.partition for c in rep.checks if c.degree == 2] == [(2, 0), (1, 1)]

    def test_random_instance_passes(self):
        t = random_tensor(3, 2, 2, seed=14)
        rep = verify_schur_nonnegativity(t, trials=40, seed=2)
        assert rep.passed
        assert rep.to_dict()["verdict"] == "PASS"

    def test_zero_tensor_passes_trivially(self):
        import numpy as np
        from chernforms import CurvatureTensor

        t = CurvatureTensor(np.zeros((2, 2, 1), dtype=complex))
        rep = verify_schur_nonnegativity(t, trials=5, seed=0)
        assert rep.passed
        assert all(c.report.min_value == 0.0 for c in rep.checks)

    def test_degrees_filter_and_validation(self):
        t = random_tensor(3, 2, 1, seed=5)
        rep = verify_schur_nonnegativity(t, degrees=[2], trials=10, seed=0)
        assert {c.degree for c in rep.checks} == {2}
        with pytest.raises(InputError):
            verify_schur_nonnegativity(t, degrees=[0], trials=10)
        with pytest.raises(InputError):
            verify_schur_nonnegativity(t, degrees=[4], trials=10)

    def test_degrees_are_checked_before_building(self, monkeypatch):
        def no_build(*_):
            raise AssertionError("Chern forms built before the degrees check")
        monkeypatch.setattr(schur, "chern_forms", no_build)
        with pytest.raises(InputError, match="degrees must lie in 1..n=3"):
            verify_schur_nonnegativity(random_tensor(3, 2, 1, seed=5), degrees=[0])

    def test_report_embeds_instance_and_hash(self):
        t = random_tensor(2, 2, 1, seed=8)
        rep = verify_schur_nonnegativity(t, trials=10, seed=3)
        assert rep.instance == t.to_json()
        assert rep.instance_hash == instance_digest(t.to_json())

    def test_deterministic_and_order_independent(self):
        t = random_tensor(3, 3, 2, seed=9)
        a = verify_schur_nonnegativity(t, trials=25, seed=4)
        b = verify_schur_nonnegativity(t, trials=25, seed=4)
        assert a.to_dict() == b.to_dict()
        # per-degree runs reproduce the corresponding slice of the full run
        only2 = verify_schur_nonnegativity(t, degrees=[2], trials=25, seed=4)
        full2 = [c.to_dict() for c in a.checks if c.degree == 2]
        assert [c.to_dict() for c in only2.checks] == full2

    def test_round_trip_reproduces_verdict(self):
        from chernforms import CurvatureTensor

        t = random_tensor(2, 2, 2, seed=10)
        rep = verify_schur_nonnegativity(t, trials=20, seed=6)
        back = CurvatureTensor.from_json(rep.instance)
        rep2 = verify_schur_nonnegativity(back, trials=20, seed=6)
        assert rep2.to_dict() == rep.to_dict()


class TestSchurNegativeControls:
    """The sampled check can say FAIL: on one witnessed instance with m >= n
    every S_lambda, lambda in Gamma(i, r) with i <= n, is a nonzero form that
    passes, and its negative fails, at the default trials and tol."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_each_negated_schur_form_fails(self, mode):
        n, r, m = 5, 3, 5
        exact, floats = integer_tensor_pair(n, r, m, seed=0)
        cs = chern_forms(exact if mode == "exact" else floats)
        forms = {lam.parts: evaluate_on_forms(schur_polynomial(lam, r), cs)
                 for i in range(1, n + 1) for lam in partitions(i, r)}
        assert len(forms) == 15
        # with at most m nonzero parts no S_lambda vanishes identically
        assert [parts for parts, form in forms.items() if form.is_zero()] == []
        for parts, form in forms.items():
            assert nonnegative_sampled(form).passed, parts
            assert not nonnegative_sampled(form.scale(-1)).passed, parts


class TestSchurVanishing:
    """det(I_r + t A A^*) det(I_m + t A^* A) = 1 for odd entries, so
    1/c(Omega) has degree at most m and S_lambda(c(Omega)) vanishes when
    lambda has more than m nonzero parts (CONVENTIONS.md)."""

    @pytest.mark.parametrize("n,r,m", [(5, 3, 1), (5, 3, 2), (5, 3, 3), (5, 3, 4),
                                       (4, 5, 1), (4, 5, 2), (4, 5, 3)])
    def test_exact_schur_forms_beyond_m_parts_are_zero(self, n, r, m):
        # Chern forms from the Laplace route, which never sees the factor
        cs = chern_forms(bott_chern_curvature(random_exact_factor(n, r, m, seed=m)))
        nonzero = 0
        for i in range(1, n + 1):
            for lam in partitions(i, r):
                form = evaluate_on_forms(schur_polynomial(lam, r), cs)
                if len(lam.trimmed()) > m:
                    assert form.is_zero() and form.mode == EXACT, lam
                else:
                    nonzero += not form.is_zero()
        assert nonzero

    def test_verify_reports_the_zero_form_beyond_m_parts(self):
        tensor = random_tensor(5, 3, 2, seed=4)
        report = verify_schur_nonnegativity(tensor)
        zero = nonnegative_sampled(Form.zero(5), 50, 0).to_dict()
        beyond = [c for c in report.checks if sum(1 for p in c.partition if p) > 2]
        assert beyond and report.passed
        for chk in beyond:
            rep = chk.report.to_dict()
            assert rep["seed"] != 0
            assert dict(rep, seed=0) == zero


class TestChainSteps:
    def test_steps_for_hook(self):
        # lambda = (2,1): lower chain is S_(2,1), upper chain is c1 * S_(1,1)
        steps = chain_step_polynomials(Partition((2, 1)), 3)
        polys = [p for _, p in steps]
        assert polys == [
            schur_polynomial((2, 1), 3),
            chern_variable(1, 3) * schur_polynomial((1, 1), 3),
        ]

    def test_steps_for_single_row(self):
        # lambda = (n): no lower steps, n-1 upper steps
        steps = chain_step_polynomials(Partition((3,)), 3)
        assert len(steps) == 2
        c1 = chern_variable(1, 3)
        c2 = chern_variable(2, 3)
        c3 = chern_variable(3, 3)
        assert steps[0][1] == c1 * c2 - c3
        assert steps[1][1] == c1 * (c1 * c1 - c2)

    def test_steps_for_column(self):
        # lambda = (1,...,1): c_lambda = c_1^i, so no upper steps
        steps = chain_step_polynomials(Partition((1, 1, 1)), 3)
        labels = [lab for lab, _ in steps]
        assert len(steps) == 2
        assert all("c1*" in lab or "- c" in lab for lab in labels)

    def test_every_step_is_homogeneous_of_full_weight(self):
        for r in (2, 3):
            for lam in partitions(4, r):
                for _, poly in chain_step_polynomials(lam, r):
                    assert degrees(poly) <= {4}

    def test_steps_telescope(self):
        # lower steps sum to c_lambda - c_i; upper steps to c_1^i - c_lambda
        for r in (2, 3, 4):
            for weight in (2, 3, 4):
                for lam in partitions(weight, r):
                    total = Polynomial.zero(r)
                    for _, poly in chain_step_polynomials(lam, r):
                        total = total + poly
                    want = (chern_variable(1, r) ** weight
                            - chern_variable(weight, r))
                    assert total == want, (r, lam.parts)


class TestBoundsChain:
    def test_requires_witness(self):
        from chernforms import CurvatureMatrix

        m = CurvatureMatrix(((Form.monomial(1, [1], [1], 1.0),),))
        cs = chern_forms(m)
        with pytest.raises(InputError, match="witness"):
            bounds_chain_check(cs, (1,))

    def test_weight_and_part_validation(self):
        cs = chern_forms(diagonal_tensor(2))
        with pytest.raises(InputError):
            bounds_chain_check(cs, (2, 1))  # weight 3 > n = 2
        with pytest.raises(InputError):
            bounds_chain_check(cs, (3,))  # part 3 > r = 2

    def test_diagonal_instance_chain(self):
        cs = chern_forms(diagonal_tensor(2))
        rep = bounds_chain_check(cs, (1, 1), trials=30, seed=2)
        assert rep.passed
        assert rep.top is not None and rep.top["passed"]
        # frozen: top(c_2) = top(c_lambda) = 1/(2pi)^2, top(c_1^2) = 2/(2pi)^2
        import math

        assert rep.top["c_n"] == pytest.approx((2 * math.pi) ** -2)
        assert rep.top["c_lambda"] == pytest.approx(2 * (2 * math.pi) ** -2)
        assert rep.top["c_1^n"] == pytest.approx(2 * (2 * math.pi) ** -2)

    def test_random_instances_pass(self):
        for seed in (1, 2, 3):
            t = random_tensor(3, 3, 2, seed=seed)
            cs = chern_forms(t)
            for lam in partitions(3, 3):
                rep = bounds_chain_check(cs, lam, trials=30, seed=seed)
                assert rep.passed, (seed, lam.parts)

    def test_below_top_weight_has_no_scalar_block(self):
        t = random_tensor(3, 2, 2, seed=4)
        cs = chern_forms(t)
        rep = bounds_chain_check(cs, (1, 1), trials=10, seed=0)
        assert rep.top is None and rep.weight == 2

    @pytest.mark.parametrize("lam", [(3,), (2, 1), (1, 1, 1)])
    def test_one_column_factor_steps_are_zero(self, lam):
        # with m = 1 every step has a Schur factor S_(w-j, j) or S_(t-1, 1)
        # with two parts > m: each gets the zero form's report, with its own
        # seed, and the scalar top chain is still compared
        cs = chern_forms(random_tensor(3, 3, 1, seed=2))
        assert cs.m == 1
        rep = bounds_chain_check(cs, lam, trials=10, seed=4)
        labels = [label for label, _ in chain_step_polynomials(Partition(lam), 3)]
        assert [s.label for s in rep.steps] == labels
        assert rep.steps
        for index, step in enumerate(rep.steps):
            zero = nonnegative_sampled(Form.zero(3), 10, schur.derive_seed(4, 11, index))
            assert step.report == zero
        num = cs.to_numeric()
        tops = [top_coefficient(f) for f in (num.form(3), chern_product(num, lam),
                                             chern_product(num, (1, 1, 1)))]
        assert [rep.top["c_n"], rep.top["c_lambda"], rep.top["c_1^n"]] == tops
        assert rep.top["passed"]

    def test_deterministic(self):
        t = random_tensor(2, 2, 2, seed=6)
        cs = chern_forms(t)
        a = bounds_chain_check(cs, (1, 1), trials=20, seed=5)
        b = bounds_chain_check(cs, (1, 1), trials=20, seed=5)
        assert a.to_dict() == b.to_dict()
