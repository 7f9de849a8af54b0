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
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernforms import (
    EXACT,
    FLOAT,
    Form,
    PPForm,
    Partition,
    Polynomial,
    TupleBatch,
    bott_chern_curvature,
    bounds_chain_check,
    chern_forms,
    chern_number,
    evaluate,
    evaluate_on_forms,
    nonnegative_psd,
    nonnegative_sampled,
    partitions,
    projective_space,
    random_exact_factor,
    random_tensor,
    schur_polynomial,
    verify_schur_nonnegativity,
)
from chernforms import forms, schur
from chernforms.chern import chern_product, top_coefficient
from chernforms.errors import InputError
from chernforms.forms import DEFAULT_TOL
from chernforms.polynomials import weighted_degree
from chernforms.rng import complex_normal, substream
from chernforms.scalars import GaussianRational, scalar_json
from chernforms.schur import chain_step_polynomials, chern_variable, instance_digest

from conftest import allclose, diagonal_tensor, integer_tensor_pair, schur_and_chain_polynomials


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

    def test_each_table_is_built_once_and_shared(self):
        # Gamma(i, r) is kept per (i, r): every caller gets the same tuple
        # of frozen partitions, which no caller can change
        table = partitions(5, 3)
        assert partitions(5, 3) is table and isinstance(table, tuple)
        with pytest.raises(AttributeError):
            table[0].parts = (1,)
        assert [p.parts for p in table] == [(3, 2, 0, 0, 0), (3, 1, 1, 0, 0), (2, 2, 1, 0, 0),
                                            (2, 1, 1, 1, 0), (1, 1, 1, 1, 1)]


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
        assert allclose(got.to_form(), cs.form(2).to_form(), 1e-13)

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
        # the parts (j,) * e stand for c_j ^ ... ^ c_j (e factors), wedged
        # from the stored c_j, and no parts for c_0; each prefix is kept
        # under its flat tuple of parts
        cs = chern_forms(self._tensor())
        for j in range(cs.top_degree + 2):
            want = cs.form(0)
            for e in range(4):
                got = cs.product((j,) * e)
                assert repr(list(got.terms.items())) == repr(list(want.terms.items()))
                want = cs.form(j) if e == 0 else want.wedge(cs.form(j))
        assert cs.product((1, 1, 1)) is cs.product([1, 1, 1]) is cs.memo[(1, 1, 1)]
        assert cs.memo[()] is cs.form(0) and cs.memo[(2,)] is cs.form(2)
        assert all(type(part) is int for key in cs.memo for part in key)

    def test_float_to_numeric_shares_the_memo(self):
        cs = chern_forms(self._tensor())
        assert cs.to_numeric() is cs
        for lam in partitions(4, 3):
            bounds_chain_check(cs, lam, trials=5, seed=0)
        assert (1, 1, 1, 1) in cs.memo

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
        assert tops[2] is cs.memo[(1, 1, 1, 1)] is chern_product(cs, (1, 1, 1, 1))
        assert tops[1] is cs.memo[(2, 1, 1)]

    def test_zeros_names_the_zero_entries_of_the_memo(self, monkeypatch):
        # each memo entry is tested for zero once, when it is built; the
        # first is the stored c_1 and each later one is one wedge; a walk
        # over built entries tests and wedges none, and stops at the first
        # zero prefix
        cs = chern_forms(self._tensor())
        calls, wedges = [], []
        is_zero, wedge = PPForm.is_zero, PPForm.wedge
        monkeypatch.setattr(PPForm, "is_zero", lambda f: calls.append(f) or is_zero(f))
        monkeypatch.setattr(PPForm, "wedge", lambda f, g: wedges.append(g) or wedge(f, g))
        # c_1^5 is zero at n = 4, so the walk never reaches the part 2
        out = cs.product((1, 1, 1, 1, 1, 2))
        assert len(calls) == len(cs.memo) == 5 and len(wedges) == 4
        assert cs.memo[(1,)] is cs.form(1)
        assert out is cs.memo[(1,) * 5] and cs.zeros == {(1,) * 5}
        assert cs.product((1, 1, 1, 1, 1, 2)) is out and (len(calls), len(wedges)) == (5, 4)
        for p in schur_and_chain_polynomials(4, 3):
            evaluate_on_forms(p, cs)
        assert cs.zeros == {key for key, f in cs.memo.items() if is_zero(f)}

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


def phased(n: int, p: int, a: np.ndarray) -> PPForm:
    """The float (p,p)-form whose phase-corrected block (-sqrt(-1))^(p^2) H
    is ``a``."""
    return PPForm(n, p, FLOAT, 1j ** (p * p % 4) * np.asarray(a, dtype=complex))


def witness_value(form: PPForm, witness: list) -> complex:
    return evaluate(form.to_form(), [[complex(z["re"], z["im"]) for z in vec]
                                     for vec in witness])


class TestNonnegativePsd:
    """At p in {1, n-1, n} a form is nonnegative iff the Hermitian part of its
    phase-corrected block is PSD; ``nonnegative_psd`` decides it from that
    block, with ``nonnegative_sampled``'s checks and pass condition."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_top_degree_band(self, n):
        # c * vol on n directions: FAIL below -tol * scale, PASS above it,
        # with scale = max(1, |c|) = 1
        tol = DEFAULT_TOL
        for c, passed in ((-2 * tol, False), (-0.5 * tol, True), (0.25, True), (-0.25, False)):
            rep = nonnegative_psd(phased(n, n, [[c]]), trials=7, seed=3, tol=tol)
            assert (rep.method, rep.passed, rep.min_value, rep.scale) == \
                ("top-coefficient", passed, c, 1.0), (n, c)
            assert (rep.trials, rep.seed, rep.degree, rep.argmin) == (7, 3, n, None)
            if passed:
                assert rep.witness is None
            else:
                # the standard frame, where the form's value is c
                assert rep.witness == [[scalar_json(complex(j == k)) for k in range(n)]
                                       for j in range(n)]
                assert witness_value(phased(n, n, [[c]]), rep.witness).real == c

    @pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 4)])
    def test_block_band_and_witness(self, n, p):
        # a unitary conjugate of diag(1, ..., 1, lam): lambda_min is lam
        size = math.comb(n, p)
        rng = np.random.default_rng(n * 10 + p)
        q = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))[0]
        for lam, passed in ((-2 * DEFAULT_TOL, False), (-0.5 * DEFAULT_TOL, True),
                            (-0.75, False)):
            a = q @ np.diag([1.0] * (size - 1) + [lam]) @ q.conj().T
            form = phased(n, p, a)
            rep = nonnegative_psd(form, trials=5, seed=1)
            assert (rep.method, rep.passed, rep.argmin, rep.degree) == ("psd", passed, None, p)
            assert rep.min_value == pytest.approx(lam, abs=1e-14)
            assert (rep.witness is None) == passed
            if not passed:
                # unit minors along the eigenvector: the value is lambda_min
                assert len(rep.witness) == p
                assert witness_value(form, rep.witness).real == \
                    pytest.approx(rep.min_value, abs=1e-14)

    def test_agrees_with_sampling_on_the_sign(self):
        # |X1|^2 - eps |X2|^2 at n = 2, p = 1: PSD only at eps = 0
        for eps, passed in ((0.0, True), (1e-12, True), (1.0, False)):
            form = Form.monomial(2, [1], [1], 1j) + Form.monomial(2, [2], [2], -eps * 1j)
            rep = nonnegative_psd(form, trials=60, seed=9)
            assert rep.passed == passed == nonnegative_sampled(form, trials=60, seed=9).passed
            assert rep.min_value == -eps and rep.scale == 1.0

    def test_exact_form_is_decided_on_its_float_block(self):
        # sqrt(-1) times the Hermitian [[2, 1 - i], [1 + i, -3]]
        g = GaussianRational
        exact = PPForm(2, 1, EXACT, np.array([[g(0, 2), g(1, 1)], [g(-1, 1), g(0, -3)]]))
        rep = nonnegative_psd(exact, 5, 0)
        assert rep == nonnegative_psd(exact.to_float(), 5, 0)
        assert not rep.passed and rep.min_value == pytest.approx(-0.5 - math.sqrt(33) / 2)

    def test_zero_form_is_exact_zero(self):
        for form in (Form.zero(2), PPForm.zero(3, 1), PPForm.zero(3, 2)):
            assert nonnegative_psd(form, 5, 1) == nonnegative_sampled(form, 5, 1)

    def test_sampled_degrees_are_refused(self):
        for n, p in ((4, 2), (5, 2), (5, 3), (2, 0)):
            with pytest.raises(InputError, match="decided by sampling"):
                nonnegative_psd(phased(n, p, np.eye(math.comb(n, p))), 5)

    def test_shares_the_checks_of_sampling(self):
        with pytest.raises(InputError, match="trials"):
            nonnegative_psd(Form.zero(1), trials=0)
        for tol in (math.nan, 0.0, math.inf):
            with pytest.raises(InputError, match="tol must be a finite positive number"):
                nonnegative_psd(phased(1, 1, [[1.0]]), 5, tol=tol)
        with pytest.raises(InputError, match="form is not real"):
            nonnegative_psd(Form.monomial(1, [1], [1], 1 + 1j), 5)
        with pytest.raises(InputError, match="form is not finite"):
            nonnegative_psd(PPForm(2, 1, FLOAT, np.array([[math.inf, 0], [0, 1]])), 5)
        # finite coefficients whose least eigenvalue, about -3e308, overflows
        with pytest.raises(InputError, match="least eigenvalue overflows"):
            nonnegative_psd(phased(3, 1, np.full((3, 3), -1e308)), 5)


class TestSchurNegativeControls:
    """The checks can say FAIL: on one witnessed instance with m >= n every
    S_lambda, lambda in Gamma(i, r) with i <= n, is a nonzero form that
    passes, and its negative fails, at the default trials and tol; and so
    does every -S_lambda that is decided without sampling."""

    @staticmethod
    def schur_forms(mode: str) -> dict:
        n, r, m = 5, 3, 5
        exact, floats = integer_tensor_pair(n, r, m, seed=0)
        cs = chern_forms(exact if mode == "exact" else floats)
        by_parts = {lam.parts: evaluate_on_forms(schur_polynomial(lam, r), cs)
                    for i in range(1, n + 1) for lam in partitions(i, r)}
        assert len(by_parts) == 15
        # with at most m nonzero parts no S_lambda vanishes identically
        assert [parts for parts, form in by_parts.items() if form.is_zero()] == []
        return by_parts

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_each_negated_schur_form_fails(self, mode):
        for parts, form in self.schur_forms(mode).items():
            assert nonnegative_sampled(form).passed, parts
            assert not nonnegative_sampled(form.scale(-1)).passed, parts

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_each_negated_schur_form_fails_on_one_batch_per_degree(self, mode):
        # as the sweep samples them: every S_lambda and every -S_lambda of
        # degree i on the one batch of derive_seed(seed, 7, i), so sharing
        # the tuples cannot hide a violation
        batches = {}
        for parts, form in self.schur_forms(mode).items():
            i = sum(parts)
            seed = schur.derive_seed(0, 7, i)
            batch = batches.setdefault(i, TupleBatch.draw(seed, 50, i, 5))
            assert nonnegative_sampled(form, 50, seed, batch=batch).passed, parts
            assert not nonnegative_sampled(form.scale(-1), 50, seed, batch=batch).passed, parts
        assert sorted(batches) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("n,r,m,seed", [(2, 2, 2, 0), (3, 3, 2, 1), (4, 3, 3, 2),
                                            (5, 3, 3, 3), (5, 4, 2, 4)])
    def test_negated_forms_of_degree_one_n_minus_one_and_n_fail_with_a_witness(
            self, n, r, m, seed):
        # as the sweep decides them, with no batch: every -S_lambda of
        # degree 1, n-1 or n FAILs, and its witness tuple, evaluated with
        # float forms.evaluate, gives a negative value
        cs = chern_forms(random_tensor(n, r, m, seed=seed))
        seen = 0
        for p in sorted({1, n - 1, n}):
            lams = [lam for lam in partitions(p, r) if len(lam.trimmed()) <= m]
            negated = [-evaluate_on_forms(schur_polynomial(lam, r), cs) for lam in lams]
            for lam, form, rep in zip(lams, negated, schur._decided_on_one_batch(
                    negated, 50, schur.derive_seed(seed, 7, p), DEFAULT_TOL)):
                assert rep.method == ("top-coefficient" if p == n else "psd"), lam
                assert not rep.passed and rep.margin < -1, lam
                vecs = [[complex(z["re"], z["im"]) for z in vec] for vec in rep.witness]
                value = forms.evaluate(form.to_form(), vecs)
                assert value.real < 0, lam
                assert value.real == pytest.approx(rep.min_value, rel=1e-9), lam
                seen += 1
        assert seen >= 3


class TestSharedBatch:
    """Every check of one degree, and every step of one chain, is evaluated
    on the one batch its reports' seed draws."""

    @staticmethod
    def count_draws(monkeypatch) -> list:
        calls = []

        def counted(rng, shape):
            calls.append(shape)
            return complex_normal(rng, shape)
        monkeypatch.setattr(forms, "complex_normal", counted)
        return calls

    def test_checks_of_one_degree_share_one_seed(self):
        report = verify_schur_nonnegativity(random_tensor(5, 3, 2, seed=4), trials=20, seed=8)
        for i in range(1, 6):
            seeds = {c.report.seed for c in report.checks if c.degree == i}
            assert seeds == {schur.derive_seed(8, 7, i)}, i

    def test_steps_of_one_chain_share_one_seed(self):
        cs = chern_forms(random_tensor(4, 3, 3, seed=1))
        for lam in partitions(4, 3):
            rep = bounds_chain_check(cs, lam, trials=20, seed=9)
            assert rep.steps
            assert {s.report.seed for s in rep.steps} == {schur.derive_seed(9, 11)}, lam

    def test_argmin_of_the_regenerated_batch_gives_min_value(self):
        # at n = 5 only degrees 2 and 3 are sampled; exact-zero checks (more
        # than m = 2 parts) sit between sampled ones and draw nothing; each
        # sampled check's batch, regenerated from its seed, gives its
        # min_value at argmin, bit for bit
        tensor = random_tensor(5, 3, 2, seed=4)
        cs = chern_forms(tensor)
        report = verify_schur_nonnegativity(tensor, trials=30, seed=2)
        sampled = 0
        for chk in report.checks:
            rep = chk.report
            if rep.method != "sampled":
                assert rep.argmin is None
                assert rep.method == "exact-zero" or chk.degree in (1, 4, 5)
                continue
            assert chk.degree in (2, 3)
            form = evaluate_on_forms(schur_polynomial(chk.partition, 3), cs)
            batch = complex_normal(substream(rep.seed, 0), (30, chk.degree, 5))
            values = forms._pairing(form, batch).real
            assert values[rep.argmin].tobytes() == np.float64(rep.min_value).tobytes()
            sampled += 1
        assert 0 < sampled < len(report.checks)
        # at r = 1 the first step of (1,1,1), c2*c1 - c3*c0, is the zero
        # polynomial and is left out; the one step left, c1*(c1*c1 - c2),
        # is sampled at degree 3
        cs = chern_forms(random_tensor(5, 1, 2, seed=4))
        chain = bounds_chain_check(cs, (1, 1, 1), trials=30, seed=2)
        assert [(step.label, step.report.method) for step in chain.steps] == \
            [("c1 * (c1*c1 - c2*c0)", "sampled")]
        (_, poly), = chain_step_polynomials(Partition((1, 1, 1)), 1)
        step, = chain.steps
        form = evaluate_on_forms(poly, cs.to_numeric())
        batch = complex_normal(substream(step.report.seed, 0), (30, 3, 5))
        values = forms._pairing(form, batch).real
        assert values[step.report.argmin].tobytes() == \
            np.float64(step.report.min_value).tobytes()

    def test_one_draw_per_degree_and_none_for_an_all_zero_degree(self, monkeypatch):
        calls = self.count_draws(monkeypatch)
        # at n = 5 degrees 2 and 3 are sampled; with m = 1, degree 3 of
        # Gamma(3, 2) has only partitions of two or more parts, whose forms
        # are exactly zero
        report = verify_schur_nonnegativity(random_tensor(5, 2, 1, seed=3), trials=10)
        assert calls == [(10, 2, 5)]
        assert all(c.report.method == "exact-zero" for c in report.checks if c.degree == 3)
        calls.clear()
        verify_schur_nonnegativity(random_tensor(5, 3, 2, seed=4), trials=10)
        assert calls == [(10, 2, 5), (10, 3, 5)]

    def test_one_draw_per_chain_and_none_for_an_all_zero_chain(self, monkeypatch):
        calls = self.count_draws(monkeypatch)
        cs = chern_forms(random_tensor(4, 3, 2, seed=2))
        rep = bounds_chain_check(cs, (1, 1), trials=10)
        assert calls == [(10, 2, 4)]
        assert {s.report.method for s in rep.steps} == {"sampled"}
        calls.clear()
        bounds_chain_check(chern_forms(random_tensor(4, 3, 1, seed=2)), (1, 1), trials=10)
        assert calls == []

    def test_degrees_one_n_minus_one_and_n_draw_nothing(self, monkeypatch):
        calls = self.count_draws(monkeypatch)
        # n = 3: every degree is 1, n - 1 or n
        report = verify_schur_nonnegativity(random_tensor(3, 3, 2, seed=5), trials=10)
        assert {c.report.method for c in report.checks} == {"psd", "top-coefficient",
                                                           "exact-zero"}
        assert calls == []
        tensor = random_tensor(5, 3, 3, seed=1)
        report = verify_schur_nonnegativity(tensor, trials=10)
        assert calls == [(10, 2, 5), (10, 3, 5)]
        want = {1: "psd", 2: "sampled", 3: "sampled", 4: "psd", 5: "top-coefficient"}
        for chk in report.checks:
            # the forms of partitions with more than m = 3 parts are zero
            zero = len(Partition(chk.partition).trimmed()) > 3
            assert chk.report.method == ("exact-zero" if zero else want[chk.degree])
        calls.clear()
        cs = chern_forms(tensor)
        for weight in (4, 5):
            for lam in partitions(weight, 3):
                rep = bounds_chain_check(cs, lam, trials=10)
                assert rep.passed and rep.steps, lam
                assert {s.report.method for s in rep.steps} <= {"psd", "top-coefficient",
                                                                "exact-zero"}
        assert calls == []


#: (n, r, m, seed) of the instances whose sampled reports
#: ``mid_degree_reports`` collects
MID_DEGREE_CASES = ((4, 3, 2, 1), (5, 3, 2, 4), (5, 4, 3, 0), (6, 2, 2, 3))

#: ``instance_digest(mid_degree_reports())``, computed on the tree before
#: degrees n, 1 and n-1 came to be decided without sampling; moved when the
#: Schur polynomials came to be Laplace minors (``forms._minor``), whose
#: term order differs, and the terms of an evaluated polynomial came to be
#: wedged from their largest part: 26 of the 54 reports moved, in
#: ``min_value`` (by at most 5.5e-15 of the scale), ``margin``, ``scale``
#: and ``max_imag``; no ``passed``, ``method``, ``argmin`` or seed moved;
#: moved again when chain steps that are identically zero at rank r came
#: to be left out: 3 of the 38 entries moved, three chains each losing one
#: exact-zero step, and no other byte moved
MID_DEGREE_DIGEST = "54b86c6f89dd5de11ba2b110705a40b83e4f957a42788d14aa3ab3ea3ba48317"


def mid_degree_reports() -> list:
    """Every check of degree 2..n-2 of ``verify_schur_nonnegativity``, and
    every chain of ``bounds_chain_check`` at weight 2..n-2, on the
    ``MID_DEGREE_CASES``, as report dicts."""
    out = []
    for n, r, m, seed in MID_DEGREE_CASES:
        tensor = random_tensor(n, r, m, seed=seed)
        report = verify_schur_nonnegativity(tensor, trials=20, seed=seed)
        out += [c.to_dict() for c in report.checks if 2 <= c.degree <= n - 2]
        cs = chern_forms(tensor)
        out += [bounds_chain_check(cs, lam, trials=20, seed=seed).to_dict()
                for weight in range(2, n - 1) for lam in partitions(weight, r)]
    return out


def test_mid_degree_reports_keep_their_bytes():
    # degrees 2..n-2 are still sampled, from the same streams, so every one
    # of their reports is what it was before degrees n, 1 and n-1 left
    # sampling, up to the float sums of the forms (see the digest)
    reports = mid_degree_reports()
    methods = [rep["method"] for rep in
               [c["report"] for c in reports if "report" in c]
               + [s["report"] for c in reports for s in c.get("steps", ())]]
    assert methods.count("sampled") > 40 and set(methods) == {"sampled", "exact-zero"}
    assert instance_digest(reports) == MID_DEGREE_DIGEST


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

    def test_identically_zero_steps_are_left_out(self):
        # 139 of the 912 steps for r <= 6 and weight <= 7 vanish at their
        # rank, such as c4*c1 - c5*c0 for (2,2,1) at r = 3; the 773 left
        # still telescope to c_1^i - c_i
        count = 0
        for r in range(7):
            for weight in range(8):
                for lam in partitions(weight, r):
                    steps = chain_step_polynomials(lam, r)
                    assert all(poly for _, poly in steps), (r, lam.parts)
                    count += len(steps)
                    total = sum((poly for _, poly in steps), Polynomial.zero(r))
                    want = chern_variable(1, r) ** weight - chern_variable(weight, r)
                    assert total == want, (r, lam.parts)
        assert count == 773
        labels = [label for label, _ in chain_step_polynomials(Partition((2, 2, 1)), 3)]
        assert labels and "c4*c1 - c5*c0" not in labels


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
        # with two parts > m: each gets the zero form's report, with the
        # chain's seed, and the scalar top chain is still compared
        cs = chern_forms(random_tensor(3, 3, 1, seed=2))
        assert cs.m == 1
        rep = bounds_chain_check(cs, lam, trials=10, seed=4)
        labels = [label for label, _ in chain_step_polynomials(Partition(lam), 3)]
        assert [s.label for s in rep.steps] == labels
        assert rep.steps
        zero = nonnegative_sampled(Form.zero(3), 10, schur.derive_seed(4, 11))
        for step in rep.steps:
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
