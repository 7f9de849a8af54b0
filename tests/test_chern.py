"""Chern forms: frozen diagonal examples, Whitney product, frame and mode
agreement, and top-degree coefficient extraction."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernforms import (
    EXACT,
    FLOAT,
    CurvatureMatrix,
    CurvatureTensor,
    Form,
    PPForm,
    bott_chern_curvature,
    chern_forms,
    chern_product,
    conjugate,
    factor_from_tensor,
    nonnegative_sampled,
    random_exact_factor,
    random_tensor,
    top_coefficient,
)
from chernforms.chern import leibniz_det
from chernforms.errors import InputError
from chernforms.scalars import GaussianRational

from conftest import diagonal_tensor, form_matrix_det, integer_tensor_pair

TWO_PI = 2.0 * math.pi


class TestChernForms:
    def test_rank_one_is_scaled_trace(self):
        # A = [2 dz]: Omega = 4 dz dzbar, c_1 = (i/2pi) * Omega
        cs = chern_forms(CurvatureTensor([[[2.0]]]))
        assert cs.form(0).to_form() == Form.constant(1, 1)
        assert cs.form(1).to_form().coefficient([1], [1]) == pytest.approx(4j / TWO_PI)
        assert cs.m == 1

    def test_zero_curvature(self):
        cs = chern_forms(CurvatureTensor(np.zeros((2, 1, 1))))
        assert cs.form(0).to_form() == Form.constant(2, 1)
        assert cs.form(1).is_zero()
        assert cs.form(5).is_zero()

    def test_diagonal_rank_two(self, diag2):
        cs = chern_forms(diag2)
        pref = 1j / TWO_PI
        w1 = Form.monomial(2, [1], [1], pref)
        w2 = Form.monomial(2, [2], [2], pref)
        assert cs.form(1).to_form().allclose(w1 + w2, 1e-14)
        assert cs.form(2).to_form().allclose(w1.wedge(w2), 1e-14)
        # c_1 ^ c_1 = 2 c_2 on a diagonal rank-two instance
        assert cs.form(1).wedge(cs.form(1)).to_form().allclose(
            cs.form(2).scale(2).to_form(), 1e-14)

    def test_degree_truncation(self):
        # r = 3 bundle on a 2-dimensional base: forms stop at degree 2
        t = random_tensor(2, 3, 2, seed=4)
        cs = chern_forms(t)
        assert cs.top_degree == 2
        assert cs.form(3).is_zero()

    def test_takes_a_tensor_or_a_matrix(self):
        # a factor reaches chern_forms as its tensor, not as its forms
        with pytest.raises(TypeError, match="CurvatureTensor or a CurvatureMatrix"):
            chern_forms(factor_from_tensor(random_tensor(2, 2, 1, seed=0)))

    def test_unwitnessed_source(self):
        m = CurvatureMatrix(((Form.monomial(1, [1], [1], -2.0),),))
        cs = chern_forms(m)
        assert cs.m is None
        assert cs.form(1).to_form().coefficient([1], [1]) == pytest.approx(-2j / TWO_PI)

    def test_exact_mode_reality(self):
        # stored exact forms are conjugation-invariant on the nose
        factor = random_exact_factor(2, 3, 2, seed=11)
        cs = chern_forms(factor)
        assert cs.mode == EXACT
        for i in range(cs.top_degree + 1):
            assert conjugate(cs.form(i).to_form()) == cs.form(i).to_form()
        assert cs.residual_prefactor_power(2) == 2

    def test_float_mode_reality(self):
        # the conjugate form's block is (-1)^p H^*: Im is half the difference
        t = random_tensor(3, 3, 2, seed=12)
        cs = chern_forms(t)
        for i in range(1, cs.top_degree + 1):
            f = cs.form(i)
            imag = 0.5 * np.abs(f.block - (-1) ** f.p * f.block.conj().T).max()
            assert imag <= 1e-12 * max(1.0, np.abs(f.block).max())

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    def test_walk_gives_each_degree_its_block(self, mode):
        # a vanishing minor sum is still the (i,i) zero block: all-zero
        # entries, n = 1 < r with a traceless diagonal (c_1 = 0) or full
        # entries, and n = 0, where only c_0 is left
        def matrix(n, coeffs):
            return CurvatureMatrix(tuple(
                tuple(Form.monomial(n, [1], [1], c, mode) if c else Form.zero(n, mode)
                      for c in row) for row in coeffs))

        zeros = matrix(3, [[0] * 4] * 4)
        traceless = matrix(1, [[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        full = matrix(1, [[1, 2], [3, 4]])
        empty = CurvatureMatrix(((Form.zero(0, mode),),))
        for omega, vanish in ((zeros, [1, 2, 3]), (traceless, [1]), (full, []), (empty, [])):
            cs = chern_forms(omega)
            assert [f.p for f in cs.forms] == list(range(min(omega.r, omega.n) + 1))
            assert [i for i, f in enumerate(cs.forms) if f.is_zero()] == vanish

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_exact_and_float_routes_agree(self, seed):
        rng = np.random.default_rng(seed)
        n, r, m = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
        factor, tensor = integer_tensor_pair(n, r, m, seed=seed)
        exact_cs = chern_forms(factor)
        float_cs = chern_forms(tensor)
        for i in range(min(n, r) + 1):
            a = exact_cs.numeric_form(i).to_form()
            b = float_cs.form(i).to_form()
            assert a.allclose(b, 1e-12)

    def test_whitney_product_exact(self):
        # block-diagonal curvature: c(Omega) = c(Omega') ^ c(Omega'')
        n = 2
        f1 = random_exact_factor(n, 1, 2, seed=21)
        f2 = random_exact_factor(n, 2, 1, seed=22)
        block = np.zeros((n, 3, 3), object)
        block[:, :1, :2] = f1.array
        block[:, 1:, 2:] = f2.array

        cs = chern_forms(CurvatureTensor(block))
        cs1 = chern_forms(f1)
        cs2 = chern_forms(f2)
        for i in range(min(n, 3) + 1):
            expected = Form.zero(n, EXACT)
            for a in range(i + 1):
                expected = expected + cs1.form(a).to_form().wedge(cs2.form(i - a).to_form())
            assert cs.form(i).to_form() == expected

    def test_sampled_nonnegativity_of_chern_forms(self):
        t = random_tensor(3, 2, 2, seed=30)
        cs = chern_forms(t)
        for i in range(1, cs.top_degree + 1):
            rep = nonnegative_sampled(cs.form(i), trials=40, seed=i)
            assert rep.passed, f"c_{i} dipped to {rep.min_value}"

    def test_leibniz_walk_leaves_no_reference_cycle(self):
        # a cycle through the walk would keep every prefix product alive
        # until the next collection; one through the minor expansion of
        # chern_forms would keep its minors, and the Gram route must leave
        # none either
        tensor = random_tensor(3, 4, 2, seed=0)
        omega = bott_chern_curvature(tensor)
        one, zero = Form.constant(3, 1), Form.zero(3)
        gc.collect()
        gc.disable()
        try:
            leibniz_det(omega.entries, one, zero, Form.wedge)
            assert gc.collect() == 0
            chern_forms(omega)
            assert gc.collect() == 0
            chern_forms(tensor)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_form_matrix_det_empty_and_identity(self):
        assert form_matrix_det([], 1, FLOAT) == Form.constant(1, 1)
        ident = [[Form.constant(1, 1), Form.zero(1)], [Form.zero(1), Form.constant(1, 1)]]
        assert form_matrix_det(ident, 1, FLOAT) == Form.constant(1, 1)


class TestGramRoute:
    """A factor gives its Chern forms through its Gram blocks, a curvature
    matrix through the Laplace route; on a factor and the matrix it builds
    the two agree, exactly in exact mode."""

    @pytest.mark.parametrize("n,r,m", [
        (4, 3, 1), (3, 3, 1),            # m = 1
        (4, 4, 2), (5, 3, 2), (4, 4, 1),  # m < i for the top degrees
        (3, 2, 4), (3, 4, 5), (2, 2, 3),  # m > r
        (4, 3, 3), (5, 2, 2),            # n > r
        (2, 4, 3), (1, 3, 2), (4, 5, 3),  # r > n
    ])
    def test_exact_gram_equals_walk(self, n, r, m):
        for seed in range(2):
            factor = random_exact_factor(n, r, m, seed=seed)
            gram = chern_forms(factor)
            walk = chern_forms(bott_chern_curvature(factor))
            assert gram.m == m and walk.m is None
            assert gram.forms == walk.forms

    @pytest.mark.parametrize("n", range(1, 5))
    def test_exact_gram_equals_walk_on_the_grid(self, n):
        # every (n, r) <= 4, m drawn, at seeds 0-2
        for r in range(1, 5):
            for seed in range(3):
                tensor = random_exact_factor(n, r, seed=seed)
                assert chern_forms(tensor).forms == \
                    chern_forms(bott_chern_curvature(tensor)).forms

    @pytest.mark.parametrize("n,r", [(4, 5), (5, 3), (3, 3), (2, 4), (4, 1), (6, 2)])
    def test_float_gram_matches_walk(self, n, r):
        for seed in range(4):
            factor = random_tensor(n, r, None, seed)
            gram = chern_forms(factor).forms
            walk = chern_forms(bott_chern_curvature(factor)).forms
            assert len(gram) == len(walk) == min(n, r) + 1
            for a, b in zip(gram, walk):
                assert a.to_form().allclose(b.to_form(), 1e-12)

    def test_gram_forms_keep_the_walk_key_order(self):
        # both routes give c_i as an (i,i)-block of one dtype and layout, so
        # their terms list the keys in one order
        factor = random_tensor(4, 5, 5, seed=3)
        gram = chern_forms(factor).forms
        walk = chern_forms(bott_chern_curvature(factor)).forms
        assert [(f.p, f.block.shape, f.block.dtype) for f in gram] == \
            [(f.p, f.block.shape, f.block.dtype) for f in walk]
        assert [list(f.terms) for f in gram] == [list(f.terms) for f in walk]


class TestChernProduct:
    def test_monomial_products(self, diag2):
        cs = chern_forms(diag2)
        sq = chern_product(cs, (1, 1)).to_form()
        c1 = cs.form(1).to_form()
        assert sq.allclose(c1.wedge(c1), 1e-14)
        assert chern_product(cs, ()).to_form().allclose(Form.constant(2, 1), 1e-14)

    def test_zero_parts_skipped(self, diag2):
        cs = chern_forms(diag2)
        assert chern_product(cs, (2, 0, 0)).to_form().allclose(cs.form(2).to_form(), 1e-14)

    def test_part_above_rank_rejected(self, diag2):
        cs = chern_forms(diag2)
        with pytest.raises(InputError):
            chern_product(cs, (3,))

    def test_part_above_base_dimension_is_zero(self):
        # rank 3 bundle on n = 2: c_3 is a legal symbol but vanishes
        t = random_tensor(2, 3, 1, seed=2)
        cs = chern_forms(t)
        assert chern_product(cs, (3,)).is_zero()


class TestTopCoefficient:
    def test_volume_is_one(self):
        for n in range(1, 5):
            vol = Form.constant(n, 1)
            for j in range(1, n + 1):
                vol = vol.wedge(Form.monomial(n, [j], [j], 1j))
            assert top_coefficient(PPForm.from_form(vol)) == pytest.approx(1.0)

    def test_zero_form(self):
        assert top_coefficient(PPForm.zero(2, 2)) == 0.0

    def test_frozen_diagonal_values(self, diag2):
        cs = chern_forms(diag2)
        assert top_coefficient(cs.form(2)) == pytest.approx(TWO_PI ** -2)
        c1sq = cs.form(1).wedge(cs.form(1))
        assert top_coefficient(c1sq) == pytest.approx(2 * TWO_PI ** -2)

    def test_exact_top_is_fraction(self):
        factor = diagonal_tensor(2, EXACT)
        cs = chern_forms(factor)
        value = top_coefficient(cs.form(2))
        assert value == 1  # times the residual (2 pi)^-2
        assert not isinstance(value, float)

    def test_wrong_degree_rejected(self):
        with pytest.raises(InputError):
            top_coefficient(PPForm.from_form(Form.dz(2, 1).wedge(Form.dzbar(2, 1))))

    def test_non_real_top_rejected(self):
        skew = Form.monomial(1, [1], [1], 1 + 1j)
        with pytest.raises(InputError):
            top_coefficient(PPForm.from_form(skew))
