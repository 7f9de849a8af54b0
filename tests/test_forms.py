"""Exterior algebra on monomial keys, checked against a brute-force oracle.

The oracle below works on explicit symbol sequences: a monomial is a tuple of
(family, index) symbols, family 0 for dz and 1 for dzbar.  Canonical order is
all dz factors ascending, then all dzbar factors ascending; the sign is the
parity of the bubble sort that gets there.  This never touches bitmasks, so it
is an independent cross-check of the fast path.
"""

import itertools
import math
import tracemalloc
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
    TupleBatch,
    conjugate,
    evaluate,
    nonnegative_sampled,
    wedge,
)
from chernforms import _linalg, forms
from chernforms.errors import InputError
from chernforms.forms import DEFAULT_TOL, MAX_DIM
from chernforms.rng import complex_normal, substream
from chernforms.scalars import GaussianRational, parse_scalar, scalar_json

from conftest import gather_minors, mask_det_evaluate

DZ, DZBAR = 0, 1


def brute_sort(symbols):
    """(sign, canonical tuple) for a symbol sequence; sign 0 on repeats."""
    seq = list(symbols)
    if len(set(seq)) != len(seq):
        return 0, ()
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign, tuple(seq)


def brute_conj(symbols):
    """Conjugation flips each symbol's family, then re-sorts."""
    return brute_sort([(1 - fam, idx) for fam, idx in symbols])


def brute_det(rows):
    """Leibniz determinant over any ring with + and *."""
    size = len(rows)
    if size == 0:
        return 1
    total = 0
    import itertools

    for perm in itertools.permutations(range(size)):
        sign = 1
        for a in range(size):
            for b in range(a + 1, size):
                if perm[a] > perm[b]:
                    sign = -sign
        term = sign
        for a in range(size):
            term = term * rows[a][perm[a]]
        total = total + term
    return total


def symbols_of(dz_indices, dzbar_indices):
    return tuple((DZ, i) for i in dz_indices) + tuple((DZBAR, i) for i in dzbar_indices)


def form_from_symbols(n, symbols, mode=FLOAT):
    """Wedge the listed one-forms in order, e.g. dz1 ^ dzbar1 ^ dz2."""
    out = Form.constant(n, 1, mode)
    for fam, idx in symbols:
        factor = Form.dz(n, idx, mode) if fam == DZ else Form.dzbar(n, idx, mode)
        out = out.wedge(factor)
    return out


# ----------------------------------------------------------------------
# construction and canonical keys


class TestConstruction:
    def test_monomial_sorts_and_signs(self):
        # dz2 ^ dz1 = -dz1 ^ dz2: the constructor demands ascending indices,
        # so the sign shows up through wedge instead
        f = Form.dz(2, 2).wedge(Form.dz(2, 1))
        assert f.coefficient([1, 2], []) == -1

    def test_monomial_rejects_unsorted_indices(self):
        with pytest.raises(InputError):
            Form.monomial(3, [2, 1], [], 1)
        with pytest.raises(InputError):
            Form.monomial(3, [1, 1], [], 1)

    def test_index_range_checked(self):
        with pytest.raises(InputError):
            Form.dz(2, 3)
        with pytest.raises(InputError):
            Form.dz(2, 0)

    def test_booleans_are_not_integers(self):
        with pytest.raises(InputError):
            Form.monomial(2, [True], [])
        with pytest.raises(InputError):
            Form.monomial(2, [], [False, 1])
        with pytest.raises(InputError):
            Form(True)

    def test_dimension_cap(self):
        with pytest.raises(InputError):
            Form.zero(MAX_DIM + 1)

    def test_zero_detection(self):
        assert Form.zero(2).is_zero()
        assert not Form.dz(2, 1).is_zero()
        assert Form.monomial(2, [1], [], 0).is_zero()

    def test_mode_of_coefficients_enforced(self):
        with pytest.raises(InputError):
            Form.constant(1, GaussianRational(1, 0), FLOAT)
        with pytest.raises(InputError):
            Form.constant(1, 0.5, EXACT)

    def test_bidegrees(self):
        f = Form.dz(2, 1).wedge(Form.dzbar(2, 2))
        assert f.bidegree() == (1, 1)
        mixed = Form.dz(2, 1) + Form.dzbar(2, 1)
        assert mixed.bidegrees() == {(1, 0), (0, 1)}
        assert not mixed.is_homogeneous(1, 0)
        with pytest.raises(InputError):
            mixed.bidegree()


# ----------------------------------------------------------------------
# wedge: frozen oracle values, then randomized agreement


class TestWedge:
    def test_frozen_oracle_values(self):
        # values produced by brute_sort, frozen here; sequences are listed in
        # wedge order, e.g. dz1 ^ dzbar1 ^ dz2
        assert brute_sort(((DZ, 1), (DZBAR, 1), (DZ, 2))) == (
            -1, ((DZ, 1), (DZ, 2), (DZBAR, 1)))
        assert brute_sort(((DZ, 2), (DZ, 1))) == (-1, ((DZ, 1), (DZ, 2)))
        assert brute_sort(((DZ, 1), (DZBAR, 1), (DZ, 2), (DZBAR, 2))) == (
            -1, ((DZ, 1), (DZ, 2), (DZBAR, 1), (DZBAR, 2)))

    def test_matches_frozen_values(self):
        f = Form.dz(2, 1).wedge(Form.dzbar(2, 1).wedge(Form.dz(2, 2)))
        assert f.coefficient([1, 2], [1]) == -1

        g = Form.dz(2, 2).wedge(Form.dz(2, 1))
        assert g.coefficient([1, 2], []) == -1

        h = form_from_symbols(2, symbols_of([1], [1]) + symbols_of([2], [2]))
        assert h.coefficient([1, 2], [1, 2]) == -1

    def test_repeated_factor_annihilates(self):
        assert Form.dz(2, 1).wedge(Form.dz(2, 1)).is_zero()
        f = Form.dz(2, 1).wedge(Form.dzbar(2, 1))
        assert f.wedge(f).is_zero()

    def test_mismatched_dimension_rejected(self):
        with pytest.raises(InputError):
            Form.dz(2, 1).wedge(Form.dz(3, 1))

    def test_mismatched_mode_rejected(self):
        with pytest.raises(InputError):
            Form.dz(2, 1, EXACT).wedge(Form.dz(2, 2, FLOAT))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_wedge_agrees_with_symbol_oracle(self, data):
        n = data.draw(st.integers(1, 3))
        k1 = data.draw(st.integers(0, 2 * n))
        k2 = data.draw(st.integers(0, 2 * n))
        all_symbols = [(fam, i) for fam in (DZ, DZBAR) for i in range(1, n + 1)]
        s1 = tuple(data.draw(st.permutations(all_symbols))[:k1])
        s2 = tuple(data.draw(st.permutations(all_symbols))[:k2])
        sign, canon = brute_sort(s1 + s2)
        product = form_from_symbols(n, s1).wedge(form_from_symbols(n, s2))
        if sign == 0:
            assert product.is_zero()
        else:
            dz_idx = [i for fam, i in canon if fam == DZ]
            dzbar_idx = [i for fam, i in canon if fam == DZBAR]
            assert product.coefficient(dz_idx, dzbar_idx) == sign

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_graded_commutativity(self, data):
        n = data.draw(st.integers(1, 3))
        all_symbols = [(fam, i) for fam in (DZ, DZBAR) for i in range(1, n + 1)]
        k1 = data.draw(st.integers(0, 2 * n))
        k2 = data.draw(st.integers(0, 2 * n))
        s1 = tuple(data.draw(st.permutations(all_symbols))[:k1])
        s2 = tuple(data.draw(st.permutations(all_symbols))[:k2])
        a = form_from_symbols(n, s1)
        b = form_from_symbols(n, s2)
        sign = (-1) ** (len(s1) * len(s2))
        assert a.wedge(b) == b.wedge(a).scale(sign)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_associativity_and_bilinearity_exact(self, data):
        n = data.draw(st.integers(1, 2))
        coeffs = st.builds(
            GaussianRational,
            st.fractions(min_value=-5, max_value=5, max_denominator=3),
            st.fractions(min_value=-5, max_value=5, max_denominator=3),
        )

        def rand_form():
            f = Form.zero(n, EXACT)
            for _ in range(data.draw(st.integers(0, 3))):
                h = data.draw(st.integers(0, (1 << n) - 1))
                a_mask = data.draw(st.integers(0, (1 << n) - 1))
                c = data.draw(coeffs)
                hi = [i + 1 for i in range(n) if h >> i & 1]
                ai = [i + 1 for i in range(n) if a_mask >> i & 1]
                f = f + Form.monomial(n, hi, ai, c, EXACT)
            return f

        a, b, c = rand_form(), rand_form(), rand_form()
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
        assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)
        assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)

    def test_wedge_power(self):
        omega = Form.dz(2, 1).wedge(Form.dzbar(2, 1)) + Form.dz(2, 2).wedge(Form.dzbar(2, 2))
        one = Form.constant(2, 1)
        sq = one.wedge(omega).wedge(omega)
        # (w1 + w2)^2 = 2 w1 w2 and w1 w2 = -dz1 dz2 dzbar1 dzbar2
        assert sq.coefficient([1, 2], [1, 2]) == -2
        assert sq == omega.wedge(omega)
        # the empty power is the constant 1, the unit of the wedge
        assert one.wedge(omega) == omega == omega.wedge(one)


# ----------------------------------------------------------------------
# conjugation


class TestConjugation:
    def test_frozen_oracle_values(self):
        assert brute_conj(symbols_of([1, 2], [])) == (1, ((DZBAR, 1), (DZBAR, 2)))
        assert brute_conj(symbols_of([1], [2])) == (-1, ((DZ, 2), (DZBAR, 1)))
        assert brute_conj(((DZ, 1), (DZBAR, 1), (DZ, 2), (DZBAR, 3))) == (
            -1, ((DZ, 1), (DZ, 3), (DZBAR, 1), (DZBAR, 2)))

    def test_matches_frozen_values(self):
        assert conjugate(Form.dz(2, 1)) == Form.dzbar(2, 1)

        f = Form.monomial(2, [1, 2], [], 1 + 2j)
        assert conjugate(f).coefficient([], [1, 2]) == 1 - 2j

        g = Form.monomial(2, [1], [2], 1)
        assert conjugate(g).coefficient([2], [1]) == -1

        h = form_from_symbols(3, ((DZ, 1), (DZBAR, 1), (DZ, 2), (DZBAR, 3)))
        # h = -dz1 dz2 dzbar1 dzbar3 canonically; oracle total for conj is -1
        assert conjugate(h).coefficient([1, 3], [1, 2]) == -1

    def test_volume_monomial_is_self_conjugate(self):
        v = Form.monomial(1, [1], [1], 1j)
        assert conjugate(v) == v

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_conj_agrees_with_symbol_oracle(self, data):
        n = data.draw(st.integers(1, 3))
        all_symbols = [(fam, i) for fam in (DZ, DZBAR) for i in range(1, n + 1)]
        k = data.draw(st.integers(0, 2 * n))
        s = tuple(data.draw(st.permutations(all_symbols))[:k])
        sign, canon = brute_conj(s)
        conj_form = conjugate(form_from_symbols(n, s))
        if sign == 0:
            pytest.skip("no repeats possible from a permutation slice")
        dz_idx = [i for fam, i in canon if fam == DZ]
        dzbar_idx = [i for fam, i in canon if fam == DZBAR]
        assert conj_form.coefficient(dz_idx, dzbar_idx) == sign

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_involution_and_distribution(self, data):
        n = data.draw(st.integers(1, 2))

        def rand_form():
            f = Form.zero(n, FLOAT)
            for _ in range(data.draw(st.integers(0, 3))):
                h = data.draw(st.integers(0, (1 << n) - 1))
                a_mask = data.draw(st.integers(0, (1 << n) - 1))
                c = complex(data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4)))
                hi = [i + 1 for i in range(n) if h >> i & 1]
                ai = [i + 1 for i in range(n) if a_mask >> i & 1]
                f = f + Form.monomial(n, hi, ai, c, FLOAT)
            return f

        a, b = rand_form(), rand_form()
        assert conjugate(conjugate(a)) == a
        assert conjugate(a.wedge(b)) == conjugate(a).wedge(conjugate(b))
        assert conjugate(a + b) == conjugate(a) + conjugate(b)


# ----------------------------------------------------------------------
# evaluation


class TestEvaluate:
    def test_volume_normalization(self):
        # prod_j (i dz^j ^ dzbar^j) pairs to 1 with the standard basis
        for n in range(1, 5):
            vol = Form.constant(n, 1)
            for j in range(1, n + 1):
                vol = vol.wedge(Form.monomial(n, [j], [j], 1j))
            basis = np.eye(n, dtype=complex)
            assert evaluate(vol, list(basis)) == pytest.approx(1.0)

    def test_constant_needs_no_vectors(self):
        assert evaluate(Form.constant(2, 3.5), []) == pytest.approx(3.5)
        assert evaluate(Form.zero(2), []) == 0

    def test_p1_pairing(self):
        # (-i) * c * X^i * conj(X^j) for c dz^i ^ dzbar^j
        f = Form.monomial(2, [1], [2], 2)
        x = [1 + 1j, 3 - 2j]
        got = evaluate(f, [x])
        expected = -1j * 2 * x[0] * np.conj(x[1])
        assert got == pytest.approx(expected)

    def test_frozen_determinant_case(self):
        # psi = dz1 ^ dz2, phi = psi ^ conj(psi); vectors X1=(1,2i), X2=(3,4):
        # det [[1,3],[2i,4]] = 4 - 6i, |det|^2 = 52  (frozen from brute_det)
        rows = [[1, 3], [2j, 4]]
        d = brute_det(rows)
        assert d == 4 - 6j
        assert abs(d) ** 2 == pytest.approx(52.0)

        psi = Form.dz(2, 1).wedge(Form.dz(2, 2))
        phi = psi.wedge(conjugate(psi))
        got = evaluate(phi, [[1, 2j], [3, 4]])
        assert got == pytest.approx(52.0)

    def test_exact_evaluation_matches(self):
        psi = Form.dz(2, 1, EXACT).wedge(Form.dz(2, 2, EXACT))
        phi = psi.wedge(conjugate(psi))
        vecs = [[GaussianRational(1, 0), GaussianRational(0, 2)],
                [GaussianRational(3, 0), GaussianRational(4, 0)]]
        assert evaluate(phi, vecs) == 52

    def test_validation(self):
        f = Form.dz(2, 1).wedge(Form.dzbar(2, 1))
        with pytest.raises(InputError):
            evaluate(f, [])  # needs one vector
        with pytest.raises(InputError):
            evaluate(f, [[1.0]])  # wrong length
        with pytest.raises(InputError):
            evaluate(Form.dz(2, 1), [[1.0, 0.0]])  # not (p,p)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_sos_identity(self, data):
        # i^{p^2} psi ^ conj(psi) evaluates to |pairing(psi)|^2 >= 0
        n = data.draw(st.integers(1, 3))
        p = data.draw(st.integers(1, n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))

        psi = Form.zero(n, FLOAT)
        import itertools

        for combo in itertools.combinations(range(1, n + 1), p):
            c = complex(rng.normal(), rng.normal())
            psi = psi + Form.monomial(n, list(combo), [], c)
        phi = psi.wedge(conjugate(psi)).scale(1j ** (p * p % 4))
        vectors = rng.normal(size=(p, n)) + 1j * rng.normal(size=(p, n))
        value = evaluate(phi, list(vectors))
        assert abs(value.imag) < 1e-9 * max(1.0, abs(value))
        assert value.real >= -1e-9

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_product_of_sos_forms_stays_nonnegative(self, data):
        n = data.draw(st.integers(2, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        import itertools

        def sos(p):
            psi = Form.zero(n, FLOAT)
            for combo in itertools.combinations(range(1, n + 1), p):
                psi = psi + Form.monomial(n, list(combo), [],
                                          complex(rng.normal(), rng.normal()))
            return psi.wedge(conjugate(psi)).scale(1j ** (p * p % 4))

        p1 = data.draw(st.integers(1, n - 1))
        p2 = data.draw(st.integers(1, n - p1))
        product = sos(p1).wedge(sos(p2))
        vectors = rng.normal(size=(p1 + p2, n)) + 1j * rng.normal(size=(p1 + p2, n))
        value = evaluate(product, list(vectors))
        assert value.real >= -1e-9 * max(1.0, abs(value))

    def test_reality_of_evaluation(self):
        # a form equal to its own conjugate pairs to a real number
        f = Form.monomial(2, [1], [1], 1j) + Form.monomial(2, [2], [2], 2j) \
            + Form.monomial(2, [1], [2], 1 + 1j) + Form.monomial(2, [2], [1], -1 + 1j)
        assert conjugate(f) == f
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = evaluate(f, [x])
            assert abs(v.imag) < 1e-12 * max(1.0, abs(v))


class TestMinors:
    """The float minors of ``forms._minors``, and the minors exact
    ``evaluate`` expands, against minors computed one submatrix at a time."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_float_matches_gathered_dets(self, n):
        # relative to the largest minor of each tuple: a small minor that
        # cancels is as accurate in absolute terms on either route
        for p in range(1, n + 1):
            samples = complex_normal(substream(n, p), (4, p, n))
            got, want = forms._minors(samples), gather_minors(samples)
            assert got.shape == want.shape == (4, math.comb(n, p))
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert (np.abs(got - want) <= 1e-12 * scale).all(), (n, p)

    def test_top_degree_is_the_tuple_det(self):
        # one minor at p = n, from the same Laplace pass as the other
        # degrees: the determinant of the tuple to rounding
        samples = complex_normal(substream(3, 0), (6, 4, 4))
        got, want = forms._minors(samples), np.linalg.det(samples)[:, None]
        assert got.shape == want.shape == (6, 1)
        assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exact_matches_elimination(self, n):
        # exact evaluate of every monomial dz^J ^ dzbar^K, so every minor it
        # expands, against the elimination determinants of _linalg.det
        rng = np.random.default_rng(n)
        for p in range(1, n + 1):
            parts = rng.integers(-3, 4, size=(2, p, n))
            vectors = [[GaussianRational(int(x), int(y)) for x, y in zip(*row)]
                       for row in zip(*parts)]
            subsets = list(itertools.combinations(range(1, n + 1), p))
            det = {s: _linalg.det([[v[i - 1] for v in vectors] for i in s]) for s in subsets}
            phase = GaussianRational(0, -1) if p & 1 else GaussianRational(1)
            for h, a in itertools.product(subsets, repeat=2):
                value = evaluate(Form.monomial(n, h, a, 1, EXACT), vectors)
                assert value == det[h] * det[a].conjugate() * phase, (p, h, a)

    def test_exact_evaluate_matches_mask_dets(self):
        rng = np.random.default_rng(5)
        for n in range(1, 5):
            for p in range(1, n + 1):
                form = Form.zero(n, EXACT)
                for h in itertools.combinations(range(1, n + 1), p):
                    for a in itertools.combinations(range(1, n + 1), p):
                        # a nonzero real part keeps every term, so the form is never zero
                        re, im = int(rng.integers(1, 3)), int(rng.integers(-2, 3))
                        form = form + Form.monomial(n, h, a, GaussianRational(re, im), EXACT)
                parts = rng.integers(-3, 4, size=(2, p, n))
                vectors = [[GaussianRational(int(x), int(y)) for x, y in zip(*row)]
                           for row in zip(*parts)]
                assert evaluate(form, vectors) == mask_det_evaluate(form, vectors)

    @pytest.mark.parametrize("n,masks,expanded", [
        # one (6,6) term at n = 12 on disjoint index sets: each mask's 6
        # columns have 2^6 - 1 - 6 = 57 subsets of two or more, where a full
        # pass would expand sum_{s=2..6} C(12, s) = 2497 minors
        (12, [((1, 3, 5, 7, 9, 11), (2, 4, 6, 8, 10, 12))], 114),
        # dz and dzbar on the same columns share every sub-minor
        (12, [((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6))], 57),
        # two terms of a (2,2)-form at n = 10: {1,2}, {3,4} and {1,4}
        (10, [((1, 2), (3, 4)), ((1, 4), (1, 2))], 3),
        # {1,2,3}, {3,4,5} and {2,3,4}: four each, {2,3} and {3,4} shared
        (5, [((1, 2, 3), (3, 4, 5)), ((2, 3, 4), (1, 2, 3))], 10),
    ])
    def test_exact_evaluate_expands_only_the_masks(self, monkeypatch, n, masks, expanded):
        # only the minors of the form's masks, and their sub-minors, are
        # expanded; each is checked against a product of _linalg.det
        rng = np.random.default_rng(n)
        form = Form.zero(n, EXACT)
        for h, a in masks:
            form = form + Form.monomial(n, h, a, GaussianRational(*(int(v) for v in
                                                                   rng.integers(1, 4, size=2))),
                                        EXACT)
        p = len(masks[0][0])
        # nonzero entries: a zero entry would prune the minors below it
        parts = rng.integers(1, 4, size=(2, p, n)) * rng.choice([-1, 1], size=(2, p, n))
        vectors = [[GaussianRational(int(x), int(y)) for x, y in zip(*row)]
                   for row in zip(*parts)]
        computed = set()
        original = forms._minor

        def counting(entries, rows, cols, minors, mul):
            if len(rows) > 1 and (rows, cols) not in minors:
                computed.add(cols)
            return original(entries, rows, cols, minors, mul)

        monkeypatch.setattr(forms, "_minor", counting)
        value = evaluate(form, vectors)
        monkeypatch.undo()
        assert value == mask_det_evaluate(form, vectors)
        assert len(computed) == expanded
        for row in vectors:
            row[::3] = [GaussianRational(0)] * len(row[::3])
        assert evaluate(form, vectors) == mask_det_evaluate(form, vectors)

    def test_float_evaluate_of_a_sparse_literal_builds_no_block(self):
        # one (6,6) term at n = 12: its C(12, 6) x C(12, 6) complex block
        # would take 13.7 MB, and the term sum expands only the minors of
        # its two masks.  The float value is the exact value of the same
        # literal and vectors, read as decimals, up to rounding
        literal = {"n": 12, "terms": [{"dz": [1, 3, 5, 7, 9, 11], "dzbar": [2, 4, 6, 8, 10, 12],
                                       "re": 0.375, "im": -1.25}]}
        parts = np.random.default_rng(12).normal(size=(6, 12, 2)).round(3)
        cells = [[{"re": float(x), "im": float(y)} for x, y in row] for row in parts]

        def read(mode):
            return (Form.from_literal(literal, mode),
                    [[parse_scalar(cell, mode, "vector") for cell in row] for row in cells])

        form, vectors = read(FLOAT)
        tracemalloc.start()
        try:
            value = evaluate(form, vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert value == pytest.approx(complex(evaluate(*read(EXACT))), rel=1e-12)


# ----------------------------------------------------------------------
# sampled nonnegativity verdicts


class TestNonnegativeSampled:
    def test_zero_form_passes(self):
        rep = nonnegative_sampled(Form.zero(2), trials=5, seed=1)
        assert rep.passed and rep.min_value == 0.0

    def test_positive_form_passes(self):
        omega = Form.monomial(1, [1], [1], 1j)
        rep = nonnegative_sampled(omega, trials=40, seed=3)
        assert rep.passed
        assert rep.min_value > 0
        assert rep.degree == 1

    def test_negative_form_fails_with_witness(self):
        omega = Form.monomial(1, [1], [1], -1j)
        rep = nonnegative_sampled(omega, trials=40, seed=3)
        assert not rep.passed
        assert rep.min_value < 0
        assert rep.witness is not None
        # witness reproduces the reported minimum
        vec = [complex(c["re"], c["im"]) for c in rep.witness[0]]
        assert evaluate(omega, [vec]).real == pytest.approx(rep.min_value)
        # and it is the argmin tuple of the seed's batch
        batch = complex_normal(substream(3, 0), (40, 1, 1))
        assert rep.witness == [[scalar_json(z) for z in batch[rep.argmin][0]]]
        assert rep.method == "sampled" and rep.margin < -1

    def test_pass_names_its_argmin_without_a_witness(self):
        omega = Form.monomial(2, [1], [1], 1j) + Form.monomial(2, [2], [2], 3j)
        rep = nonnegative_sampled(omega, trials=25, seed=11)
        assert rep.passed and rep.witness is None and rep.method == "sampled"
        assert rep.margin == rep.min_value / (rep.tol * rep.scale) > 0
        # the argmin tuple is regenerated from (seed, trials, degree, n)
        batch = complex_normal(substream(11, 0), (25, 1, 2))
        values = [evaluate(omega, vecs).real for vecs in batch]
        assert rep.argmin == int(np.argmin(values))
        assert values[rep.argmin] == pytest.approx(rep.min_value, rel=1e-12)
        d = rep.to_dict()
        assert (d["argmin"], d["witness"], d["method"], d["margin"]) == \
            (rep.argmin, None, "sampled", rep.margin)

    def test_zero_form_is_decided_exactly(self):
        for form in (Form.zero(2), PPForm.zero(3, 2)):
            rep = nonnegative_sampled(form, trials=5, seed=1)
            assert (rep.passed, rep.method, rep.argmin, rep.witness) == \
                (True, "exact-zero", None, None)
            assert (rep.min_value, rep.scale, rep.degree, rep.margin) == (0.0, 1.0, 0, 0.0)

    def test_non_real_form_rejected(self):
        with pytest.raises(InputError, match="[Ii]mag"):
            nonnegative_sampled(Form.monomial(1, [1], [1], 1 + 1j), trials=5)

    def test_non_diagonal_bidegree_rejected(self):
        with pytest.raises(InputError):
            nonnegative_sampled(Form.dz(2, 1) + Form.dzbar(2, 1), trials=5)

    def test_deterministic_per_seed(self):
        omega = Form.monomial(2, [1], [1], 1j) + Form.monomial(2, [2], [2], 3j)
        a = nonnegative_sampled(omega, trials=25, seed=11)
        b = nonnegative_sampled(omega, trials=25, seed=11)
        assert a.to_dict() == b.to_dict()
        c = nonnegative_sampled(omega, trials=25, seed=12)
        assert c.min_value != a.min_value

    def test_trials_validation(self):
        with pytest.raises(InputError):
            nonnegative_sampled(Form.zero(1), trials=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9, 0.0, -0.0])
    def test_tol_validation(self, tol):
        # a NaN tol fails every check and an infinite one passes every check;
        # a zero tol reads roundoff as a non-real form and leaves the margin
        # min_value / (tol * scale) undefined
        for form in (Form.zero(1), Form.monomial(1, [1], [1], 1j)):
            with pytest.raises(InputError, match="tol must be a finite positive number"):
                nonnegative_sampled(form, trials=5, tol=tol)

    def test_non_finite_coefficient_rejected(self):
        # the peak is checked before max(1, peak), which reads NaN as 1, so
        # the realness check can no longer pass a NaN form
        for value in (math.nan * 1j, math.inf * 1j):
            form = PPForm(1, 1, FLOAT, np.array([[value]]))
            with pytest.raises(InputError, match="form is not finite"):
                nonnegative_sampled(form, trials=5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_samples_rejected(self):
        # the block 1e308 sqrt(-1) dz ^ dzbar is finite, real and
        # nonnegative, and its value 1e308 |X|^2 overflows once |X|^2 > 1.8
        form = PPForm(1, 1, FLOAT, np.array([[1e308j]]))
        with pytest.raises(InputError, match="sampled values overflow"):
            nonnegative_sampled(form, trials=50, seed=0)

    def test_tolerance_is_relative_to_scale(self):
        # |X1|^2 - eps |X2|^2: indefinite, but for eps far below tol the dips
        # stay inside -tol * scale and the verdict is PASS; at eps = 1 the
        # same seed finds a genuine violation
        def pencil(eps):
            return Form.monomial(2, [1], [1], 1j) + Form.monomial(2, [2], [2], -eps * 1j)

        soft = nonnegative_sampled(pencil(1e-12), trials=60, seed=9, tol=DEFAULT_TOL)
        assert soft.passed
        assert soft.scale == pytest.approx(1.0)

        hard = nonnegative_sampled(pencil(1.0), trials=60, seed=9, tol=DEFAULT_TOL)
        assert not hard.passed and hard.witness is not None


class TestTupleBatch:
    """A batch is the draw ``nonnegative_sampled`` makes itself, with its
    minors taken once, and it stands in for that draw only."""

    def test_batch_is_the_seeded_draw_and_its_minors(self):
        batch = TupleBatch.draw(17, 30, 2, 4)
        samples = complex_normal(substream(17, 0), (30, 2, 4))
        assert batch.samples.tobytes() == samples.tobytes()
        assert batch.minors.tobytes() == forms._minors(samples).tobytes()
        assert (batch.seed, batch.trials, batch.degree, batch.n) == (17, 30, 2, 4)
        assert TupleBatch.draw(17, 30, 0, 4).minors is None

    def test_batch_gives_the_bytes_of_its_own_draw(self):
        pencil = Form.monomial(3, [1], [1], 1j) + Form.monomial(3, [2], [2], -0.5j)
        exact = PPForm.from_form(Form.monomial(3, [1, 3], [1, 3], 2, mode=EXACT))
        cases = [(Form.constant(3, 2.5), 0), (pencil, 1), (-pencil, 1), (exact, 2),
                 (PPForm(3, 3, FLOAT, np.array([[-1e-12]])), 3)]
        for form, p in cases:
            own = nonnegative_sampled(form, 40, 5)
            shared = nonnegative_sampled(form, 40, 5, batch=TupleBatch.draw(5, 40, p, 3))
            assert repr(shared.to_dict()) == repr(own.to_dict()), p
        assert not nonnegative_sampled(-pencil, 40, 5).passed

    @pytest.mark.parametrize("field", ["seed", "trials", "degree", "n"])
    def test_batch_of_another_draw_is_refused(self, field):
        form = Form.monomial(3, [1, 2], [1, 2], -1)
        want = {"seed": 5, "trials": 40, "degree": 2, "n": 3}
        other = dict(want, **{field: want[field] + 1})
        batch = TupleBatch.draw(**other)
        with pytest.raises(InputError, match="batch"):
            nonnegative_sampled(form, 40, 5, batch=batch)
        nonnegative_sampled(form, 40, 5, batch=TupleBatch.draw(**want))

    def test_zero_form_holds_the_batch_to_its_draw_but_not_its_degree(self):
        # a zero form has every degree; its seed, trials and n still count
        batch = TupleBatch.draw(5, 40, 2, 3)
        zero = nonnegative_sampled(PPForm.zero(3, 1), 40, 5)
        assert nonnegative_sampled(PPForm.zero(3, 1), 40, 5, batch=batch) == zero
        for form, trials, seed in ((PPForm.zero(4, 2), 40, 5), (PPForm.zero(3, 2), 41, 5),
                                   (Form.zero(3), 40, 6)):
            with pytest.raises(InputError, match="batch"):
                nonnegative_sampled(form, trials, seed, batch=batch)

    def test_draw_refuses_no_trials(self):
        with pytest.raises(InputError, match="trials"):
            TupleBatch.draw(0, 0, 1, 2)


# ----------------------------------------------------------------------
# literals


class TestLiterals:
    def test_round_trip_float(self):
        f = Form.monomial(2, [1], [2], 1.5 - 2j) + Form.constant(2, 3)
        assert Form.from_literal(f.to_literal(), FLOAT) == f

    def test_round_trip_exact(self):
        f = Form.monomial(2, [1], [1], GaussianRational(Fraction(1, 2), -3), EXACT)
        lit = f.to_literal()
        assert Form.from_literal(lit, EXACT) == f

    def test_exact_parse_of_decimal_values(self):
        # exact parsing goes through the decimal literal, not the float value,
        # so 0.5 lands exactly on 1/2
        lit = {"n": 1, "terms": [{"dz": [1], "dzbar": [1], "re": 0.5, "im": -2}]}
        f = Form.from_literal(lit, EXACT)
        assert f.coefficient([1], [1]) == GaussianRational(Fraction(1, 2), -2)

    def test_malformed_literals(self):
        with pytest.raises(InputError):
            Form.from_literal({"terms": []}, FLOAT)
        with pytest.raises(InputError):
            Form.from_literal({"n": 1, "terms": [{"dz": [5], "dzbar": [], "re": 1, "im": 0}]}, FLOAT)
        with pytest.raises(InputError):
            Form.from_literal({"n": 1, "terms": "nope"}, FLOAT)
