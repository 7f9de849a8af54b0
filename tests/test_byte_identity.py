"""Byte-identity oracles for the three hot paths.

``Form.wedge`` (per-call sign tables), ``chern.form_matrix_det`` (depth-first
Leibniz walk) and ``schur.evaluate_on_forms`` (products memoized on the
``ChernFormSet``) must do the same float operations in the same order as the
straightforward versions kept below as references: the wedge that computes
an inversion-count sign for every pair of terms, the determinant that
re-wedges every ``itertools.permutations`` product from scratch, and the
evaluation that rebuilds every term of every polynomial.  Results are
compared through ``repr(list(f.terms.items()))``, which sees key order,
signed zeros and every bit of every coefficient.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from chernforms import (
    EXACT,
    FLOAT,
    ChernPolynomial,
    Form,
    bott_chern_curvature,
    chern_forms,
    evaluate_on_forms,
    factor_from_tensor,
    random_exact_factor,
    random_tensor,
)
from chernforms.chern import form_matrix_det
from chernforms.scalars import GaussianRational

from conftest import schur_and_chain_polynomials


def exact_repr(form: Form) -> str:
    return repr(list(form.terms.items()))


# ----------------------------------------------------------------------
# reference implementations


def _inversions(x: int, y: int) -> int:
    count = 0
    for i in range(x.bit_length()):
        if x >> i & 1:
            count += (y & ((1 << i) - 1)).bit_count()
    return count


def _wedge_sign(h1: int, a1: int, h2: int, a2: int) -> int:
    parity = a1.bit_count() * h2.bit_count() + _inversions(h1, h2) + _inversions(a1, a2)
    return -1 if parity & 1 else 1


def ref_wedge(x: Form, y: Form, events=None) -> Form:
    """The wedge with one sign computation per pair of terms.  ``events``
    counts exact-zero drops and re-insertions of dropped keys."""
    out: dict = {}
    dropped = set()
    for (h1, a1), c1 in x.terms.items():
        for (h2, a2), c2 in y.terms.items():
            if (h1 & h2) or (a1 & a2):
                continue
            c = c1 * c2
            if _wedge_sign(h1, a1, h2, a2) < 0:
                c = -c
            key = (h1 | h2, a1 | a2)
            acc = out.get(key)
            total = c if acc is None else acc + c
            if total == 0:
                out.pop(key, None)
                dropped.add(key)
                if events is not None:
                    events["drop"] += 1
            else:
                if events is not None and acc is None and key in dropped:
                    events["reinsert"] += 1
                out[key] = total
    return Form._raw(x.n, x.mode, out)


def ref_wedge_power(f: Form, e: int) -> Form:
    out = Form.constant(f.n, 1, f.mode)
    for _ in range(e):
        out = ref_wedge(out, f)
    return out


def ref_form_matrix_det(entries, n: int, mode: str) -> Form:
    """Leibniz determinant over ``itertools.permutations``, every product
    rebuilt from the constant 1."""
    k = len(entries)
    if k == 0:
        return Form.constant(n, 1, mode)
    total = Form.zero(n, mode)
    for perm in itertools.permutations(range(k)):
        prod = Form.constant(n, 1, mode)
        for row in range(k):
            f = entries[row][perm[row]]
            if f.is_zero():
                break
            prod = ref_wedge(prod, f)
            if prod.is_zero():
                break
        else:
            inv = sum(1 for a, b in itertools.combinations(range(k), 2) if perm[a] > perm[b])
            total = total + (-prod if inv & 1 else prod)
    return total


def ref_evaluate_on_forms(poly: ChernPolynomial, cs) -> Form:
    """Substitution that rebuilds every term, with no memo."""
    n, mode = cs.n, cs.mode
    result = Form.zero(n, mode)
    for exps, coeff in poly.terms.items():
        if sum(j * e for j, e in enumerate(exps, start=1)) > n:
            continue
        term = Form.constant(n, coeff, mode)
        for j, e in enumerate(exps, start=1):
            if e == 0:
                continue
            if j > cs.r:
                term = Form.zero(n, mode)
                break
            term = ref_wedge(term, ref_wedge_power(cs.form(j), e))
            if term.is_zero():
                break
        result = result + term
    return result


# ----------------------------------------------------------------------
# seeded inputs


def _scalar(rng, mode: str, integral: bool):
    if integral:
        re, im = (int(v) for v in rng.integers(-2, 3, size=2))
        if mode == EXACT:
            return GaussianRational(re, im)
        # -0.0 parts make sign-of-zero differences visible to repr
        return complex(re if re else -0.0, im if im else -0.0)
    if mode == EXACT:
        re, im = rng.integers(-9, 10, size=2)
        return GaussianRational(Fraction(int(re), int(rng.integers(1, 5))), int(im))
    return complex(rng.standard_normal(), rng.standard_normal())


def random_form(rng, n: int, mode: str, count: int, integral: bool = False,
                bidegree=None) -> Form:
    """Up to ``count`` terms with random masks (or masks of one bidegree)."""
    masks = range(1 << n)
    if bidegree is not None:
        p, q = bidegree
        masks_h = [m for m in masks if m.bit_count() == p]
        masks_a = [m for m in masks if m.bit_count() == q]
    else:
        masks_h = masks_a = list(masks)
    terms = {}
    for _ in range(count):
        key = (int(rng.choice(masks_h)), int(rng.choice(masks_a)))
        c = _scalar(rng, mode, integral)
        if c:
            terms[key] = c
    return Form(n, mode, terms)


# ----------------------------------------------------------------------
# Form.wedge


class TestWedgeIdentity:
    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_forms(self, mode, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3, 4):
            for _ in range(8):
                x = random_form(rng, n, mode, int(rng.integers(0, 12)))
                y = random_form(rng, n, mode, int(rng.integers(0, 12)))
                assert exact_repr(x.wedge(y)) == exact_repr(ref_wedge(x, y))

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    def test_cancellation_drops_and_reinserts(self, mode):
        # small integer coefficients make exact-zero partial sums common;
        # a dropped key that comes back moves to the end of the dict
        rng = np.random.default_rng(11)
        events = {"drop": 0, "reinsert": 0}
        for _ in range(300):
            n = int(rng.integers(2, 5))
            x = random_form(rng, n, mode, 10, integral=True)
            y = random_form(rng, n, mode, 10, integral=True)
            assert exact_repr(x.wedge(y)) == exact_repr(ref_wedge(x, y, events))
        assert events["drop"] > 0 and events["reinsert"] > 0

    def test_homogeneous_float_forms(self):
        rng = np.random.default_rng(3)
        for (p, q), (s, t) in [((1, 1), (1, 1)), ((2, 2), (1, 1)), ((1, 1), (2, 2)),
                               ((2, 2), (2, 2)), ((1, 0), (0, 1)), ((2, 1), (1, 2))]:
            x = random_form(rng, 5, FLOAT, 40, bidegree=(p, q))
            y = random_form(rng, 5, FLOAT, 40, bidegree=(s, t))
            assert exact_repr(x.wedge(y)) == exact_repr(ref_wedge(x, y))

    def test_wedge_power(self):
        rng = np.random.default_rng(5)
        f = random_form(rng, 4, FLOAT, 16, bidegree=(1, 1))
        for e in range(5):
            assert exact_repr(f.wedge_power(e)) == exact_repr(ref_wedge_power(f, e))


# ----------------------------------------------------------------------
# form_matrix_det


def _omega(n, r, seed):
    return bott_chern_curvature(factor_from_tensor(random_tensor(n, r, None, seed)))


class TestDeterminantIdentity:
    @pytest.mark.parametrize("n,r,seed", [(2, 3, 0), (3, 3, 1), (4, 4, 2), (3, 4, 3)])
    def test_principal_minors_of_curvature(self, n, r, seed):
        omega = _omega(n, r, seed)
        for size in range(r + 1):
            for subset in itertools.combinations(range(r), size):
                sub = [[omega.entries[a][b] for b in subset] for a in subset]
                assert exact_repr(form_matrix_det(sub, n, FLOAT)) == \
                    exact_repr(ref_form_matrix_det(sub, n, FLOAT))

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @pytest.mark.parametrize("seed", range(4))
    def test_matrices_with_zero_entries(self, mode, seed):
        # zero entries prune subtrees; at n = 2 every product of three
        # (1,1)-forms vanishes, which prunes at a zero prefix
        rng = np.random.default_rng(100 + seed)
        for n, k in ((2, 3), (3, 3), (3, 4)):
            entries = [[Form.zero(n, mode) if rng.random() < 0.3
                        else random_form(rng, n, mode, 5, integral=bool(rng.integers(2)),
                                         bidegree=(1, 1))
                        for _ in range(k)] for _ in range(k)]
            assert exact_repr(form_matrix_det(entries, n, mode)) == \
                exact_repr(ref_form_matrix_det(entries, n, mode))

    def test_exact_curvature(self):
        omega = bott_chern_curvature(random_exact_factor(3, 3, 2, seed=4))
        got = form_matrix_det(omega.entries, 3, EXACT)
        assert exact_repr(got) == exact_repr(ref_form_matrix_det(omega.entries, 3, EXACT))


# ----------------------------------------------------------------------
# evaluate_on_forms


class TestEvaluateIdentity:
    @pytest.mark.parametrize("n,r,seed", [(3, 2, 0), (4, 3, 1), (5, 3, 13), (3, 5, 2)])
    def test_float_sets(self, n, r, seed):
        cs = chern_forms(_omega(n, r, seed))
        for poly in schur_and_chain_polynomials(n, r):
            assert exact_repr(evaluate_on_forms(poly, cs)) == \
                exact_repr(ref_evaluate_on_forms(poly, cs))

    def test_exact_set(self):
        cs = chern_forms(bott_chern_curvature(random_exact_factor(3, 3, 2, seed=5)))
        for poly in schur_and_chain_polynomials(3, 3):
            assert exact_repr(evaluate_on_forms(poly, cs)) == \
                exact_repr(ref_evaluate_on_forms(poly, cs))

    def test_fraction_coefficients_and_variables_above_rank(self):
        cs = chern_forms(_omega(3, 2, 7))
        poly = ChernPolynomial(4, {(1, 1, 0, 0): Fraction(1, 3), (3, 0, 0, 0): -2,
                                   (0, 0, 1, 0): 5, (1, 0, 0, 0): Fraction(7, 2)})
        assert exact_repr(evaluate_on_forms(poly, cs)) == \
            exact_repr(ref_evaluate_on_forms(poly, cs))
