"""Identity oracles for the hot paths and the polynomial core.

``Form.wedge`` (a double loop over the two term dicts) and
``chern.leibniz_det`` (depth-first Leibniz walk) must do the same float
operations in the same order as the straightforward versions kept below as
references: the wedge that computes an inversion-count sign for every pair
of terms, the wedge that rebuilds its sign tables over the distinct masks on
every call, and the determinant that re-wedges every
``itertools.permutations`` product from scratch.  Results are compared
through ``repr(list(f.terms.items()))``, which sees key order, signed zeros
and every bit of every coefficient, or through ``canonical_repr``, the same
with the keys sorted.

The coefficient blocks (``PPForm``) of Chern, Schur and chain-step forms
sum in another order than those dict wedges, so ``PPForm.wedge``,
``ChernFormSet.product`` (prefixes memoized on the set),
``schur.evaluate_on_forms`` and the sampled pairing d^T H conj(d) are
compared with the dict references below, and with exact
``forms.evaluate``: equal in exact mode, and within ``FLOAT_RTOL`` of the
scale in float mode.  A sampled op and a ``curvature build`` on an
``omega`` literal wedge no ``Form``.

``polynomials.Polynomial`` must build every Schur, chain-step and Todd
polynomial with the same terms in the same order as the two classes it
replaced, kept below as dict-level references: the Chern-variable
polynomial (whose constructor dropped zero sums) with its inline
``itertools.permutations`` Jacobi-Trudi loop, and the model ring element
(whose constructor made every coefficient a Fraction).  The term order
matters because ``evaluate_on_forms`` sums float forms in that order.

``chern.chern_forms`` on a curvature matrix (a Laplace expansion of the
principal minors on (1,1)-blocks, each (rows, cols) minor computed once) must give
the c_i of the dict loop that expands every principal minor on its own, kept
below: equal in exact mode and within ``FLOAT_RTOL`` in float mode, with
fewer wedges.

``GaussianRational`` (three normalised ints) must agree with the
Fraction-pair class it replaced, kept below as a reference, in every part,
float bit, string, hash and error; ``Form.from_literal`` (one pass) with
the fold over ``Form.__add__`` it replaced.  Fixed sets of exact-mode and
float-mode CLI ops, and the float ops at the benchmark's shapes, are pinned
by the sha256 of their output, and
``cli.report_json`` must write what ``json.dumps(sort_keys=True,
indent=2)`` writes.  Seen through ``schema1_view``, which turns a schema-2
sampled report back into schema 1 by regenerating each passing witness
from its ``argmin``, the float sets keep their schema-1 digests.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import operator
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernforms import (
    EXACT,
    FLOAT,
    CATALOG,
    CurvatureMatrix,
    CurvatureTensor,
    Form,
    PPForm,
    Polynomial,
    bott_chern_curvature,
    chern_forms,
    chern_product,
    evaluate_on_forms,
    factor_from_tensor,
    partitions,
    random_exact_factor,
    random_tensor,
    schur_polynomial,
    todd_class,
    todd_polynomials,
)
from chernforms import chern, forms
from chernforms.chern import ChernFormSet
from chernforms.cli import report_json, run
from chernforms.errors import InputError
from chernforms.rng import complex_normal, substream
from chernforms.scalars import GaussianRational, parse_scalar, scalar_json
from chernforms.schur import Partition, chain_step_polynomials, verify_schur_nonnegativity

from conftest import factor_tensor, form_matrix_det, mask_det_evaluate, \
    schur_and_chain_polynomials


def exact_repr(form: Form) -> str:
    return repr(list(form.terms.items()))


def canonical_repr(form) -> str:
    """``exact_repr`` with the keys sorted: every bit, not the key order."""
    return repr(sorted(form.terms.items()))


#: float block results against the dict references: rounding only
FLOAT_RTOL = 1e-12


def assert_same_form(got: PPForm, want: Form, scale: float = 1.0):
    """A block equals a dict-built form: exactly in exact mode, and in float
    mode within ``FLOAT_RTOL`` of ``scale``, of 1 and of the largest
    coefficient of either."""
    assert got.n == want.n and got.mode == want.mode
    assert want.is_zero() or want.bidegree() == (got.p, got.p)
    if got.mode == EXACT:
        assert got.to_form() == want
    else:
        assert got.to_form().allclose(want, FLOAT_RTOL * scale)


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


def ref_table_wedge(x: Form, y: Form) -> Form:
    """The wedge with sign tables rebuilt on every call, over the distinct
    masks of the operands: ``rows`` lists, for each distinct (dz mask,
    parity of |dzbar mask|) of ``x``, the terms of ``y`` whose dz mask is
    disjoint from it with the dz part of the parity; ``dzbar_sign`` holds
    the dzbar part."""
    dz2 = {h for h, _ in y.terms}
    dzbar2 = {a for _, a in y.terms}
    dzbar_sign = {a1: {a2: forms._inversions(a1, a2) & 1 for a2 in dzbar2 if not a1 & a2}
                  for a1 in {a for _, a in x.terms}}
    rows = {}
    for h1, odd in {(h, a.bit_count() & 1) for h, a in x.terms}:
        sign = {h2: (forms._inversions(h1, h2) + odd * h2.bit_count()) & 1
                for h2 in dz2 if not h1 & h2}
        rows[h1, odd] = [(h1 | h2, a2, c2, sign[h2])
                         for (h2, a2), c2 in y.terms.items() if h2 in sign]
    out: dict = {}
    for (h1, a1), c1 in x.terms.items():
        a_sign = dzbar_sign[a1]
        for h, a2, c2, h_sign in rows[h1, a1.bit_count() & 1]:
            if a1 & a2:
                continue
            c = c1 * c2
            if h_sign ^ a_sign[a2]:
                c = -c
            key = (h, a1 | a2)
            acc = out.get(key)
            total = c if acc is None else acc + c
            if not total:
                out.pop(key, None)
            else:
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


def ref_evaluate_on_forms(poly: Polynomial, cs, magnitudes: list = None) -> Form:
    """Substitution that rebuilds every term, with no memo.  ``magnitudes``
    collects |coefficient| * (largest coefficient of the product) per term:
    a sum whose terms cancel is exact only to rounding of their size."""
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
            term = ref_wedge(term, ref_wedge_power(cs.form(j).to_form(), e))
            if term.is_zero():
                break
        if magnitudes is not None:
            magnitudes.append(term.to_float().max_coefficient_magnitude())
        result = result + term
    return result


def assert_evaluates_as_reference(poly: Polynomial, cs):
    """``evaluate_on_forms`` against the dict substitution, to rounding of
    the size of the terms it sums."""
    magnitudes = []
    want = ref_evaluate_on_forms(poly, cs, magnitudes)
    assert_same_form(evaluate_on_forms(poly, cs), want, sum(magnitudes))


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
        # c_j^e through the set's memo, against e fresh dict wedges from 1
        for cs in (chern_forms(random_tensor(4, 3, None, 5)),
                   chern_forms(random_exact_factor(3, 3, 2, seed=5))):
            for j in range(cs.r + 1):
                for e in range(5):
                    assert_same_form(chern_product(cs, (j,) * e),
                                     ref_wedge_power(cs.form(j).to_form(), e))


def assert_planned(x: Form, y: Form) -> Form:
    """x ^ y, equal in terms, key order and signed zeros to both reference
    wedges."""
    got = x.wedge(y)
    assert exact_repr(got) == exact_repr(ref_table_wedge(x, y)) == exact_repr(ref_wedge(x, y))
    return got


def small_scalars(mode: str):
    """Small coefficients, so partial sums cancel exactly; float parts
    include -0.0."""
    if mode == EXACT:
        part = st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-3, 3),
                                                       st.integers(1, 3)))
        return st.builds(GaussianRational, part, part)
    part = st.one_of(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
                     st.floats(-4, 4, allow_nan=False))
    return st.builds(complex, part, part)


@st.composite
def form_pairs(draw, mode: str):
    """Two forms on one base of dimension 0..4, keys in draw order, with
    ``small_scalars`` coefficients."""
    n = draw(st.integers(0, 4))
    mask = st.integers(0, (1 << n) - 1)
    terms = st.lists(st.tuples(mask, mask, small_scalars(mode)), max_size=10)
    return tuple(Form(n, mode, {(h, a): c for h, a, c in draw(terms)}) for _ in range(2))


@st.composite
def block_pairs(draw, mode: str):
    """A (p,p)- and a (q,q)-form on one base of dimension 0..5, p and q in
    0..n, so constants and p + q > n occur, each with up to 12 terms of
    ``small_scalars`` coefficients (none for a zero form)."""
    n = draw(st.integers(0, 5))
    out = []
    for _ in range(2):
        p = draw(st.integers(0, n))
        mask = st.sampled_from([m for m in range(1 << n) if m.bit_count() == p])
        terms = draw(st.lists(st.tuples(mask, mask, small_scalars(mode)), max_size=12))
        out += [Form(n, mode, {(h, a): c for h, a, c in terms}), p]
    return tuple(out)


class TestPlannedWedge:
    """``Form.wedge``, one double loop over the two term dicts, must match
    the per-call sign tables and the per-pair signs."""

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_hypothesis_forms(self, mode, data):
        x, y = data.draw(form_pairs(mode))
        assert_planned(x, y)
        assert_planned(y, x)

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    def test_cancellation_mid_loop_reinserts_at_the_end(self, mode):
        # dz1 ^ dz2 puts dz1^dz2 first, dz2 ^ dz1 cancels it, and 1 ^ dz1^dz2
        # puts it back after every key the dz3 row made
        n = 3
        dz = [Form.dz(n, i, mode) for i in (1, 2, 3)]
        one = Form.constant(n, 1, mode)
        x = dz[0] + dz[1] + dz[2] + one
        y = dz[1] + dz[0] + Form.monomial(n, [1, 2], [], 1, mode)
        got = assert_planned(x, y)
        assert list(got.terms) == [(0b110, 0), (0b101, 0), (0b111, 0),
                                   (0b010, 0), (0b001, 0), (0b011, 0)]
        assert got.terms[0b011, 0] == 1

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    def test_zero_and_constant_forms(self, mode):
        rng = np.random.default_rng(8)
        for n in (0, 1, 3):
            minus = complex(-0.0, -2.0) if mode == FLOAT else GaussianRational(0, -2)
            operands = [Form.zero(n, mode), Form.constant(n, 1, mode),
                        Form.constant(n, minus, mode),
                        random_form(rng, n, mode, 6, integral=True)]
            for x, y in itertools.product(operands, repeat=2):
                assert_planned(x, y)

    def test_sampled_ops_and_omega_builds_wedge_no_form(self, monkeypatch, tmp_path):
        # the Chern, Schur and chain-step forms of a tensor instance are
        # blocks, and the Laplace route of an omega literal wedges (1,1)-blocks:
        # no op of the sampled commands or of such a build wedges a Form
        ops = [["schur", "verify", "--random", "--n", "4", "--r", "5", "--seed", "0"],
               ["bounds", "chain", "--random", "--n", "5", "--r", "3", "--seed", "1"]]
        for mode, omega in ((FLOAT, _omega(4, 3, 2)),
                            (EXACT, bott_chern_curvature(random_exact_factor(4, 3, 3, seed=2)))):
            path = tmp_path / f"omega-{mode}.json"
            path.write_text(json.dumps(omega_literal(omega)), encoding="utf-8")
            ops.append(["curvature", "build", "--mode", mode, "--instance", str(path)])

        def run_ops():
            for argv in ops:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert run(argv) == 0

        _, blocks, dicts = count_products(monkeypatch, run_ops)
        assert blocks > 0 and dicts == 0


class TestBlockWedge:
    """``PPForm.wedge``, the signed shuffle product of coefficient blocks,
    against the dict wedge ``ref_wedge``."""

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_hypothesis_blocks(self, mode, data):
        x, p, y, q = data.draw(block_pairs(mode))
        got = PPForm.from_form(x, p).wedge(PPForm.from_form(y, q))
        assert got.p == p + q
        assert_same_form(got, ref_wedge(x, y))
        assert PPForm.from_form(got.to_form(), p + q) == got


# ----------------------------------------------------------------------
# leibniz_det over forms


def _omega(n, r, seed):
    return bott_chern_curvature(random_tensor(n, r, None, seed))


def omega_literal(omega: CurvatureMatrix) -> dict:
    """An instance file's ``omega`` field holding the entries of ``omega``."""
    return {"omega": [[f.to_literal() for f in row] for row in omega.entries]}


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
# chern_forms: one memoized Laplace expansion against one walk per minor


def parent_chern_forms(omega) -> list:
    """c_0..c_k with every principal minor expanded on its own: sizes in
    turn, subsets of each size in ``itertools.combinations`` order."""
    n, r, mode = omega.n, omega.r, omega.mode
    out = [Form.constant(n, 1, mode)]
    for i in range(1, min(r, n) + 1):
        minor_sum = Form.zero(n, mode)
        for subset in itertools.combinations(range(r), i):
            sub = [[omega.entries[a][b] for b in subset] for a in subset]
            minor_sum = minor_sum + form_matrix_det(sub, n, mode)
        if mode == EXACT:
            out.append(minor_sum.scale(GaussianRational(0, 1) ** i))
        else:
            out.append(minor_sum.scale((1j / (2.0 * math.pi)) ** i))
    return out


def _sparse_omega(rng, n: int, r: int, mode: str) -> CurvatureMatrix:
    """r x r matrix of (1,1)-forms with a third of its entries
    zero and the rest one or two monomials, so many prefixes vanish."""
    return CurvatureMatrix(tuple(
        tuple(Form.zero(n, mode) if rng.random() < 0.3
              else random_form(rng, n, mode, int(rng.integers(1, 3)),
                               integral=bool(rng.integers(2)), bidegree=(1, 1))
              for _ in range(r)) for _ in range(r)))


def assert_reads_its_factor(monkeypatch, tensor):
    """A float tensor gives the Gram route what its built factor holds, bit
    for bit: T read off ``factor_from_tensor(tensor)``, and so the forms the
    Gram route gives on that T."""
    got = chern._checked_tensor(tensor)
    want = factor_tensor(factor_from_tensor(tensor))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with monkeypatch.context() as patch:
        patch.setattr(chern, "_checked_tensor", lambda t: factor_tensor(factor_from_tensor(t)))
        built = chern_forms(tensor)
    assert [exact_repr(f) for f in chern_forms(tensor).forms] == \
        [exact_repr(f) for f in built.forms]


def assert_same_chern_forms(got: ChernFormSet, want: list):
    """The Laplace route's blocks against the dict loop's c_i, degree by
    degree: each c_i an (i,i)-block, ``==`` in exact mode and within
    ``FLOAT_RTOL`` in float mode (``assert_same_form``)."""
    assert len(got.forms) == len(want)
    for i, (block, form) in enumerate(zip(got.forms, want)):
        assert block.p == i
        assert_same_form(block, form)


class TestChernFormsIdentity:
    # a curvature matrix takes the Laplace route, a tensor the Gram route;
    # the expansion wedges (1,1)-blocks, which sum each product in another
    # order than the dict wedge, so float forms agree to rounding; blocks
    # list their keys in block order, so exact forms are compared key by key

    @pytest.mark.parametrize("n,r,seed", [(4, 5, 0), (5, 3, 13), (2, 4, 1), (3, 3, 2),
                                          (1, 3, 3), (3, 1, 4)])
    def test_float_curvatures(self, n, r, seed):
        omega = _omega(n, r, seed)
        assert_same_chern_forms(chern_forms(omega), parent_chern_forms(omega))

    @pytest.mark.parametrize("n,r,seed", [(3, 3, 4), (2, 4, 5), (3, 4, 6)])
    def test_exact_curvatures(self, n, r, seed):
        omega = bott_chern_curvature(random_exact_factor(n, r, 2, seed=seed))
        assert [canonical_repr(f) for f in chern_forms(omega).forms] == \
            [canonical_repr(f) for f in parent_chern_forms(omega)]

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_entries_and_vanishing_prefixes(self, mode, seed):
        rng = np.random.default_rng(200 + seed)
        for n, r in ((2, 4), (3, 4), (3, 5), (4, 3)):
            omega = _sparse_omega(rng, n, r, mode)
            assert_same_chern_forms(chern_forms(omega), parent_chern_forms(omega))

    @pytest.mark.parametrize("n,r,seed", [(4, 5, 0), (5, 3, 13), (2, 4, 1), (1, 3, 3),
                                          (3, 1, 4)])
    def test_tensor_route(self, monkeypatch, n, r, seed):
        # a tensor takes T straight off its array: the same forms, bit for
        # bit, as its built factor
        assert_reads_its_factor(monkeypatch, random_tensor(n, r, None, seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_tensor_route_signed_and_exact_zeros(self, monkeypatch, seed):
        # parts of -0.0, and entries that are exactly zero (0j or -0j),
        # which the factor builder skips
        rng = np.random.default_rng(300 + seed)
        for shape in ((2, 4, 2), (3, 3, 3), (4, 2, 3)):
            a = np.empty(shape, complex)
            a.real = rng.choice([0.0, -0.0, 1.5, -2.0], size=shape)
            a.imag = rng.choice([0.0, -0.0, 0.5, -1.0], size=shape)
            assert_reads_its_factor(monkeypatch, CurvatureTensor(a))

    @pytest.mark.parametrize("n,r,before,after", [(4, 5, 515, 165), (5, 3, 30, 13)])
    def test_each_prefix_is_wedged_once(self, monkeypatch, n, r, before, after):
        # the dict loop makes ``before`` Form wedges, the Laplace expansion
        # ``after`` block wedges and no Form wedge.  The Leibniz walk it
        # replaced made 355 and 22: it wedged each 1 x 1 minor onto the
        # unit, and it kept one product per ordered column tuple of a row
        # prefix, where the expansion keeps one minor per column set
        omega = _omega(n, r, 1)
        ref, ref_blocks, ref_dicts = count_products(monkeypatch, lambda: parent_chern_forms(omega))
        got, blocks, dicts = count_products(monkeypatch, lambda: chern_forms(omega))
        assert (ref_blocks, ref_dicts) == (0, before)
        assert (blocks, dicts) == (after, 0)
        assert_same_chern_forms(got, ref)

    @pytest.mark.parametrize("n,r,after", [(1, 16, 0), (2, 12, 132)])
    def test_tall_matrices(self, monkeypatch, n, r, after):
        # r >> n, a shape no benchmark workload has: a 1 x 1 minor is its
        # entry, and each 2 x 2 principal minor takes two wedges
        omega = bott_chern_curvature(random_tensor(n, r, 2, seed=1))
        got, blocks, dicts = count_products(monkeypatch, lambda: chern_forms(omega))
        assert (blocks, dicts) == (after, 0)
        assert_same_chern_forms(got, parent_chern_forms(omega))


def parent_chern_product(cs, parts) -> Form:
    """c_lambda wedged from 1 with the dict wedge on every call, with no
    memo."""
    result = Form.constant(cs.n, 1, cs.mode)
    for part in parts:
        if part == 0:
            continue
        result = ref_wedge(result, cs.form(part).to_form())
        if result.is_zero():
            break
    return result


class TestChernProductIdentity:
    @pytest.mark.parametrize("n,r,seed", [(5, 3, 13), (4, 4, 2), (3, 5, 1)])
    def test_products_share_the_set_memo(self, n, r, seed):
        # evaluate_on_forms fills the memo first: its c_j^e are the entries
        # (1, j, ..., j) that chern_product reads, and its term keys hold
        # (j, e) pairs, which no product of raw c_j aliases; the prefix (3,)
        # of (3, 2) is reused by (3, 1, 1)
        cs = chern_forms(random_tensor(n, r, None, seed))
        for poly in schur_and_chain_polynomials(n, r):
            evaluate_on_forms(poly, cs)
        lams = [lam.parts for i in range(1, n + 1) for lam in partitions(i, r)]
        for parts in lams + [parts + (0,) for parts in lams]:
            assert_same_form(chern_product(cs, parts), parent_chern_product(cs, parts))
        products = {key for key in cs.memo
                    if key[0] == 1 and all(isinstance(f, int) for f in key)}
        assert (1, 1) in products and len(products) < sum(map(len, lams))

    def test_power_factors_keep_their_own_unit(self):
        # a pair (j, e) is 1 ^ c_j ^ ... (e factors) and an int j is the raw
        # c_j: the two products are memo entries of their own, each the
        # left-to-right wedge it names
        one = PPForm.constant(3, 1)
        c1 = PPForm.from_form(Form(3, FLOAT, {(0b001, 0b001): 1j}))
        c2 = PPForm.from_form(Form(3, FLOAT, {(0b110, 0b110): complex(-0.0, -1.0)}))
        cs = ChernFormSet(n=3, r=2, forms=(one, c1, c2), mode=FLOAT, m=None)
        raw = cs.product(1, [1, 2])
        pair = cs.product(1, [(1, 1), (2, 1)])
        assert exact_repr(raw) == exact_repr(one.wedge(c1).wedge(c2))
        assert exact_repr(pair) == exact_repr(one.wedge(one.wedge(c1)).wedge(one.wedge(c2)))
        assert cs.memo[(1, 1, 2)] is raw and cs.memo[(1, (1, 1), (2, 1))] is pair
        assert_same_form(raw, ref_wedge(ref_wedge(one.to_form(), c1.to_form()), c2.to_form()))


def count_products(monkeypatch, build) -> tuple:
    """(result, ``PPForm.wedge`` calls, ``Form.wedge`` calls) of ``build()``."""
    calls = {PPForm: 0, Form: 0}
    originals = {cls: cls.wedge for cls in calls}

    def counting(cls):
        def wedge(self, other):
            calls[cls] += 1
            return originals[cls](self, other)
        return wedge

    for cls in calls:
        monkeypatch.setattr(cls, "wedge", counting(cls))
    result = build()
    for cls, original in originals.items():
        monkeypatch.setattr(cls, "wedge", original)
    return result, calls[PPForm], calls[Form]


@pytest.mark.parametrize("argv,wedges", [
    (["bounds", "chain", "--random", "--n", "5", "--r", "3", "--seed", "1"], 32),
    (["schur", "verify", "--random", "--n", "5", "--r", "3", "--seed", "1"], 17),
    (["schur", "verify", "--random", "--n", "4", "--r", "5", "--seed", "1"], 25),
])
def test_wedges_per_op(monkeypatch, argv, wedges):
    # every product of Chern forms of one op is a block product, each prefix
    # wedged once through ChernFormSet.product; the Chern forms of these
    # tensor instances are Gram blocks of T, no factor or A ^ conj(A^t) is
    # built as forms, a Schur form with more parts than the factor has
    # columns is not built, and no Form is wedged
    def op():
        with contextlib.redirect_stdout(io.StringIO()):
            return run(argv)

    code, blocks, dicts = count_products(monkeypatch, op)
    assert (code, blocks, dicts) == (0, wedges, 0)


# ----------------------------------------------------------------------
# evaluate_on_forms


class TestEvaluateIdentity:
    @pytest.mark.parametrize("n,r,seed", [(3, 2, 0), (4, 3, 1), (5, 3, 13), (3, 5, 2)])
    def test_float_sets(self, n, r, seed):
        cs = chern_forms(random_tensor(n, r, None, seed))
        for poly in schur_and_chain_polynomials(n, r):
            assert_evaluates_as_reference(poly, cs)

    def test_exact_set(self):
        cs = chern_forms(random_exact_factor(3, 3, 2, seed=5))
        for poly in schur_and_chain_polynomials(3, 3):
            assert_evaluates_as_reference(poly, cs)

    def test_fraction_coefficients_and_variables_above_rank(self):
        # a block has one degree, so the polynomial must be homogeneous
        cs = chern_forms(random_tensor(3, 2, None, 7))
        poly = Polynomial(4, {(1, 1, 0, 0): Fraction(1, 3), (3, 0, 0, 0): -2,
                              (0, 0, 1, 0): 5})
        assert_evaluates_as_reference(poly, cs)
        mixed = poly + Polynomial(4, {(1, 0, 0, 0): Fraction(7, 2)})
        with pytest.raises(InputError, match="homogeneous polynomial"):
            evaluate_on_forms(mixed, cs)


def ref_evaluate_batch(form: Form, samples: np.ndarray) -> np.ndarray:
    """One ``det`` call per index subset, and one += per term."""
    t, p, _ = samples.shape
    dets = {}
    for mask in {m for key in form.terms for m in key}:
        cols = [b for b in range(form.n) if mask >> b & 1]
        dets[mask] = np.linalg.det(samples[:, :, cols])
    vals = np.zeros(t, dtype=complex)
    for (h, a), c in form.terms.items():
        vals += c * dets[h] * np.conj(dets[a])
    return ((-1j) ** (p * p % 4)) * vals


class TestEvaluateBatchIdentity:
    @pytest.mark.parametrize("n,r,seed", [(5, 3, 13), (4, 5, 1), (3, 3, 2)])
    def test_schur_and_chain_forms(self, n, r, seed):
        # d^T H conj(d) over every p-subset gives the per-term sum of the
        # loop over the form's index subsets, to rounding
        cs = chern_forms(random_tensor(n, r, None, seed))
        rng = np.random.default_rng(seed)
        for poly in schur_and_chain_polynomials(n, r):
            form = evaluate_on_forms(poly, cs)
            if form.is_zero():
                continue
            samples = rng.standard_normal((7, form.p, n)) + \
                1j * rng.standard_normal((7, form.p, n))
            got = forms._pairing(form, samples)
            want = ref_evaluate_batch(form.to_form(), samples)
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=FLOAT_RTOL * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("n,r,m", [(3, 3, 2), (4, 2, 3), (4, 4, 1)])
    def test_pairing_matches_exact_evaluate(self, n, r, m):
        # exact Schur forms on Gaussian-integer tuples: exact forms.evaluate
        # of the exact form, and the float pairing of the float block,
        # against one _linalg.det per index mask of the form's terms
        cs = chern_forms(random_exact_factor(n, r, m, seed=n + r))
        rng = np.random.default_rng(n * r)
        checked = 0
        for i in range(1, n + 1):
            for lam in partitions(i, r):
                form = evaluate_on_forms(schur_polynomial(lam, r), cs)
                parts = rng.integers(-3, 4, size=(2, i, n))
                vectors = [[GaussianRational(int(x), int(y)) for x, y in zip(*row)]
                           for row in zip(*parts)]
                exact = form.to_form()
                want = mask_det_evaluate(exact, vectors) if exact.terms else GaussianRational(0)
                assert forms.evaluate(exact, vectors) == want, lam.parts
                samples = (parts[0] + 1j * parts[1]).reshape(1, i, n)
                got = forms._pairing(form.to_float(), samples)[0] if form.p == i else 0j
                want = complex(want)
                assert abs(got - want) <= FLOAT_RTOL * max(1.0, abs(want)), (lam.parts, got, want)
                checked += want != 0
        assert checked


# ----------------------------------------------------------------------
# polynomial core: dict-level references of the replaced classes


def ref_clean(terms: dict) -> dict:
    """The old Chern-polynomial constructor: skip zero coefficients, and
    delete a key as soon as its running sum is zero."""
    clean: dict = {}
    for exps, coeff in terms.items():
        if coeff != 0:
            clean[exps] = clean.get(exps, 0) + coeff
            if clean[exps] == 0:
                del clean[exps]
    return clean


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_neg(a: dict) -> dict:
    return ref_clean({e: -c for e, c in a.items()})


def ref_scale(a: dict, s) -> dict:
    return ref_clean({e: c * s for e, c in a.items()})


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return ref_clean(out)


def ref_one(r: int) -> dict:
    return {(0,) * r: 1}


def ref_pow(a: dict, k: int, r: int) -> dict:
    out = ref_one(r)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_var(d: int, r: int) -> dict:
    if d == 0:
        return ref_one(r)
    if d < 0 or d > r:
        return {}
    return {tuple(1 if k == d - 1 else 0 for k in range(r)): 1}


def ref_schur(parts, r: int) -> dict:
    """The inline Jacobi-Trudi loop over ``itertools.permutations``."""
    size = len(parts)
    if size == 0:
        return ref_one(r)
    entries = [[ref_var(parts[j] - j + k, r) for k in range(size)] for j in range(size)]
    total: dict = {}
    for perm in itertools.permutations(range(size)):
        prod = ref_one(r)
        inv = 0
        for j in range(size):
            e = entries[j][perm[j]]
            if not e:
                break
            prod = ref_mul(prod, e)
            inv += sum(1 for j2 in range(j + 1, size) if perm[j] > perm[j2])
        else:
            total = ref_add(total, ref_neg(prod) if inv & 1 else prod)
    return total


def ref_chain_steps(parts, r: int) -> list:
    """The old chain-step construction, labels and polynomials."""
    parts = [p for p in parts if p > 0]
    c = lambda d: ref_var(d, r)
    steps = []
    prefix, prefix_label = ref_one(r), []
    w = sum(parts)
    for part in parts:
        for j in range(1, min(part, w - part) + 1):
            diff = ref_add(ref_mul(c(w - j), c(j)), ref_neg(ref_mul(c(w - j + 1), c(j - 1))))
            label = f"c{w - j}*c{j} - c{w - j + 1}*c{j - 1}"
            if prefix_label:
                label = "*".join(prefix_label) + f" * ({label})"
            steps.append((label, ref_mul(prefix, diff)))
        prefix = ref_mul(prefix, c(part))
        prefix_label.append(f"c{part}")
        w -= part
    done, done_exp = ref_one(r), 0
    for a, part in enumerate(parts):
        rest = ref_one(r)
        for p in parts[a + 1:]:
            rest = ref_mul(rest, c(p))
        rest_label = "*".join(f"c{p}" for p in parts[a + 1:])
        for t in range(part, 1, -1):
            diff = ref_add(ref_mul(c(1), c(t - 1)), ref_neg(c(t)))
            mult = ref_mul(ref_mul(done, rest), ref_pow(c(1), part - t, r))
            bits = [b for b, keep in ((f"c1^{done_exp}", done_exp), (rest_label, rest_label),
                                      (f"c1^{part - t}", part - t)) if keep]
            label = f"c1*c{t - 1} - c{t}"
            if bits:
                label = "*".join(bits) + f" * ({label})"
            steps.append((label, ref_mul(mult, diff)))
        done = ref_mul(done, ref_pow(c(1), part, r))
        done_exp += part
    return steps


def ref_todd_polynomials(deg: int) -> list:
    """td_0..td_deg by Newton's identities and a truncated exponential."""
    from chernforms.models import _series_log, todd_series

    nv = max(deg, 1)
    weight = lambda e: sum(j * x for j, x in enumerate(e, start=1))
    a = _series_log(todd_series(deg))
    p = [{}]
    for k in range(1, deg + 1):
        acc: dict = {}
        for i in range(1, k):
            term = ref_mul(ref_var(i, nv), p[k - i])
            acc = ref_add(acc, term if (i - 1) % 2 == 0 else ref_neg(term))
        tail = ref_scale(ref_var(k, nv), k)
        acc = ref_add(acc, tail if (k - 1) % 2 == 0 else ref_neg(tail))
        p.append(acc)
    log_td: dict = {}
    for k in range(1, deg + 1):
        log_td = ref_add(log_td, ref_scale(p[k], a[k]))
    total, power = ref_one(nv), ref_one(nv)
    for m in range(1, deg + 1):
        power = ref_clean({e: c for e, c in ref_mul(power, log_td).items() if weight(e) <= deg})
        total = ref_add(total, ref_scale(power, Fraction(1, math.factorial(m))))
    return [ref_clean({e: c for e, c in total.items() if weight(e) == i})
            for i in range(deg + 1)]


def ref_ring_clean(caps, terms: dict) -> dict:
    """The old model-ring constructor: drop monomials beyond a cap, make
    every coefficient a Fraction, delete keys whose running sum is zero."""
    clean: dict = {}
    for exps, coeff in terms.items():
        if any(e > c for e, c in zip(exps, caps)):
            continue
        coeff = Fraction(coeff)
        if coeff:
            clean[exps] = clean.get(exps, Fraction(0)) + coeff
            if not clean[exps]:
                del clean[exps]
    return clean


def ref_ring_add(caps, a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_ring_clean(caps, out)


def ref_ring_mul(caps, a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            if any(e > cap for e, cap in zip(key, caps)):
                continue
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return ref_ring_clean(caps, out)


def ref_todd_class(model) -> dict:
    """Td(M): the universal Todd polynomials at the model's Chern classes."""
    caps = model.proj_dims
    one = ref_ring_clean(caps, {(0,) * len(caps): 1})
    total_chern = one
    for j, k in enumerate(caps):
        gen = ref_ring_clean(caps, {tuple(1 if a == j else 0 for a in range(len(caps))): 1})
        lin = ref_ring_add(caps, one, gen)
        for _ in range(k + 1):
            total_chern = ref_ring_mul(caps, total_chern, lin)

    def chern_class(i):
        if i < 0 or i > model.dim:
            return {}
        return ref_ring_clean(caps, {e: c for e, c in total_chern.items() if sum(e) == i})

    out: dict = {}
    for td_i in ref_todd_polynomials(model.dim):
        for exps, coeff in td_i.items():
            term = ref_ring_clean(caps, {e: c * coeff for e, c in one.items()})
            for j, e in enumerate(exps, start=1):
                for _ in range(e):
                    term = ref_ring_mul(caps, term, chern_class(j))
            out = ref_ring_add(caps, out, term)
    return out


def items_repr(terms: dict) -> str:
    return repr(list(terms.items()))


class TestPolynomialIdentity:
    @pytest.mark.parametrize("r", range(7))
    def test_schur_polynomials(self, r):
        # parts up to 6 at every rank r <= 6, so parts above r (the zero
        # polynomial) and zero entries are covered
        for i in range(8):
            for lam in partitions(i, 6):
                assert items_repr(schur_polynomial(lam, r).terms) == \
                    items_repr(ref_schur(lam.parts, r)), (r, lam.parts)

    @pytest.mark.parametrize("r", range(7))
    def test_chain_step_polynomials(self, r):
        for i in range(8):
            for lam in partitions(i, r):
                got = [(label, items_repr(p.terms))
                       for label, p in chain_step_polynomials(lam, r)]
                want = [(label, items_repr(p)) for label, p in ref_chain_steps(lam.parts, r)]
                assert got == want, (r, lam.parts)

    def test_todd_polynomials(self):
        for d in range(7):
            got = [items_repr(td.terms) for td in todd_polynomials(d)]
            assert got == [items_repr(td) for td in ref_todd_polynomials(d)], d

    @pytest.mark.parametrize("model", CATALOG, ids=lambda m: m.label)
    def test_todd_class(self, model):
        # the old ring made every coefficient a Fraction; values and order
        # must agree, the type of an integral coefficient need not
        got = todd_class(model)
        assert got.caps == model.proj_dims
        assert list(got.terms.items()) == list(ref_todd_class(model).items())


# ----------------------------------------------------------------------
# Form.from_literal: the fold over Form.__add__ it replaced


def ref_from_literal(obj, mode: str) -> Form:
    """The old parser: one monomial form per term, folded with ``+``."""
    if not isinstance(obj, dict):
        raise InputError("form literal must be an object with fields 'n' and 'terms'")
    n = obj.get("n")
    if not isinstance(n, int):
        raise InputError("form literal field 'n': expected an integer")
    raw_terms = obj.get("terms")
    if not isinstance(raw_terms, list):
        raise InputError("form literal field 'terms': expected a list")
    total = Form.zero(n, mode)
    for pos, t in enumerate(raw_terms):
        where = f"terms[{pos}]"
        if not isinstance(t, dict):
            raise InputError(f"form literal {where}: expected an object")
        dz = t.get("dz", [])
        dzbar = t.get("dzbar", [])
        if not isinstance(dz, list) or not isinstance(dzbar, list):
            raise InputError(f"form literal {where}: 'dz' and 'dzbar' must be index lists")
        coeff = parse_scalar(t, mode, f"form literal {where}")
        try:
            total = total + Form.monomial(n, dz, dzbar, coeff, mode)
        except InputError as exc:
            raise InputError(f"form literal {where}: {exc}") from exc
    return total


def _parse_outcome(parse, obj, mode):
    try:
        return exact_repr(parse(obj, mode))
    except InputError as exc:
        return f"InputError: {exc}"


class TestFromLiteralIdentity:
    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    def test_duplicates_zeros_and_reinsertion(self, mode):
        # few monomials and small parts: duplicates, zero coefficients,
        # zero sums and re-inserted keys are all common
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            terms = []
            for _ in range(int(rng.integers(0, 12))):
                h, a = (int(v) for v in rng.integers(0, 1 << n, size=2))
                re, im = (int(v) for v in rng.integers(-1, 2, size=2))
                decimal = bool(rng.integers(2))
                terms.append({"dz": [i + 1 for i in range(n) if h >> i & 1],
                              "dzbar": [i + 1 for i in range(n) if a >> i & 1],
                              "re": re / 10 if decimal else re,
                              "im": -0.0 if im == 0 and decimal else im})
            obj = {"n": n, "terms": terms}
            assert _parse_outcome(Form.from_literal, obj, mode) == \
                _parse_outcome(ref_from_literal, obj, mode)

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @pytest.mark.parametrize("obj", [
        [], {"terms": []}, {"n": 1.0, "terms": []}, {"n": -1, "terms": []},
        {"n": 15, "terms": []}, {"n": 2, "terms": "x"}, {"n": 2, "terms": [3]},
        {"n": 2, "terms": [{"dz": 1}]}, {"n": 2, "terms": [{"dz": [3], "re": 1}]},
        {"n": 2, "terms": [{"dz": [2, 1], "re": 0}]},
        {"n": 2, "terms": [{"dz": [1], "re": 1}, {"dzbar": [0], "re": 1}]},
        {"n": 2, "terms": [{"dz": [1], "re": "1"}]},
        {"n": 2, "terms": [{"dz": [1], "re": 1}, {"dz": [1], "im": float("nan")}]},
    ], ids=lambda obj: json.dumps(obj))
    def test_error_messages(self, mode, obj):
        assert _parse_outcome(Form.from_literal, obj, mode) == \
            _parse_outcome(ref_from_literal, obj, mode)


# ----------------------------------------------------------------------
# GaussianRational: the Fraction-pair class it replaced


class RefGaussianRational:
    """The previous GaussianRational: two Fractions, rebuilt by every
    operation."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise InputError("GaussianRational parts must be exact (int/Fraction/str), not float")
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conjugate(self):
        return RefGaussianRational(self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, RefGaussianRational):
            return RefGaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return RefGaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RefGaussianRational):
            return RefGaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return RefGaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefGaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, RefGaussianRational):
            return RefGaussianRational(self.re * other.re - self.im * other.im,
                                       self.re * other.im + self.im * other.re)
        if isinstance(other, (int, Fraction)):
            return RefGaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefGaussianRational(other)
        if isinstance(other, RefGaussianRational):
            norm = other.re * other.re + other.im * other.im
            if norm == 0:
                raise ZeroDivisionError("division by zero GaussianRational")
            return RefGaussianRational((self.re * other.re + self.im * other.im) / norm,
                                       (self.im * other.re - self.re * other.im) / norm)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefGaussianRational(other) / self
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = RefGaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return RefGaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, RefGaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


BIG = 2 ** 200
_ints = st.integers(-BIG, BIG)
#: parts: zero, small and huge ints, and fractions with denominators to 10^6
parts = st.one_of(st.just(0), st.integers(-3, 3), _ints,
                  st.builds(Fraction, _ints, st.integers(1, 10 ** 6)))
values = st.tuples(parts, parts)
BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


def _outcome(fn, *args):
    """The result, or the type of the arithmetic error it raised."""
    try:
        return fn(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)


def _fields(z: GaussianRational) -> tuple:
    return z._x, z._y, z._d


def assert_same(new, ref):
    """``new`` is the GaussianRational that ``ref`` was, seen every way a
    report or a caller can see it."""
    if isinstance(ref, type):
        assert new is ref
        return
    assert type(new) is GaussianRational and type(ref) is RefGaussianRational
    assert type(new.re) is Fraction and type(new.im) is Fraction
    assert (new.re, new.im) == (ref.re, ref.im)
    assert (str(new), repr(new), hash(new), bool(new)) == \
        (str(ref), repr(ref), hash(ref), bool(ref))
    got, want = _outcome(complex, new), _outcome(complex, ref)
    if isinstance(want, type):
        assert got is want
    else:
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    for probe in (0, 1, -1, ref.re, ref.re.numerator, ref.im, ref.re + Fraction(1, 3),
                  Fraction(ref.re.numerator, ref.re.denominator + 1)):
        assert (new == probe) == (ref == probe)
        assert (probe == new) == (probe == ref)
    x, y, d = _fields(new)
    assert d > 0 and math.gcd(x, y, d) == 1
    assert _fields(GaussianRational(ref.re, ref.im)) == (x, y, d)


class TestGaussianRationalAgainstFractionPairs:
    @settings(deadline=None)
    @given(values)
    def test_construction(self, v):
        assert_same(GaussianRational(*v), RefGaussianRational(*v))
        assert_same(GaussianRational(*map(str, v)), RefGaussianRational(*map(str, v)))

    @settings(deadline=None)
    @given(st.decimals(-10 ** 6, 10 ** 6, places=6).map(str), parts)
    def test_decimal_strings(self, text, im):
        assert_same(GaussianRational(text, im), RefGaussianRational(text, im))

    @settings(deadline=None)
    @given(values, values, st.sampled_from(BINARY))
    def test_binary_operators(self, a, b, op):
        assert_same(_outcome(op, GaussianRational(*a), GaussianRational(*b)),
                    _outcome(op, RefGaussianRational(*a), RefGaussianRational(*b)))

    @settings(deadline=None)
    @given(values, st.one_of(parts, st.booleans()), st.sampled_from(BINARY), st.booleans())
    def test_mixed_int_and_fraction_operands(self, a, other, op, left):
        new, ref = GaussianRational(*a), RefGaussianRational(*a)
        if left:
            assert_same(_outcome(op, other, new), _outcome(op, other, ref))
        else:
            assert_same(_outcome(op, new, other), _outcome(op, ref, other))

    @settings(deadline=None)
    @given(values, st.integers(0, 6))
    def test_unary_operators_and_powers(self, a, k):
        new, ref = GaussianRational(*a), RefGaussianRational(*a)
        assert_same(-new, -ref)
        assert_same(new.conjugate(), ref.conjugate())
        assert_same(new ** k, ref ** k)

    @settings(deadline=None)
    @given(values)
    def test_division_by_zero(self, a):
        new, ref = GaussianRational(*a), RefGaussianRational(*a)
        for zero in (0, Fraction(0), GaussianRational(0)):
            with pytest.raises(ZeroDivisionError):
                new / zero
        with pytest.raises(ZeroDivisionError):
            ref / RefGaussianRational(0)
        if not ref:
            for other in (1, Fraction(-2, 3)):
                with pytest.raises(ZeroDivisionError):
                    other / new
                with pytest.raises(ZeroDivisionError):
                    other / ref

    @given(st.floats(allow_nan=False), parts, st.booleans())
    def test_float_parts_are_rejected(self, x, other, first):
        args = (x, other) if first else (other, x)
        with pytest.raises(InputError):
            GaussianRational(*args)
        with pytest.raises(InputError):
            RefGaussianRational(*args)


# ----------------------------------------------------------------------
# exact CLI reports: a fixed op set whose stdout and exit codes are pinned

#: sha256 over the stdout and exit code of every op of ``exact_cli_ops``,
#: computed on the Fraction-pair GaussianRational and kept until products of
#: Chern forms came to be block products: the float ``top`` values of
#: ``curvature build`` come from products of the numeric forms, summed in
#: another order (14 of the 54 JSON values moved, by at most 2.3e-16 of the
#: largest top of their instance); ``EXACT_CLI_NO_TOPS_DIGEST`` shows every
#: other byte unmoved
EXACT_CLI_DIGEST = "820bbf7ecb169323be4eb961305535f26ad080a20c3933833d5075cac7019438"

#: ``cli_digest(exact_cli_ops(...), without_float_tops)``, the same before and
#: after block products
EXACT_CLI_NO_TOPS_DIGEST = "7d8a54980fc4f0599a62b7857e3079e1f2c6f8872946bb93f3382179e9536cd8"


def _part(value: int, kind: str):
    """A JSON number for an integer part: itself, in quarters (binary
    fractions), or in tenths (decimals with no binary form)."""
    if kind == "int":
        return value
    if kind == "quarter":
        return value / 4
    return round(value / 10, 1)


def _omega_cells(a: np.ndarray, kind: str, split: bool) -> list:
    """Omega_ij = sum_k A_ik ^ conj(A_jk) as Form literals, every part scaled
    by ``kind``.  ``split`` writes each coefficient in two terms (its real
    part less 3, then 3 after every other term) and opens each list with a
    term and its negative, so parsing sums duplicates, drops a zero sum and
    re-inserts the key."""
    n, r, _ = a.shape
    coeff = np.einsum("pik,qjk->ijpq", a, a.conj())
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            terms, tail = [], []
            for p in range(n):
                for q in range(n):
                    re, im = int(coeff[i, j, p, q].real), int(coeff[i, j, p, q].imag)
                    if not (re or im):
                        continue
                    if split:
                        terms.append({"dz": [p + 1], "dzbar": [q + 1],
                                      "re": _part(re - 3, kind), "im": _part(im, kind)})
                        tail.append({"dz": [p + 1], "dzbar": [q + 1], "re": _part(3, kind)})
                    else:
                        terms.append({"dz": [p + 1], "dzbar": [q + 1],
                                      "re": _part(re, kind), "im": _part(im, kind)})
            if split and terms:
                first = {"dz": terms[0]["dz"], "dzbar": terms[0]["dzbar"]}
                terms = [dict(first, re=_part(5, kind), im=_part(-2, kind)),
                         dict(first, re=_part(-5, kind), im=_part(2, kind))] + terms
            row.append({"n": n, "terms": terms + tail})
        rows.append(row)
    return rows


def exact_cli_ops(workdir) -> list[list[str]]:
    """``curvature build --mode exact`` on Gaussian-integer and decimal-part
    omega literals and ``forms eval --mode exact`` on seeded forms and
    vectors, each in JSON and text; the input files go to ``workdir``."""
    rng = np.random.default_rng(2017)
    inputs = []
    for n, r, m in ((2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 3, 2)):
        a = rng.integers(-2, 3, size=(n, r, m)) + 1j * rng.integers(-2, 3, size=(n, r, m))
        for kind in ("int", "quarter", "tenth"):
            for split in (False, True):
                inputs.append(("curvature", {"omega": _omega_cells(a, kind, split)}))
    for n, p in ((1, 1), (2, 1), (2, 2), (3, 2)):
        masks = [mask for mask in range(1 << n) if mask.bit_count() == p]
        for kind in ("int", "quarter", "tenth"):
            terms = []
            for _ in range(6):
                h, b = (int(rng.choice(masks)) for _ in range(2))
                re, im = (int(v) for v in rng.integers(-9, 10, size=2))
                terms.append({"dz": [i + 1 for i in range(n) if h >> i & 1],
                              "dzbar": [i + 1 for i in range(n) if b >> i & 1],
                              "re": _part(re, kind), "im": _part(im, kind)})
            vectors = [[{"re": _part(int(x), kind), "im": _part(int(y), kind)}
                        for x, y in rng.integers(-9, 10, size=(n, 2))] for _ in range(p)]
            inputs.append(("forms", ({"n": n, "terms": terms}, vectors)))
    ops = []
    for idx, (what, obj) in enumerate(inputs):
        if what == "curvature":
            path = os.path.join(workdir, f"omega-{idx}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            argv = ["curvature", "build", "--mode", "exact", "--instance", path]
        else:
            form_path = os.path.join(workdir, f"form-{idx}.json")
            vec_path = os.path.join(workdir, f"vectors-{idx}.json")
            for path, part in ((form_path, obj[0]), (vec_path, obj[1])):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(part, fh)
            argv = ["forms", "eval", "--mode", "exact", "--form", form_path,
                    "--vectors", vec_path]
        ops += [argv, argv + ["--output", "text"]]
    return ops


def cli_digest(ops, view=None) -> str:
    """sha256 over the stdout and exit code of every op, stdout seen
    through ``view`` when one is given."""
    digest = hashlib.sha256()
    for argv in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        text = out.getvalue() if view is None else view(out.getvalue())
        digest.update(f"{text}#exit {code}\n".encode())
    return digest.hexdigest()


def test_exact_cli_reports_match_pinned_digest(tmp_path):
    assert cli_digest(exact_cli_ops(str(tmp_path))) == EXACT_CLI_DIGEST


def without_float_tops(out: str) -> str:
    """A report of ``exact_cli_ops`` with the float value of every top-table
    row blanked, in JSON and in text; every other byte as printed."""
    if not out.startswith("{"):
        return "".join(line for line in out.splitlines(keepends=True)
                       if not line.startswith("  top("))
    payload = json.loads(out)
    assert report_json(payload) + "\n" == out
    for row in payload.get("top", ()):
        row["top"] = None
    return report_json(payload) + "\n"


def test_exact_cli_reports_without_float_tops_are_unchanged(tmp_path):
    # the exact Chern forms and every byte but the float top values, which
    # come from float products of the numeric forms, as at the digest above
    assert cli_digest(exact_cli_ops(str(tmp_path)), without_float_tops) == \
        EXACT_CLI_NO_TOPS_DIGEST


# ----------------------------------------------------------------------
# float CLI reports: random instances, pinned the same way

#: sha256 over the stdout and exit code of every op of ``float_cli_ops``;
#: moved when the Chern forms of witnessed curvatures came to be summed as
#: Gram blocks of the factor, which reorders their float sums (no exit code
#: and no check verdict moved), and again when every ``bounds chain`` step
#: on an instance with m = 1 came to get the zero form's report, since each
#: step has a Schur factor with two nonzero parts (no exit code, step
#: verdict or top value moved), and again when products of Chern forms and
#: the sampled evaluation came to run on coefficient blocks and each Gram
#: block came to be accumulated by matrix products, which sums all three in
#: another order (no exit code or check verdict moved), and again when the
#: sampled reports went to schema 2 (``argmin``, ``method`` and ``margin``
#: added, the witness printed on a FAIL only); ``FLOAT_CLI_SCHEMA1_DIGEST``
#: shows every other byte unmoved; and again when the sampled evaluation
#: came to take the p x p minors of each tuple from one Laplace pass
#: (``forms._minors``) instead of a ``det`` per gathered submatrix: 20 JSON
#: ``schur verify`` reports moved in ``min_value`` (relative change at most
#: 6e-15), ``margin`` and ``max_imag``, and no exit code, check verdict,
#: ``argmin``, text report, ``bounds chain`` or ``curvature build`` report
#: moved
FLOAT_CLI_DIGEST = "b4d367a79de4d439c790ba8ccc69bcbbc320ba9348a6b9fa87aa99490613d111"

#: ``cli_digest(float_cli_ops(...), schema1_view)``: the ``FLOAT_CLI_DIGEST``
#: of the schema-1 reports, before and after schema 2; moved with it when
#: the minors came from the Laplace pass
FLOAT_CLI_SCHEMA1_DIGEST = "f7e6c101c27838dd9b3e028380c060be7e6bafb3a8a45cc41b1d8ac94da776f6"


def float_cli_ops(workdir) -> list[list[str]]:
    """``schur verify`` and ``bounds chain`` on ``--random`` instances and
    ``curvature build`` on the same tensors written to ``workdir``, for
    n, r <= 4 and CLI seeds 0-1, each in JSON and text."""
    ops = []
    for n in range(1, 5):
        for r in range(1, 5):
            for seed in (0, 1):
                shape = ["--random", "--n", str(n), "--r", str(r), "--seed", str(seed)]
                path = os.path.join(workdir, f"tensor-{n}-{r}-{seed}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(random_tensor(n, r, None, seed).to_json(), fh)
                for argv in (["schur", "verify"] + shape, ["bounds", "chain"] + shape,
                             ["curvature", "build", "--instance", path]):
                    ops += [argv, argv + ["--output", "text"]]
    return ops


def test_float_cli_reports_match_pinned_digest(tmp_path):
    assert cli_digest(float_cli_ops(str(tmp_path))) == FLOAT_CLI_DIGEST


def sampled_reports(payload: dict) -> list:
    """Every sampled report of a ``schur verify`` or ``bounds chain`` payload:
    the checks, then the chain steps chain by chain."""
    reports = [c["report"] for c in payload.get("checks", ())]
    for chain in payload.get("chains", ()):
        reports += [step["report"] for step in chain["steps"]]
    return reports


def schema1_view(out: str) -> str:
    """A report as the schema-1 writer printed it: ``argmin``, ``method`` and
    ``margin`` popped from every sampled report, the witness of each PASS
    regenerated from (seed, trials, degree, instance n, argmin), and the
    ``schema`` of the sampled kinds set back to 1.  Text output and the
    other kinds pass through as printed."""
    if not out.startswith("{"):
        return out
    payload = json.loads(out)
    assert report_json(payload) + "\n" == out
    if payload["kind"] not in ("schur-nonnegativity", "bounds-chains"):
        assert payload["schema"] == 1
        return out
    assert payload["schema"] == 2
    payload["schema"] = 1
    for chain in payload.get("chains", ()):
        assert chain["schema"] == 2
        chain["schema"] = 1
    n = payload["instance"]["n"]
    for rep in sampled_reports(payload):
        argmin, method, margin = rep.pop("argmin"), rep.pop("method"), rep.pop("margin")
        assert margin == rep["min_value"] / (rep["tol"] * rep["scale"])
        if argmin is None:
            assert method == "exact-zero" and rep["passed"] and rep["witness"] is None
            continue
        assert method == "sampled"
        batch = complex_normal(substream(rep["seed"], 0), (rep["trials"], rep["degree"], n))
        witness = [[scalar_json(z) for z in vec] for vec in batch[argmin]]
        if rep["passed"]:
            assert rep["witness"] is None
            rep["witness"] = witness
        else:
            assert rep["witness"] == witness
    return report_json(payload) + "\n"


def test_float_cli_schema1_view_is_unchanged(tmp_path):
    # every byte but the schema-2 fields, with the witness of each PASS
    # regenerated from its argmin, as at the digest before schema 2
    assert cli_digest(float_cli_ops(str(tmp_path)), schema1_view) == FLOAT_CLI_SCHEMA1_DIGEST


def test_argmin_indexes_the_minimum_of_the_redrawn_batch(tmp_path):
    # a PASS report carries no tuple: redrawing the batch of its seed and
    # evaluating its form there must give min_value at entry argmin, bit for
    # bit; the whole batch is evaluated, as the check does, since one tuple
    # on its own may round differently
    seen = 0
    for argv in float_cli_ops(str(tmp_path)):
        if argv[0] == "curvature" or "--output" in argv:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
        payload = json.loads(out.getvalue())
        tensor = CurvatureTensor.from_json(payload["instance"])
        cs = chern_forms(tensor)
        polys = [schur_polynomial(c["partition"], tensor.r) for c in payload.get("checks", ())]
        for chain in payload.get("chains", ()):
            polys += [poly for _, poly in
                      chain_step_polynomials(Partition(tuple(chain["partition"])), tensor.r)]
        reports = sampled_reports(payload)
        assert len(polys) == len(reports)
        for poly, rep in zip(polys, reports):
            if rep["argmin"] is None:
                continue
            assert rep["passed"] and rep["witness"] is None
            form = evaluate_on_forms(poly, cs.to_numeric()).to_float()
            batch = complex_normal(substream(rep["seed"], 0),
                                   (rep["trials"], rep["degree"], tensor.n))
            values = forms._pairing(form, batch).real
            assert values[rep["argmin"]].tobytes() == np.float64(rep["min_value"]).tobytes()
            assert int(np.argmin(values)) == rep["argmin"]
            seen += 1
    assert seen > 0


def curvature_build(path) -> dict:
    """The JSON report of ``curvature build`` on the instance at ``path``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["curvature", "build", "--instance", str(path)]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("n", range(1, 5))
def test_omega_literal_builds_match_tensor_builds(tmp_path, n):
    # no op of float_cli_ops runs the float Laplace route: each of its
    # tensors, written as the omega literal of its curvature, must build the
    # same omega, and Chern forms and top values that the Gram route gives
    # to rounding; top values are scaled like coefficients, by max(1, |top|),
    # because a c_lambda that vanishes (r = 1, n >= 2) rounds to about 1e-18
    # on either route
    tensor_path, omega_path = tmp_path / "tensor.json", tmp_path / "omega.json"
    for r in range(1, 5):
        for seed in (0, 1):
            tensor = random_tensor(n, r, None, seed)
            tensor_path.write_text(json.dumps(tensor.to_json()), encoding="utf-8")
            omega_path.write_text(json.dumps(omega_literal(bott_chern_curvature(tensor))),
                                  encoding="utf-8")
            want, got = curvature_build(tensor_path), curvature_build(omega_path)
            assert json.dumps(got["omega"]) == json.dumps(want["omega"])
            assert [c["i"] for c in got["chern"]] == [c["i"] for c in want["chern"]]
            for g, w in zip(got["chern"], want["chern"]):
                assert Form.from_literal(g["form"]).allclose(Form.from_literal(w["form"]),
                                                             FLOAT_RTOL)
            assert [t["partition"] for t in got["top"]] == [t["partition"] for t in want["top"]]
            for g, w in zip(got["top"], want["top"]):
                assert abs(g["top"] - w["top"]) <= \
                    FLOAT_RTOL * max(1.0, abs(g["top"]), abs(w["top"]))


#: sha256 over the stdout and exit code of every op of
#: ``benchmark_shape_cli_ops``; moved when the Chern forms of witnessed
#: curvatures came to be summed as Gram blocks of the factor, and a Schur
#: form with more parts than the factor has columns came to be reported as
#: the zero form: S_(1,1,1,1,1) of CLI seed 13 at (5, 3), m = 4, was the
#: sampled false FAIL and now PASSes, and no other verdict moved; moved
#: again when products of Chern forms and the sampled evaluation came to run
#: on coefficient blocks and Gram blocks came to be accumulated by matrix
#: products, in another float order (no exit code or check verdict moved);
#: moved again when the sampled reports went to schema 2, and
#: ``BENCHMARK_SHAPE_CLI_SCHEMA1_DIGEST`` shows every other byte unmoved;
#: moved again when the p x p minors of each sampled tuple came from one
#: Laplace pass (``forms._minors``): the 4 JSON ``schur verify`` reports
#: moved in ``min_value``, ``margin`` and ``max_imag``, and no exit code,
#: check verdict, ``argmin``, text report or ``bounds chain`` report moved
BENCHMARK_SHAPE_CLI_DIGEST = "855bdda462ded7f5bc69588b09c0b1bc689539df9739f383cb0f1e0b0a5d94df"

#: ``cli_digest(benchmark_shape_cli_ops(), schema1_view)``: the
#: ``BENCHMARK_SHAPE_CLI_DIGEST`` of the schema-1 reports; moved with it
#: when the minors came from the Laplace pass
BENCHMARK_SHAPE_CLI_SCHEMA1_DIGEST = \
    "f3b1d687925b8fe575ede0f731c5386cd989232ce4ba3dbb48033fc89d536173"


def benchmark_shape_cli_ops() -> list[list[str]]:
    """``schur verify`` and ``bounds chain`` on ``--random`` instances at the
    benchmark's shapes: (4, 5) with CLI seeds 0-1, and (5, 3) with CLI seeds
    0 and 13 (the sampled false FAIL until S_(1^5) with m = 4 was reported
    as the zero form), each in JSON and text."""
    ops = []
    for (n, r), seeds in (((4, 5), (0, 1)), ((5, 3), (0, 13))):
        for seed in seeds:
            shape = ["--random", "--n", str(n), "--r", str(r), "--seed", str(seed)]
            for argv in (["schur", "verify"] + shape, ["bounds", "chain"] + shape):
                ops += [argv, argv + ["--output", "text"]]
    return ops


def test_benchmark_shape_cli_reports_match_pinned_digest():
    assert cli_digest(benchmark_shape_cli_ops()) == BENCHMARK_SHAPE_CLI_DIGEST


def test_benchmark_shape_cli_schema1_view_is_unchanged():
    assert cli_digest(benchmark_shape_cli_ops(), schema1_view) == \
        BENCHMARK_SHAPE_CLI_SCHEMA1_DIGEST


@pytest.mark.parametrize("name", ["core", "core-without-bounds-chain", "schur-table", "models"])
def test_report_sets_match_cli_digests_expected(name, tmp_path):
    # no digest above covers the benchmark pools, the exact builds over
    # n, r <= 5, ``schur table`` or any ``model`` subcommand; the ops and
    # their digests stay in cli_digests.py and cli_digests.expected
    import cli_digests

    ops = cli_digests.op_sets(str(tmp_path))[name]
    assert f"{name} {len(ops)} {cli_digest(ops)}" == cli_digests.expected_lines()[name]


# ----------------------------------------------------------------------
# report_json against json.dumps(sort_keys=True, indent=2)


class IntSub(int):
    def __repr__(self):
        return "IntSub()"


class FloatSub(float):
    def __repr__(self):
        return "FloatSub()"


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-2 ** 300, max_value=2 ** 300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]),
    st.text(), st.text(alphabet=st.characters(min_codepoint=0x80)),
    st.builds(IntSub, st.integers()), st.builds(FloatSub, st.floats()),
)

JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=25)

UNSUPPORTED = st.sampled_from([object(), {1, 2}, 1j, b"x", Fraction(1, 3), range(2)])


def outcome(encode, obj):
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


class TestReportJson:
    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, obj):
        assert report_json(obj) == reference_json(obj)

    @given(JSON_VALUES, UNSUPPORTED)
    @settings(max_examples=100, deadline=None)
    def test_unsupported_values_raise_the_same_type_error(self, obj, bad):
        for wrapped in (bad, [obj, bad], {"a": obj, "b": (bad,)}):
            got = outcome(report_json, wrapped)
            assert got == outcome(reference_json, wrapped)
            assert got[0] is TypeError

    def test_edge_cases(self):
        cases = [[], {}, (), [[]], {"": {}}, "\u00e9\u2028\U0001f600\x00\"\\", -0.0,
                 [math.nan, math.inf, -math.inf], 10 ** 100, True, None, IntSub(7),
                 FloatSub(-0.0), {"b": 1, "a": [2, (3,)], "\u00e9": None}]
        for obj in cases:
            assert report_json(obj) == reference_json(obj)
        # both refuse an integer too long for str(), with the same error
        assert outcome(report_json, 10 ** 5000) == outcome(reference_json, 10 ** 5000)

    def test_non_str_keys_are_refused(self):
        with pytest.raises(TypeError):
            report_json({1: 2})
