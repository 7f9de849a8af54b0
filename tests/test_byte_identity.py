"""Identity oracles for the hot paths and the polynomial core.

``Form.wedge`` (a double loop over the two term dicts) and
``conftest.form_matrix_det`` (the depth-first Leibniz walk over forms,
kept in the tests for the references below) must do the same float
operations in the same order as the straightforward versions kept below
as references: the wedge that computes an inversion-count sign for every
pair of terms, the wedge that rebuilds its sign tables over the distinct
masks on every call, and the determinant that
re-wedges every ``itertools.permutations`` product from scratch.  Results are compared
through ``repr(list(f.terms.items()))``, which sees key order, signed zeros
and every bit of every coefficient, or through ``canonical_repr``, the same
with the keys sorted.

The coefficient blocks (``PPForm``) of Chern, Schur and chain-step forms
sum in another order than those dict wedges, so ``PPForm.wedge`` (and
the block ``+``, unary ``-`` and ``scale``, against ``Form``'s),
``ChernFormSet.product`` (prefixes memoized on the set by their parts),
``schur.evaluate_on_forms`` and the sampled pairing d^T H conj(d) are
compared with the dict references below, and with exact
``forms.evaluate``: equal in exact mode, and within ``FLOAT_RTOL`` of the
scale in float mode.  A sampled op and a ``curvature build`` on an
``omega`` literal wedge no ``Form``.

``polynomials.Polynomial`` must build every chain-step and Todd polynomial
with the same terms in the same order as the two classes it replaced, kept
below as dict-level references: the Chern-variable polynomial (whose
constructor dropped zero sums) and the model ring element (whose
constructor made every coefficient a Fraction).  The term order matters
because ``evaluate_on_forms`` sums float forms in that order.  Every Schur
polynomial, a Laplace walk of ``forms._minor`` over polynomials, must equal
as a value the inline ``itertools.permutations`` Jacobi-Trudi loop kept
below; its term order is that walk's.

``chern.chern_forms`` on a curvature matrix (a Laplace expansion of the
principal minors on (1,1)-blocks, each (rows, cols) minor computed once) must give
the c_i of the dict loop that expands every principal minor on its own, kept
below: equal in exact mode and within ``FLOAT_RTOL`` in float mode, with
fewer wedges.

``GaussianRational`` (three normalised ints) must agree with the
Fraction-pair class it replaced, kept below as a reference, in every part,
float bit, string, hash and error; ``Form.from_literal`` (one pass) with
the fold over ``Form.__add__`` it replaced.  A curvature matrix holds
(1,1)-blocks, so ``forms.read_literal`` must read an ``omega`` cell into
the block that ``Form.from_literal`` and ``PPForm.from_form`` give, bit for
bit and with the same errors, the literal built from
``PPForm.literal_terms``, which the report views read, must be that of
``to_form().to_literal()``, and ``bott_chern_curvature`` must hold the
terms of the dict loop it replaced, kept below, signed zeros included.  Fixed sets of exact-mode and
float-mode CLI ops, and the float ops at the benchmark's shapes, are pinned
by the sha256 of their output, and
``cli.report_json`` must write what ``json.dumps(sort_keys=True,
indent=2)`` writes, on random values and on every JSON report of the
digest sets; the views below rebuild reports with ``json`` itself, not
with ``report_json``.  Seen through ``schema1_view``, which turns a schema-2
sampled report back into schema 1 by regenerating each passing witness
from its ``argmin``, the float sets keep their schema-1 digests.
"""

import contextlib
import gc
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
from chernforms import chern, cli, forms, scalars
from chernforms.chern import ChernFormSet
from chernforms.cli import BlockLiteral, report_json, run
from chernforms.curvature import InstanceText
from chernforms.errors import InputError
from chernforms.rng import complex_normal, substream
from chernforms.scalars import GaussianRational, exact_fields, parse_scalar, scalar_json
from chernforms.schur import Partition, chain_step_polynomials, verify_schur_nonnegativity

from conftest import allclose, factor_tensor, form_matrix_det, instance_digest, \
    mask_det_evaluate, max_coefficient_magnitude, schur_and_chain_polynomials


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
        assert allclose(got.to_form(), want, FLOAT_RTOL * scale)


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
            magnitudes.append(max_coefficient_magnitude(term.to_float()))
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
def block_pairs(draw, mode: str, same_degree: bool = False):
    """A (p,p)- and a (q,q)-form on one base of dimension 0..5, p and q in
    0..n (q = p when ``same_degree``), so constants and p + q > n occur,
    each with up to 12 terms of ``small_scalars`` coefficients (none for a
    zero form)."""
    n = draw(st.integers(0, 5))
    out = []
    for _ in range(2):
        p = out[1] if same_degree and out else draw(st.integers(0, n))
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


def assert_normalised(form: PPForm):
    """An exact block's numerators share no factor with its denominator
    d > 0, and every ``GaussianRational`` read back through ``.block`` and
    ``.terms`` is normalised: d > 0 and gcd(x, y, d) = 1."""
    if form.mode != EXACT:
        return
    assert form.den > 0 and math.gcd(form.den, *form.re.flat, *form.im.flat) == 1
    for c in itertools.chain(form.block.flat, form.terms.values()):
        assert isinstance(c, GaussianRational)
        x, y, d = exact_fields(c)
        assert d > 0 and math.gcd(x, y, d) == 1


#: a scale factor with a non-unit denominator
SIXTHS = GaussianRational(Fraction(2, 3), Fraction(-1, 6))


class TestBlockWedge:
    """``PPForm.wedge``, the signed shuffle product of coefficient blocks,
    against the dict wedge ``ref_wedge``; ``+``, unary ``-`` and ``scale``
    against ``Form.__add__``, ``Form.__neg__`` and ``Form.scale``."""

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_hypothesis_blocks(self, mode, data):
        x, p, y, q = data.draw(block_pairs(mode))
        got = PPForm.from_form(x, p).wedge(PPForm.from_form(y, q))
        assert got.p == p + q
        assert_same_form(got, ref_wedge(x, y))
        assert_normalised(got)
        assert PPForm.from_form(got.to_form(), p + q) == got

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_hypothesis_sum_negation_scale(self, mode, data):
        x, p, y, _ = data.draw(block_pairs(mode, same_degree=True))
        c = data.draw(small_scalars(mode))
        bx, by = PPForm.from_form(x, p), PPForm.from_form(y, p)
        factors = (c, SIXTHS) if mode == EXACT else (c, complex(SIXTHS))
        results = [(bx + by, x + y), (-bx, -x)]
        results += [(bx.scale(f), x.scale(f)) for f in factors]
        for got, want in results:
            assert got.p == p or got.is_zero()
            assert_same_form(got, want)
            assert_normalised(got)


# ----------------------------------------------------------------------
# the Leibniz walk over forms (conftest.form_matrix_det)


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


def assert_reads_its_factor(tensor):
    """A float tensor gives the Gram route the forms, under ``==``, of the T
    read off ``factor_from_tensor(tensor)``, which may differ from the
    tensor's array in the signs of zeros."""
    rebuilt = CurvatureTensor(factor_tensor(factor_from_tensor(tensor)))
    assert chern_forms(tensor).forms == chern_forms(rebuilt).forms


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
    def test_tensor_route(self, n, r, seed):
        # a tensor takes T straight off its array, which holds the bytes
        # its built factor holds when no part is zero
        tensor = random_tensor(n, r, None, seed)
        assert tensor.array.tobytes() == factor_tensor(factor_from_tensor(tensor)).tobytes()
        assert_reads_its_factor(tensor)

    @pytest.mark.parametrize("seed", range(4))
    def test_tensor_route_signed_and_exact_zeros(self, seed):
        # parts of -0.0, and entries that are exactly zero (0j or -0j),
        # which the factor builder skips: the same values as the factor's
        # forms, the signs of their zeros aside
        rng = np.random.default_rng(300 + seed)
        for shape in ((2, 4, 2), (3, 3, 3), (4, 2, 3)):
            a = np.empty(shape, complex)
            a.real = rng.choice([0.0, -0.0, 1.5, -2.0], size=shape)
            a.imag = rng.choice([0.0, -0.0, 0.5, -1.0], size=shape)
            assert_reads_its_factor(CurvatureTensor(a))

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

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_blocks_build_no_scalars(self, monkeypatch, seed):
        # exact blocks compute on Gaussian-integer numerators, so a call
        # builds at most one GaussianRational per output entry; arithmetic
        # on GaussianRational entries would build one per product and sum,
        # thousands on these curvatures
        omega = bott_chern_curvature(random_exact_factor(4, 3, 3, seed))
        created = []
        raw, init = scalars._raw, GaussianRational.__init__

        def counting_raw(*fields):
            created.append(fields)
            return raw(*fields)

        def counting_init(self, *parts):
            created.append(parts)
            init(self, *parts)

        monkeypatch.setattr(scalars, "_raw", counting_raw)
        monkeypatch.setattr(GaussianRational, "__init__", counting_init)
        chern_forms(omega)
        monkeypatch.undo()
        assert 0 < len(created) <= sum(math.comb(4, i) ** 2 for i in range(5))

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
        # evaluate_on_forms fills the memo first, with the products of its
        # terms' parts, largest first, which are the entries chern_product
        # reads; the prefix (3,) of (3, 2) is reused by (3, 1, 1)
        cs = chern_forms(random_tensor(n, r, None, seed))
        for poly in schur_and_chain_polynomials(n, r):
            evaluate_on_forms(poly, cs)
        lams = [lam.parts for i in range(1, n + 1) for lam in partitions(i, r)]
        filled = set(cs.memo)
        for parts in lams + [parts + (0,) for parts in lams]:
            assert_same_form(chern_product(cs, parts), parent_chern_product(cs, parts))
        assert (1, 1) in filled and set(cs.memo) == filled
        assert len(cs.memo) < sum(map(len, lams))


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
    (["bounds", "chain", "--random", "--n", "5", "--r", "3", "--seed", "1"], 12),
    (["schur", "verify", "--random", "--n", "5", "--r", "3", "--seed", "1"], 5),
    (["schur", "verify", "--random", "--n", "4", "--r", "5", "--seed", "1"], 6),
])
def test_wedges_per_op(monkeypatch, argv, wedges):
    # every product of Chern forms of one op is a block product, each prefix
    # wedged once through ChernFormSet.product; the Chern forms of these
    # tensor instances are Gram blocks of T, no factor or A ^ conj(A^t) is
    # built as forms, a Schur form with more parts than the factor has
    # columns is not built, and no Form is wedged.  The counts went from
    # 32, 17 and 25 when the products came to be keyed by their parts
    # alone, started from the stored c_{p_1}: no wedge by a constant, and
    # a power c_j^e no longer a product of its own
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
        # polynomial) and zero entries are covered; equal as values, since
        # the term order is that of the Laplace walk of forms._minor, not
        # of the permutations
        for i in range(8):
            for lam in partitions(i, 6):
                assert dict(schur_polynomial(lam, r).terms) == ref_schur(lam.parts, r), \
                    (r, lam.parts)

    @pytest.mark.parametrize("r", range(7))
    def test_chain_step_polynomials(self, r):
        # the old construction's steps, less those that are identically
        # zero at rank r
        for i in range(8):
            for lam in partitions(i, r):
                got = [(label, items_repr(p.terms))
                       for label, p in chain_step_polynomials(lam, r)]
                want = [(label, items_repr(p)) for label, p in ref_chain_steps(lam.parts, r)
                        if p]
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
# Omega as (1,1)-blocks: the literal reader, the block printer and the
# curvature sums, against the Form route they replaced


def ref_omega(obj, mode: str) -> CurvatureMatrix:
    """The old ``omega`` reader: every cell a ``Form`` from
    ``Form.from_literal``, then the matrix checks."""
    rows = obj["omega"]
    if not isinstance(rows, list) or not rows:
        raise InputError("field 'omega': expected a nonempty matrix of form literals")
    cells = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise InputError(f"field omega[{i}]: expected a list of form literals")
        cells.append([Form.from_literal(cell, mode) for cell in row])
    return CurvatureMatrix(cells)


def ref_bott_chern(tensor: CurvatureTensor) -> list:
    """The old ``bott_chern_curvature``: Omega_ij = sum_k A_ik ^ conj(A_jk)
    as term dicts, written in k, p, q order with the rules of ``Form``
    (an exactly zero product skipped, an exactly zero sum dropped)."""
    a = [[[(h, c) for (h, _), c in f.terms.items()] for f in row]
         for row in factor_from_tensor(tensor)]
    a_bar = [[[(g, c.conjugate()) for g, c in terms] for terms in row] for row in a]
    out = []
    for left in a:
        row = []
        for right in a_bar:
            terms: dict = {}
            for a_k, b_k in zip(left, right):
                for h, c1 in a_k:
                    for g, c2 in b_k:
                        c = c1 * c2
                        if not c:
                            continue
                        total = c if (h, g) not in terms else terms[h, g] + c
                        if not total:
                            del terms[h, g]
                        else:
                            terms[h, g] = total
            row.append(terms)
        out.append(row)
    return out


def _block_outcome(read, obj, mode: str) -> str:
    """A reader's result, every bit of it: the float block's bytes or the
    exact fields, a returned ``Form``'s terms, or the error."""
    try:
        got = read(obj, mode)
    except InputError as exc:
        return f"InputError: {exc}"
    if isinstance(got, Form):
        return f"Form {exact_repr(got)}"
    if mode == FLOAT:
        return f"block {got.p} {got.block.tobytes().hex()}"
    return f"block {got.p} {got.re.tolist()} {got.im.tolist()} {got.den}"


def _oracle_block(obj, mode: str):
    """``Form.from_literal`` then ``PPForm.from_form``; a literal whose sums
    are not all of degree (1,1) stays the ``Form`` it reads as."""
    form = Form.from_literal(obj, mode)
    return PPForm.from_form(form, 1) if form.is_homogeneous(1, 1) else form


def _random_terms(rng, n: int, count: int) -> list:
    """Terms over few keys, mostly (1,1): repeats, exact cancellations that
    re-insert their key, signed zeros, exact decimals and zero terms off
    degree (1,1)."""
    terms = []
    for _ in range(count):
        if terms and rng.random() < 0.3:
            # the negation of an earlier term, or the term again
            old = terms[int(rng.integers(len(terms)))]
            sign = -1 if rng.random() < 0.6 else 1
            terms.append(dict(old, re=sign * old["re"], im=sign * old["im"]))
            continue
        if rng.random() < 0.85:
            dz, dzbar = [int(rng.integers(1, n + 1))], [int(rng.integers(1, n + 1))]
        else:
            dz, dzbar = [int(rng.integers(1, n + 1))], []
        re, im = (int(v) for v in rng.integers(-2, 3, size=2))
        kind = int(rng.integers(3))
        if kind == 1:
            re, im = re / 10, im / 4
        elif kind == 2:
            re, im = float(re), -0.0
        terms.append({"dz": dz, "dzbar": dzbar, "re": re, "im": im})
    return terms


def _masked_literal(terms: list) -> dict:
    """The literal on n = 2 of terms (dz mask, dzbar mask, re, im)."""
    return {"n": 2, "terms": [
        {"dz": [i + 1 for i in range(2) if h >> i & 1],
         "dzbar": [i + 1 for i in range(2) if a >> i & 1], "re": re, "im": im}
        for h, a, re, im in terms]}


class TestReadLiteral:
    """``forms.read_literal`` against ``Form.from_literal`` followed by
    ``PPForm.from_form``: the same sums, bit for bit, and the same errors."""

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    def test_sums_match_the_form_route(self, mode):
        rng = np.random.default_rng(2201)
        for _ in range(400):
            n = int(rng.integers(1, 5))
            obj = {"n": n, "terms": _random_terms(rng, n, int(rng.integers(0, 14)))}
            assert _block_outcome(lambda o, m: forms.read_literal(o, m, 1), obj, mode) == \
                _block_outcome(_oracle_block, obj, mode)

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @pytest.mark.parametrize("terms", [
        # repeated terms, summed in literal order: 0.1 + 0.2 + 0.3 and
        # 0.3 + 0.2 + 0.1 differ in float mode
        [(1, 1, 0.1, 0), (1, 1, 0.2, 0), (1, 1, 0.3, 0)],
        [(1, 1, 0.3, 0), (1, 1, 0.2, 0), (1, 1, 0.1, 0)],
        # sums that cancel exactly, then restart with a signed zero
        [(1, 2, 1, -1), (1, 2, -1, 1), (1, 2, 2.0, -0.0)],
        [(2, 2, 0.5, 0.25), (2, 2, -0.5, -0.25)],
        # 0.1 + 0.2 - 0.3 cancels in exact mode only
        [(2, 1, 0.1, 0), (2, 1, 0.2, 0), (2, 1, -0.3, 0)],
        # exact decimal parts over several denominators
        [(1, 1, 0.125, -2.5), (2, 1, 1.1, 0), (1, 2, 3, 0.3)],
        # off degree (1,1): a zero coefficient, and a sum that cancels
        [(1, 0, 0, 0), (0, 0, 0.0, -0.0), (1, 1, 1, 0)],
        [(3, 0, 1.5, -2), (1, 1, 1, 0), (3, 0, -1.5, 2)],
        # off degree (1,1) with a nonzero sum: the reader returns the Form
        [(1, 1, 1, 0), (3, 3, 1, 0)],
        [(0, 0, 0.1, 0), (0, 0, 0.2, 0), (0, 0, -0.3, 0)],
    ])
    def test_named_cases(self, mode, terms):
        obj = _masked_literal(terms)
        assert _block_outcome(lambda o, m: forms.read_literal(o, m, 1), obj, mode) == \
            _block_outcome(_oracle_block, obj, mode)

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @pytest.mark.parametrize("obj,message", [
        ([], "form literal must be an object with fields 'n' and 'terms'"),
        ({"terms": []}, "form literal field 'n': expected an integer"),
        ({"n": True, "terms": []}, "form literal field 'n': expected an integer"),
        ({"n": 15, "terms": []}, "base dimension must be an int in 0..14, got 15"),
        ({"n": 2, "terms": "x"}, "form literal field 'terms': expected a list"),
        ({"n": 2, "terms": [3]}, "form literal terms[0]: expected an object"),
        ({"n": 2, "terms": [{"dz": 1}]},
         "form literal terms[0]: 'dz' and 'dzbar' must be index lists"),
        ({"n": 2, "terms": [{"dz": [True], "re": "x"}]},
         "form literal terms[0].dz: expected integer indices"),
        ({"n": 2, "terms": [{"dz": [3], "re": "1"}]}, "form literal terms[0].re: expected a number"),
        ({"n": 2, "terms": [{"dz": [3], "re": 1}]},
         "form literal terms[0]: form index 3 out of range 1..2"),
        ({"n": 2, "terms": [{"dz": [2, 1], "re": 0}]},
         "form literal terms[0]: form indices must be strictly increasing"),
        ({"n": 2, "terms": [{"dz": [1], "dzbar": [1], "re": 1}, {"dz": [1], "im": float("nan")}]},
         "form literal terms[1].im: expected a finite number, got nan"),
        ({"n": 2, "terms": [{"dz": [1], "dzbar": [1], "re": 1}, "t"]},
         "form literal terms[1]: expected an object"),
    ], ids=lambda v: json.dumps(v) if not isinstance(v, str) else "")
    def test_malformed_messages(self, mode, obj, message):
        # the texts the parser printed before the reader shared it
        want = f"InputError: {message}"
        assert _block_outcome(lambda o, m: forms.read_literal(o, m, 1), obj, mode) == want
        assert _block_outcome(_oracle_block, obj, mode) == want

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    def test_first_error_across_cells(self, mode):
        # cells malformed in several ways at once: the matrix reader names
        # what the Form route names, parse errors before shape, degree and
        # overflow errors, in row-major order
        good = {"n": 2, "terms": [{"dz": [1], "dzbar": [1], "re": 1}]}
        bad = [
            {"n": 2, "terms": [{"dz": [5], "dzbar": [1], "re": 1}]},
            {"n": 2, "terms": [{"dz": [1], "dzbar": [1], "im": "i"}]},
            {"n": 2, "terms": [{"dz": [1], "dzbar": [], "re": 1}]},
            {"n": 3, "terms": []},
            {"n": 2, "terms": [{"dz": [1], "dzbar": [1], "re": 1e308},
                               {"dz": [1], "dzbar": [1], "re": 1e308}]},
            "cell",
            good,
        ]
        rng = np.random.default_rng(2202)
        seen = set()
        for _ in range(300):
            r = int(rng.integers(1, 4))
            rows = [[bad[int(v)] for v in rng.integers(len(bad), size=r)] for _ in range(r)]
            if rng.random() < 0.1:
                rows[-1] = rows[-1][:-1] or "row"
            obj = {"omega": rows}
            want = _omega_outcome(lambda o, m: (ref_omega(o, m), None), obj, mode)
            assert _omega_outcome(cli._curvature_from_input, obj, mode) == want
            seen.add(want if want.startswith("InputError") else "read")
        # every kind of error came first somewhere, and some matrices were read
        assert len(seen) >= 8 and "read" in seen

    def test_int_parts_build_no_scalars(self, monkeypatch):
        # exact int parts are numerators as they stand: reading a Gaussian-
        # integer omega builds no GaussianRational
        omega = bott_chern_curvature(random_exact_factor(4, 3, 3, 501))
        cells = [[f.to_literal() for f in row] for row in omega.entries]
        cells = [[dict(c, terms=[dict(t, re=int(t["re"]), im=int(t["im"])) for t in c["terms"]])
                  for c in row] for row in cells]
        created = []
        init = GaussianRational.__init__

        def counting_init(self, *parts):
            created.append(parts)
            init(self, *parts)

        monkeypatch.setattr(GaussianRational, "__init__", counting_init)
        for module, name in ((scalars, "_raw"), (forms, "_raw_scalar")):
            monkeypatch.setattr(module, name, lambda *fields: created.append(fields))
        blocks = [[forms.read_literal(c, EXACT, 1) for c in row] for row in cells]
        monkeypatch.undo()
        assert created == []
        assert [[b.to_form() for b in row] for row in blocks] == [list(row) for row in omega.entries]

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @pytest.mark.parametrize("terms", [
        # off degree (1,1) with a nonzero sum: refused by the matrix
        [(1, 1, 1, 0), (3, 3, 1, 0), (1, 0, 0.5, 2), (2, 1, -1, 0), (1, 1, 0.25, 0)],
        # off degree (1,1) with sums that cancel: read as a block
        [(3, 0, 1.5, -2), (1, 1, 1, 0), (3, 0, -1.5, 2), (2, 2, 0.5, 0)],
    ])
    def test_off_degree_cell_is_read_once(self, monkeypatch, mode, terms):
        # each term's two index lists are checked once, not once more by a
        # second parse of the literal
        cell = _masked_literal(terms)
        calls = []
        check = forms._indices_to_mask

        def counting_check(indices, n):
            calls.append(indices)
            return check(indices, n)

        monkeypatch.setattr(forms, "_indices_to_mask", counting_check)
        outcome = _omega_outcome(cli._curvature_from_input, {"omega": [[cell]]}, mode)
        monkeypatch.undo()
        assert len(calls) <= 2 * len(terms)
        assert outcome == _omega_outcome(lambda o, m: (ref_omega(o, m), None),
                                         {"omega": [[cell]]}, mode)

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @pytest.mark.parametrize("field", ["dz", "dzbar"])
    def test_float_index_after_its_int_is_refused(self, mode, field):
        # (1.0,) == (1,) and the two hash alike, so a reader that remembered
        # checked index lists by their tuple would take the float
        second = {"dz": [1], "dzbar": [1], "re": 1}
        second[field] = [1.0]
        obj = {"n": 2, "terms": [{"dz": [1], "dzbar": [1], "re": 1}, second]}
        message = "^form literal terms\\[1\\]: form index 1.0 out of range 1..2$"
        for read in (lambda: forms.read_literal(obj, mode, 1),
                     lambda: Form.from_literal(obj, mode)):
            with pytest.raises(InputError, match=message):
                read()


def _omega_outcome(read, obj, mode: str) -> str:
    try:
        omega, _ = read(obj, mode)
    except InputError as exc:
        return f"InputError: {exc}"
    return repr([[canonical_repr(f) for f in row] for row in omega.entries])


def _random_block(rng, n: int, p: int, mode: str) -> PPForm:
    """A (p,p)-block with zeros, signed zeros and, in exact mode, entries
    over several denominators."""
    size = math.comb(n, p)
    if mode == FLOAT:
        pool = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                complex(1.5, -0.0), complex(-0.0, 2.25), complex(-3.0, 0.0)]
        block = complex_normal(rng, (size, size))
        picks = rng.integers(len(pool) + 3, size=(size, size))
        for (i, j), pick in np.ndenumerate(picks):
            if pick < len(pool):
                block[i, j] = pool[pick]
        return PPForm(n, p, FLOAT, block)
    re = rng.integers(-4, 5, size=(size, size)) * (rng.random((size, size)) < 0.6)
    im = rng.integers(-4, 5, size=(size, size)) * (rng.random((size, size)) < 0.6)
    g = int(rng.choice([1, 2, 6]))
    # numerators and denominator share the factor g, which the block divides out
    return PPForm._exact(n, p, (re * g).astype(object), (im * g).astype(object),
                         int(rng.choice([1, 3, 4, 10])) * g)


def literal_of_terms(n: int, labels: list, terms: list) -> dict:
    """The form literal spelled by the labels and terms of
    ``PPForm.literal_terms``."""
    return {"n": n, "terms": [{"dz": list(labels[b]), "dzbar": list(labels[c]),
                               "re": re, "im": im} for b, c, re, im in terms]}


class TestBlockLiteral:
    """The literal built from ``PPForm.literal_terms``, which the report
    views read, is what ``to_form().to_literal()`` writes, compared as JSON
    text, which shows every float bit and the sign of each zero."""

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @pytest.mark.parametrize("n", range(0, 7))
    def test_every_degree(self, mode, n):
        rng = substream(2203, n, int(mode == EXACT))
        for p in range(n + 1):
            for _ in range(3):
                block = _random_block(rng, n, p, mode)
                if mode == EXACT:
                    assert_normalised(block)
                assert json.dumps(literal_of_terms(n, *block.literal_terms())) == \
                    json.dumps(block.to_form().to_literal())

    def test_zero_blocks(self):
        for mode in (FLOAT, EXACT):
            for n, p in ((0, 0), (3, 1), (4, 2)):
                block = PPForm.zero(n, p, mode)
                assert literal_of_terms(n, *block.literal_terms()) == \
                    block.to_form().to_literal() == {"n": n, "terms": []}

    def test_beyond_the_float_range(self):
        size = math.comb(3, 1)
        re = np.zeros((size, size), object)
        re[1, 2] = 10 ** 400
        block = PPForm._exact(3, 1, re, np.zeros((size, size), object), 7)
        for write in (lambda: literal_of_terms(3, *block.literal_terms()),
                      lambda: block.to_form().to_literal()):
            with pytest.raises(InputError, match="^an exact value lies beyond the float range "
                                                 "of the report$"):
                write()


def _sum_tensors(rng) -> list:
    """Float tensors whose curvature sums meet every rule of the Form route:
    signed zeros, real and imaginary axes, exact cancellations, products
    that underflow to zero, and plain normals."""
    out = []
    for s in range(160):
        n, r, m = (int(v) for v in rng.integers(1, 5, size=3))
        kind = s % 5
        if kind == 0:
            arr = random_tensor(n, r, m, s).array
        elif kind == 1:
            arr = random_exact_factor(n, r, m, s).array.astype(complex)
        elif kind == 2:
            arr = (rng.choice([0.0, -0.0, 1.0, -1.0, 2.0], size=(n, r, m))
                   + 1j * rng.choice([0.0, 1.0, -2.0], size=(n, r, m)))
            arr.imag[rng.random(arr.shape) < 0.5] = -0.0
        elif kind == 3:
            base = rng.integers(-1, 2, size=(n, r, 1)).astype(complex)
            arr = np.concatenate([base, -base, 1j * base, base], axis=2)
        else:
            arr = complex_normal(rng, (n, r, m)) * 1e-170
        out.append(CurvatureTensor(arr))
    return out


class TestCurvatureSums:
    """The blocks of ``bott_chern_curvature``, one einsum in both modes,
    against the term dicts the Form route wrote: every value, the signs of
    zeros aside."""

    def test_blocks_match_the_form_route(self):
        exact = random_exact_factor(3, 2, 3, seed=2204)
        tensors = _sum_tensors(np.random.default_rng(2204)) + [
            exact, CurvatureTensor(exact.array.astype(complex))]
        for tensor in tensors:
            want = ref_bott_chern(CurvatureTensor(tensor.array))
            got = bott_chern_curvature(tensor)
            for i, row in enumerate(got.blocks):
                for j, block in enumerate(row):
                    ref = np.zeros((tensor.n, tensor.n), block.block.dtype)
                    for (h, g), c in want[i][j].items():
                        ref[h.bit_length() - 1, g.bit_length() - 1] = c
                    assert (block.block == ref).all(), (i, j)
                    assert block.to_literal() == \
                        Form._raw(tensor.n, tensor.mode, want[i][j]).to_literal()

    @pytest.mark.parametrize("scale", [1e150, 1e152, 1e153, 3e153, 1e154, 1e155])
    def test_overflow_check_only_skips_finite_sums(self, scale):
        # chern._checked_tensor builds Omega only above a bound on its
        # coefficients; it raises exactly when bott_chern_curvature does
        rng = np.random.default_rng(int(math.log10(scale)))
        for _ in range(20):
            n, r, m = (int(v) for v in rng.integers(1, 4, size=3))
            arr = complex_normal(rng, (n, r, m)) * scale

            def outcome(check):
                try:
                    check(CurvatureTensor(arr))
                except InputError as exc:
                    return str(exc)
                return None

            assert outcome(chern._checked_tensor) == outcome(bott_chern_curvature)


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


def reference_json(obj) -> str:
    """The reference encoder for report bytes, outside ``src/``."""
    return json.dumps(obj, sort_keys=True, indent=2)


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
    assert reference_json(payload) + "\n" == out
    for row in payload.get("top", ()):
        row["top"] = None
    return reference_json(payload) + "\n"


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
#: moved; and again when the sampled checks of one degree, and the steps
#: of one chain, came to share one tuple batch, drawn from
#: ``derive_seed(seed, 7, i)`` or ``derive_seed(chain seed, 11)`` in place
#: of one stream per check or step: 107 of the 192 ops moved (32 JSON and
#: 32 text ``schur verify``, 24 JSON and 19 text ``bounds chain``), the
#: JSON reports in each check's and step's ``seed``, and in ``min_value``,
#: ``margin``, ``argmin`` and ``max_imag`` where sampled, the text in its
#: printed minima; no exit code, verdict, check or step verdict, method or
#: ``curvature build`` report moved; and again when the nonzero checks and
#: steps of degrees n, 1 and n-1 came to be decided without sampling: 117 of
#: the 192 ops moved (32 JSON and 32 text ``schur verify``, 21 JSON and 32
#: text ``bounds chain``), the JSON reports in the ``method``,
#: ``min_value``, ``margin``, ``argmin`` and ``max_imag`` of 225 reports
#: (175 now ``top-coefficient``, 50 ``psd``), the text in printing each
#: method and margin; every report still sampled, and every exit code,
#: verdict, check or step verdict, seed and ``curvature build`` report,
#: kept its bytes; and again when the Schur polynomials came to be Laplace
#: minors (``forms._minor``), whose term order differs, and the terms of an
#: evaluated polynomial came to be wedged from their largest part, both of
#: which sum the check and step forms in another float order: 24 of the 192
#: ops moved (12 JSON ``schur verify``, 11 JSON and 1 text ``bounds
#: chain``), the JSON reports in ``min_value`` (by at most 9.5e-16 of the
#: scale), ``margin``, ``scale`` and ``max_imag``, the text in two printed
#: worst margins (-2.776e-08 -> 0); no exit code, verdict, check or step
#: verdict, method, ``argmin``, seed, top or ``curvature build`` report
#: moved; and again when chain steps that are identically zero at rank r
#: came to be left out: 12 of the 192 ops moved (6 JSON and 6 text
#: ``bounds chain``), only by the 12 dropped ``exact-zero`` steps and, in
#: the texts, the step counts and worst margins, which the margin 0 of an
#: ``exact-zero`` step no longer hides; and again when the text summary of
#: ``bounds chain`` came to take each chain's worst margin over the steps
#: that are not ``exact-zero``, printing ``n/a`` when none is: 11 of the
#: 192 ops moved, all ``bounds chain --output text``, each in one line
#: (``worst margin=0.000e+00`` -> ``n/a``); no JSON report moved
FLOAT_CLI_DIGEST = "6052eb9fd0ab304fbdb48bf7536e50aa3b4908444f657c99dbeb88690f358c2b"

#: ``cli_digest(float_cli_ops(...), schema1_view)``: the ``FLOAT_CLI_DIGEST``
#: of the schema-1 reports, before and after schema 2; moved with it when
#: the minors came from the Laplace pass, and when the checks of one degree
#: and the steps of one chain came to share one batch (the same ops moved,
#: and each regenerated witness with its seed and argmin), and when degrees
#: n, 1 and n-1 came to be decided without sampling (the same ops moved,
#: and the 225 reports that sampled nothing lost their regenerated witness),
#: and when the Schur polynomials came to be Laplace minors and the terms
#: of a polynomial came to be wedged from their largest part (the same ops
#: moved, in the same fields), and when identically zero chain steps came
#: to be left out (the same ops), and when the ``bounds chain`` text
#: summary came to leave ``exact-zero`` steps out of its worst margin (the
#: same 11 text ops, which the view passes through as printed)
FLOAT_CLI_SCHEMA1_DIGEST = "ad0115c753889780c8acea2be1db3f6635070238a74899aa56c2be7e7c53ed0a"


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
    ``margin`` popped from every check and step report, the witness of each
    sampled PASS regenerated from (seed, trials, degree, instance n,
    argmin), and the ``schema`` of the sampled kinds set back to 1.  A
    report that sampled nothing keeps its witness as printed.  Text output
    and the other kinds pass through as printed."""
    if not out.startswith("{"):
        return out
    payload = json.loads(out)
    assert reference_json(payload) + "\n" == out
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
            # nothing sampled: no tuple to regenerate, and a witness on a FAIL only
            assert method in ("exact-zero", "top-coefficient", "psd")
            assert (rep["witness"] is None) == rep["passed"]
            assert rep["passed"] or method != "exact-zero"
            continue
        assert method == "sampled"
        batch = complex_normal(substream(rep["seed"], 0), (rep["trials"], rep["degree"], n))
        witness = [[scalar_json(z) for z in vec] for vec in batch[argmin]]
        if rep["passed"]:
            assert rep["witness"] is None
            rep["witness"] = witness
        else:
            assert rep["witness"] == witness
    return reference_json(payload) + "\n"


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
                assert allclose(Form.from_literal(g["form"]), Form.from_literal(w["form"]),
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
#: check verdict, ``argmin``, text report or ``bounds chain`` report moved;
#: moved again when the sampled checks of one degree, and the steps of one
#: chain, came to share one tuple batch: 14 of the 16 ops moved (every JSON
#: report in its seeds and sampled values, every ``schur verify`` text and
#: 2 ``bounds chain`` texts in their printed minima), and no exit code,
#: verdict, check or step verdict or method moved; moved again when degrees
#: n, 1 and n-1 came to be decided without sampling: all 16 ops moved, the
#: JSON reports in the ``method``, ``min_value``, ``margin``, ``argmin`` and
#: ``max_imag`` of 105 reports (88 now ``top-coefficient``, 17 ``psd``), the
#: texts in printing each method and margin; every report still sampled,
#: and every exit code, verdict, check or step verdict and seed, kept its
#: bytes; moved again when the Schur polynomials came to be Laplace minors
#: (``forms._minor``) and the terms of an evaluated polynomial came to be
#: wedged from their largest part, which sum the check and step forms in
#: another float order: 8 of the 16 ops moved (the 4 JSON ``schur verify``
#: and the 4 JSON ``bounds chain``), in ``min_value`` (by at most 6.3e-15
#: of the scale), ``margin``, ``scale`` and ``max_imag``; no exit code,
#: verdict, check or step verdict, method, ``argmin``, seed, top or text
#: report moved; moved again when chain steps that are identically zero at
#: rank r came to be left out: 4 of the 16 ops moved (2 JSON and 2 text
#: ``bounds chain``), only by the 10 dropped ``exact-zero`` steps and, in
#: the texts, the step counts and worst margins, which the margin 0 of an
#: ``exact-zero`` step no longer hides
BENCHMARK_SHAPE_CLI_DIGEST = "f52103e3eb0aa286064d28121dbbf80586f1592f9094aad379951a87461fa04f"

#: ``cli_digest(benchmark_shape_cli_ops(), schema1_view)``: the
#: ``BENCHMARK_SHAPE_CLI_DIGEST`` of the schema-1 reports; moved with it
#: when the minors came from the Laplace pass, when the checks of one
#: degree and the steps of one chain came to share one batch, when degrees
#: n, 1 and n-1 came to be decided without sampling, and when the Schur
#: polynomials came to be Laplace minors and the terms of a polynomial came
#: to be wedged from their largest part (the same ops, in the same fields),
#: and when identically zero chain steps came to be left out (the same ops)
BENCHMARK_SHAPE_CLI_SCHEMA1_DIGEST = \
    "8853ad38154ab4e230c7c30c414cc1491f45083b4b6fdd083b317ea8bdd13992"


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


@pytest.mark.parametrize("name", ["core", "core-without-bounds-chain", "core-verdicts",
                                  "core-passes", "core-tops", "schur-table", "models", "omega",
                                  "omega-values", "omega-wide", "eval-and-text",
                                  "eval-values", "build-large"])
def test_report_sets_match_cli_digests_expected(name, tmp_path):
    # no digest above covers the benchmark pools, the exact builds over
    # n, r <= 5, ``schur table``, any ``model`` subcommand, the ``omega``
    # and ``omega-wide`` literal sets, ``forms eval``, the text summaries
    # of the sampled commands or the builds at n = 6..8; the ops, their
    # views and their digests stay in cli_digests.py and
    # cli_digests.expected
    import cli_digests

    ops = cli_digests.op_sets(str(tmp_path))[name]
    digest = cli_digest(ops, cli_digests.VIEWS.get(name))
    assert f"{name} {len(ops)} {digest}" == cli_digests.expected_lines()[name]


def test_omega_wide_runs_both_exact_routes(tmp_path, monkeypatch):
    # the omega-wide line pins the int64 and the Python-int Laplace routes
    # only while its builds take both
    import cli_digests

    routes = []
    fits = chern._fits_int64

    def recording(*args):
        routes.append(fits(*args))
        return routes[-1]

    monkeypatch.setattr(chern, "_fits_int64", recording)
    for argv in cli_digests.omega_wide_ops(str(tmp_path)):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0
    assert (routes.count(True), routes.count(False)) == (41, 43)


def test_report_sets_print_what_json_prints(tmp_path):
    # the digests pin bytes that report_json wrote; every JSON report of
    # the digest sets is held here to the reference encoder as well
    import cli_digests

    seen = set()
    for ops in cli_digests.op_sets(str(tmp_path)).values():
        for argv in ops:
            if "--output" in argv or tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                run(argv)
            text = out.getvalue()
            if text:
                assert text == reference_json(json.loads(text)) + "\n", argv


# ----------------------------------------------------------------------
# report_json against json.dumps(sort_keys=True, indent=2)


class IntSub(int):
    def __repr__(self):
        return "IntSub()"


class FloatSub(float):
    def __repr__(self):
        return "FloatSub()"


class DictSub(dict):
    pass


class ListSub(list):
    pass


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

#: the key sets of ``SHAPED_VALUES``: few, so that dict shapes repeat
KEY_SETS = [("a", "b"), ("b", "a", "\u00e9"), ("re", "im"), ("",), ("n", "terms", "a")]


def shaped_dicts(children):
    """Dicts whose keys are one of ``KEY_SETS``, in any insertion order."""
    return st.sampled_from(KEY_SETS).flatmap(st.permutations).flatmap(
        lambda keys: st.tuples(*(children for _ in keys)).map(
            lambda values: dict(zip(keys, values))))


SHAPED_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=3), shaped_dicts(children),
                               st.lists(shaped_dicts(children), min_size=2, max_size=3)),
    max_leaves=30)

UNSUPPORTED = st.sampled_from([object(), {1, 2}, 1j, b"x", Fraction(1, 3), range(2)])


def outcome(encode, obj):
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestReportJson:
    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, obj):
        assert report_json(obj) == reference_json(obj)

    @given(SHAPED_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_repeated_dict_shapes_match_json_dumps(self, obj):
        assert report_json(obj) == reference_json(obj)

    def test_shared_layouts(self):
        cases = [
            # one key set at two depths of one report, and in two insertion
            # orders
            {"a": 1, "b": {"a": [2], "b": {"a": 3, "b": 4}}},
            [{"b": 1, "a": 2}, {"a": 3, "b": 4}, [{"b": {"a": 5, "b": 6}, "a": 7}]],
            # the int-like and the float-like values under one shared key
            [{"v": True}, {"v": 1}, {"v": IntSub(1)}, {"v": False}, {"v": None}],
            [{"v": 1.0}, {"v": FloatSub(2.0)}, {"v": math.nan}, {"v": math.inf},
             {"v": -math.inf}],
            # containers that are not a plain dict or list, and empty ones
            {"d": DictSub(b=1, a=[2]), "l": ListSub([1, (2,)]), "t": (1, (2, {})),
             "e": [], "f": {}, "g": ()},
            [DictSub(a=1, b=2), {"b": 3, "a": 4}, ListSub(),
             {"a": DictSub(), "b": ListSub([{}, []])}],
        ]
        for obj in cases:
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


def _as_literals(obj):
    """``obj`` with each ``BlockLiteral`` replaced by its form's
    ``to_literal()`` and each ``InstanceText`` by its ``to_json()``."""
    if isinstance(obj, BlockLiteral):
        return obj.form.to_literal()
    if isinstance(obj, InstanceText):
        return obj.tensor.to_json()
    if isinstance(obj, list):
        return [_as_literals(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _as_literals(value) for key, value in obj.items()}
    return obj


def _nested(view) -> list:
    """Payloads that hold ``view`` at several nesting depths, beside other
    values."""
    return [view, [view], {"form": view}, [[view, 1.5], {"i": 0, "form": view}],
            {"a": {"b": [view, view]}, "c": "x"}, {"chern": [{"form": view, "i": 2}]}]


class TestBlockLiteralText:
    """``report_json`` writes a ``BlockLiteral`` as ``json.dumps`` writes
    its form's ``to_literal()`` at the same depth, and the view reads what
    ``PPForm.to_literal`` writes."""

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    @pytest.mark.parametrize("n", range(0, 7))
    def test_every_degree_at_every_depth(self, mode, n):
        rng = substream(3001, n, int(mode == EXACT))
        for p in range(n + 1):
            block = _random_block(rng, n, p, mode)
            view = BlockLiteral(block)
            assert literal_of_terms(n, view.labels, view.terms) == block.to_literal()
            if p == 0 and view.terms:
                assert '"dz": []' in report_json(view)
            for payload in _nested(view):
                assert report_json(payload) == reference_json(_as_literals(payload))

    def test_zero_blocks_and_signed_zeros(self):
        for mode in (FLOAT, EXACT):
            for n, p in ((0, 0), (3, 1), (4, 2)):
                view = BlockLiteral(PPForm.zero(n, p, mode))
                assert view.form.to_literal() == {"n": n, "terms": []}
                for payload in _nested(view):
                    assert report_json(payload) == reference_json(_as_literals(payload))
        block = np.array([[complex(-0.0, 1.0), complex(-0.0, -0.0)],
                          [complex(0.0, -0.0), complex(2.0, -0.0)]])
        view = BlockLiteral(PPForm(2, 1, FLOAT, block))
        assert [(re, im) for _, _, re, im in view.terms] == [(-0.0, 1.0), (2.0, -0.0)]
        assert report_json(view).count("-0.0") == 2
        assert report_json(view) == reference_json(view.form.to_literal())

    def test_exact_entry_that_underflows_is_kept(self):
        size = math.comb(3, 1)
        re, im = np.zeros((size, size), object), np.zeros((size, size), object)
        re[0, 1], im[2, 2] = -1, 3
        view = BlockLiteral(PPForm._exact(3, 1, re, im, 10 ** 400))
        assert view.terms == [(0, 1, -0.0, 0.0), (2, 2, 0.0, 0.0)]
        assert report_json([view]) == reference_json([view.form.to_literal()])

    def test_beyond_the_float_range_raises_when_the_view_is_made(self):
        size = math.comb(3, 1)
        re = np.zeros((size, size), object)
        re[1, 2] = 10 ** 400
        with pytest.raises(InputError, match="^an exact value lies beyond the float range "
                                             "of the report$"):
            BlockLiteral(PPForm._exact(3, 1, re, np.zeros((size, size), object), 7))

    def test_non_finite_parts_are_spelled_as_json_spells_them(self):
        block = np.array([[complex(math.inf, -0.0), complex(math.nan, -math.inf)],
                          [0j, complex(1e-300, 1e300)]])
        view = BlockLiteral(PPForm(2, 1, FLOAT, block))
        for payload in _nested(view):
            assert report_json(payload) == reference_json(_as_literals(payload))

    def test_writer_leaves_no_reference_cycle(self):
        # a cycle through the recursive writer would keep every piece of the
        # report alive until the next collection
        payload = {"omega": [[BlockLiteral(PPForm.constant(2, 1.5))]], "top": [{"a": 1.0}]}
        gc.collect()
        gc.disable()
        try:
            report_json(payload)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_sparse_block_at_the_largest_dimension(self):
        # n = 14 at p = 2: a 91 x 91 block with two nonzero entries writes
        # two terms, not a text per entry of the block
        n, p = 14, 2
        size = math.comb(n, p)
        block = np.zeros((size, size), complex)
        block[3, 90], block[90, 0] = 0.5 - 2j, -1.25
        view = BlockLiteral(PPForm(n, p, FLOAT, block))
        assert len(view.terms) == 2
        text = report_json({"form": view})
        assert text == reference_json({"form": view.form.to_literal()})
        assert len(text) < 500


#: float parts whose ``repr`` takes each of its spellings: a signed zero,
#: the least subnormal, the least normal, an exponent above and below the
#: fixed-point range, a shortest round trip and a float with no fraction
AWKWARD_PARTS = (-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 0.1, 123456789.0)


def _awkward_tensors() -> list:
    """Float tensors of several shapes that hold every ``AWKWARD_PARTS``
    value, and its negation, as a real and as an imaginary part."""
    values = AWKWARD_PARTS + tuple(-x for x in AWKWARD_PARTS)
    pairs = [complex(a, b) for a, b in zip(values, values[3:] + values[:3])]
    pairs += [complex(b, a) for a, b in zip(values, values[5:] + values[:5])]
    out = []
    for shape in ((1, 1, 28), (2, 7, 2), (4, 1, 7), (7, 2, 2)):
        out.append(CurvatureTensor(np.array(pairs).reshape(shape)))
    out.append(CurvatureTensor(np.array([[[complex(-0.0, -0.0)]]])))
    return out


def _exact_tensors() -> list:
    """Exact tensors: ``random_exact_factor`` draws, and Fraction parts
    whose floats are shortest round trips, large, or underflow to zero."""
    out = [random_exact_factor(n, r, m, seed=s)
           for s, (n, r, m) in enumerate(((1, 1, 1), (2, 3, 2), (3, 2, 4), (4, 4, 3)))]
    third, tiny = Fraction(1, 3), Fraction(1, 10 ** 400)
    cells = [GaussianRational(third, -third), GaussianRational(Fraction(-2, 7), 0),
             GaussianRational(Fraction(10 ** 300, 3), tiny), GaussianRational(-tiny, 5)]
    out.append(CurvatureTensor(np.array(cells, dtype=object).reshape(1, 2, 2)))
    return out


class TestInstanceText:
    """The instance view spells ``json.dumps`` of its tensor's ``to_json()``:
    compact for its hash, indented for ``report_json``, both from one
    ``repr`` per part."""

    @pytest.mark.parametrize("tensor", _awkward_tensors() + _exact_tensors())
    def test_compact_text_and_hash(self, tensor):
        view = InstanceText(tensor)
        compact = json.dumps(tensor.to_json(), sort_keys=True, separators=(",", ":"))
        assert view.text("", "", ":") == compact
        assert view.sha256 == hashlib.sha256(compact.encode()).hexdigest()
        assert view.sha256 == instance_digest(tensor.to_json())
        assert len(view.reprs) == 2 * tensor.array.size

    @pytest.mark.parametrize("tensor", _awkward_tensors() + _exact_tensors())
    def test_indented_text_at_every_depth(self, tensor):
        view = InstanceText(tensor)
        want = reference_json(tensor.to_json())
        for depth in range(4):
            newline = "\n" + "  " * depth
            assert view.text(newline) == want.replace("\n", newline)
        for payload in _nested(view):
            assert report_json(payload) == reference_json(_as_literals(payload))

    def test_awkward_parts_are_all_spelled(self):
        text = InstanceText(_awkward_tensors()[0]).text("", "", ":")
        for x in AWKWARD_PARTS:
            assert f":{x!r}," in text or f":{x!r}}}" in text
        assert "5e-324" in text and "1e+16" in text and "1e-07" in text

    def test_texts_come_from_the_reprs(self):
        # the texts are the reprs put in place, im before re, in entry order
        view = InstanceText(random_tensor(2, 3, 2, seed=4))
        view.reprs = tuple(map(str, range(len(view.reprs))))
        t = json.loads(view.text("\n"))["T"]
        assert [cell for plane in t for row in plane for cell in row] == \
            [{"im": 2 * e, "re": 2 * e + 1} for e in range(12)]
        assert json.loads(view.text("", "", ":"))["T"] == t

    def test_beyond_the_float_range_raises_when_the_view_is_made(self):
        tensor = CurvatureTensor(np.array([[[1, GaussianRational(0, 10 ** 400)]]], dtype=object))
        with pytest.raises(InputError, match="^an exact value lies beyond the float range "
                                             "of the report$"):
            InstanceText(tensor)

