"""Factor tensors, the curvature matrices they build, frame changes, and the
quadratic form."""

import hashlib
import json
from fractions import Fraction

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
    bott_chern_curvature,
    change_frame,
    chern_forms,
    conjugate,
    factor_from_tensor,
    griffiths_value,
    random_exact_factor,
    random_tensor,
    random_unitary,
)
from chernforms.errors import InputError
from chernforms.forms import MAX_DIM
from chernforms.scalars import GaussianRational, scalar_json

from conftest import allclose, diagonal_tensor, griffiths_contraction, integer_tensor_pair, \
    random_invertible, random_signed_phase_permutation


class TestFactorMatrix:
    """The factor matrix A of a tensor, ``tensor.entries``."""

    def test_shape_properties(self):
        f = diagonal_tensor(2)
        assert (f.r, f.m, f.n, f.mode) == (2, 2, 2, FLOAT)
        a = f.entries
        assert [len(row) for row in a] == [2, 2]
        assert a[0][0] == Form.dz(2, 1) and a[1][1] == Form.dz(2, 2)
        assert a[0][1].is_zero() and a[1][0].is_zero()

    def test_zero_entries_allowed(self):
        # T[:, 0, 0] = 0: a zero column entry next to A_12 = dz^1
        f = CurvatureTensor([[[0, 1]], [[0, 0]]])
        assert f.m == 2
        assert f.entries[0][0].is_zero() and f.entries[0][1] == Form.dz(2, 1)


class TestBottChern:
    def test_rank_one_example(self):
        # A = [2 dz]  =>  Omega = 4 dz ^ dzbar
        a = CurvatureTensor([[[2.0]]])
        omega = bott_chern_curvature(a)
        assert omega.entries[0][0].coefficient([1], [1]) == 4
        assert chern_forms(a).m == 1

    def test_tensor_example_with_cross_terms(self):
        # n=2, r=1, m=1, A_11 = dz1 + i dz2:
        # Omega_11 = dz1 dzbar1 - i dz1 dzbar2 + i dz2 dzbar1 + dz2 dzbar2
        t = CurvatureTensor(np.array([[[1.0]], [[1j]]]))
        omega = bott_chern_curvature(t)
        e = omega.entries[0][0]
        assert e.coefficient([1], [1]) == pytest.approx(1)
        assert e.coefficient([1], [2]) == pytest.approx(-1j)
        assert e.coefficient([2], [1]) == pytest.approx(1j)
        assert e.coefficient([2], [2]) == pytest.approx(1)

    def test_diagonal_factor(self, diag2):
        for i in range(2):
            for j in range(2):
                got = diag2.entries[i][j]
                if i == j:
                    assert got == Form.monomial(2, [i + 1], [i + 1], 1)
                else:
                    assert got.is_zero()

    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_skew_conjugate_symmetry(self, seed, n, r, m):
        # conj(Omega_ij) = -Omega_ji for any factored curvature
        omega = bott_chern_curvature(random_tensor(n, r, m, seed=seed))
        for i in range(r):
            for j in range(r):
                assert allclose(conjugate(omega.entries[i][j]),
                                omega.entries[j][i].scale(-1), 1e-12)

    def test_exact_skew_symmetry(self):
        factor = random_exact_factor(2, 2, 2, seed=5)
        omega = bott_chern_curvature(factor)
        for i in range(2):
            for j in range(2):
                assert conjugate(omega.entries[i][j]) == omega.entries[j][i].scale(-1)


class TestCurvatureMatrixWitness:
    """A curvature matrix carries no factor: the factor is the witness, and
    a matrix keeps one rule of its own, finite float coefficients."""

    def test_non_finite_entry_rejected(self):
        # |1e200|^2 overflows: the built entry has an infinite coefficient
        with pytest.raises(InputError, match=r"curvature entry \(1,1\) is not finite"):
            bott_chern_curvature(CurvatureTensor([[[1e200]]]))
        inf = Form.monomial(1, [1], [1], complex(float("inf"), 0))
        with pytest.raises(InputError, match=r"curvature entry \(1,1\) is not finite"):
            CurvatureMatrix(((inf,),))
        one, zero = Form.monomial(1, [1], [1], 1), Form.zero(1)
        with pytest.raises(InputError, match=r"curvature entry \(2,1\) is not finite"):
            CurvatureMatrix(((one, zero), (inf, one)))

    def test_unwitnessed_matrix_is_allowed(self):
        m = CurvatureMatrix(((Form.monomial(1, [1], [1], -1),),))
        assert chern_forms(m).m is None

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            CurvatureMatrix(((Form.monomial(1, [1], [1], 1), Form.monomial(1, [1], [1], 1)),))


class TestCurvatureTensor:
    def test_shape_and_validation(self):
        t = CurvatureTensor(np.zeros((2, 3, 1), dtype=complex))
        assert (t.n, t.r, t.m) == (2, 3, 1)
        with pytest.raises(InputError):
            CurvatureTensor(np.zeros((2, 2), dtype=complex))
        with pytest.raises(InputError):
            CurvatureTensor(np.array([[[np.nan]]], dtype=complex))

    def test_json_round_trip(self):
        t = random_tensor(2, 2, 3, seed=9)
        blob = json.dumps(t.to_json())
        back = CurvatureTensor.from_json(json.loads(blob))
        assert np.array_equal(back.array, t.array)

    def test_to_json_writes_each_entry_as_scalar_json(self):
        # a float tensor is read off one tolist; every key, float and signed
        # zero is the one scalar_json gives, and an exact tensor beyond the
        # float range is still refused
        a = random_tensor(4, 5, 5, seed=3).array.copy()
        a[0, 0, 0], a[1, 2, 3] = complex(-0.0, 0.0), complex(0.0, -0.0)
        for tensor in (CurvatureTensor(a), random_exact_factor(3, 2, 2, seed=1)):
            want = {"n": tensor.n, "r": tensor.r, "m": tensor.m,
                    "T": [[[scalar_json(z) for z in row] for row in plane]
                          for plane in tensor.array]}
            got = tensor.to_json()
            assert json.dumps(got) == json.dumps(want) and repr(got) == repr(want)
        huge = np.array([[[GaussianRational(10 ** 400)]]], object)
        with pytest.raises(InputError, match="float range"):
            CurvatureTensor(huge).to_json()

    def test_from_json_field_pointers(self):
        with pytest.raises(InputError, match="n"):
            CurvatureTensor.from_json({"r": 1, "m": 1, "T": []})
        good = random_tensor(1, 1, 1, seed=0).to_json()
        bad = dict(good, T=[[[{"re": "oops"}]]])
        with pytest.raises(InputError, match=r"T\[0\]\[0\]\[0\]"):
            CurvatureTensor.from_json(bad)
        short = dict(good, T=[[]])
        with pytest.raises(InputError, match=r"T\[0\]"):
            CurvatureTensor.from_json(short)
        with pytest.raises(InputError):
            CurvatureTensor.from_json("not an object")

    def test_factor_from_tensor_is_float_mode(self):
        a = factor_from_tensor(random_tensor(2, 2, 3, seed=1))
        assert [len(row) for row in a] == [3, 3]
        assert all(f.mode == FLOAT and f.is_homogeneous(1, 0) for row in a for f in row)

    @pytest.mark.parametrize("shape", [(2, 2, 0), (0, 2, 1), (2, 0, 1)])
    def test_empty_axis_rejected(self, shape):
        for dtype in (complex, object):
            with pytest.raises(InputError, match="n, r and m >= 1"):
                CurvatureTensor(np.zeros(shape, dtype))

    @pytest.mark.parametrize("ragged", [
        [[[1, 2]], [[1]]],              # rows of different lengths across planes
        [[[1], [1, 2]]],                # rows of different lengths within a plane
        [[[Fraction(1)]], [[Fraction(1)], [Fraction(2)]]],
    ])
    def test_ragged_nested_list_rejected(self, ragged):
        with pytest.raises(InputError, match=r"rectangular \[p\]\[i\]\[k\]"):
            CurvatureTensor(ragged)

    def test_base_dimension_is_capped(self):
        # the Gram route builds no Form, so the tensor itself enforces MAX_DIM
        cap = f"n = {MAX_DIM + 1} directions; the base dimension is at most {MAX_DIM}"
        for dtype in (complex, object):
            with pytest.raises(InputError, match=cap):
                CurvatureTensor(np.zeros((MAX_DIM + 1, 1, 1), dtype))
        with pytest.raises(InputError, match=cap):
            random_tensor(MAX_DIM + 1, 1, 1)
        assert CurvatureTensor(np.zeros((MAX_DIM, 1, 1))).n == MAX_DIM

    def test_non_numeric_entries_rejected(self):
        # numpy reads the strings as a unicode array, which has no complex view
        with pytest.raises(InputError, match="curvature tensor entries must be numbers"):
            CurvatureTensor([[["a"]]])


class TestRandomExactFactorSizes:
    """A size that is not an int, or is below 1, is refused by name before
    numpy sees it."""

    @pytest.mark.parametrize("field, sizes", [
        ("n", (-1, 2, 2)), ("r", (2, -1, 2)), ("m", (2, 2, -1)),
        ("n", (0, 2, 2)), ("m", (2, 2, 0)),
    ])
    def test_negative_or_zero_size_names_the_field(self, field, sizes):
        with pytest.raises(InputError, match=rf"random exact factor needs {field} >= 1"):
            random_exact_factor(*sizes, seed=0)

    @pytest.mark.parametrize("field, sizes", [
        ("n", (-1, 2, 2)), ("r", (2, -1, 2)), ("m", (2, 2, -1)),
    ])
    def test_random_tensor_names_the_field(self, field, sizes):
        with pytest.raises(InputError, match=rf"random tensor needs {field} >= 1"):
            random_tensor(*sizes, seed=0)

    @pytest.mark.parametrize("field, sizes", [
        ("n", (2.0, 2, 2)), ("r", (2, True, 2)), ("m", (2, 2, 1.5)),
    ])
    def test_random_tensor_refuses_non_int_sizes(self, field, sizes):
        with pytest.raises(InputError, match=rf"random tensor needs an integer {field}, "):
            random_tensor(*sizes, seed=0)


class TestExactTensor:
    """An object array is an exact tensor of ``GaussianRational`` entries."""

    def test_int_and_fraction_entries_are_coerced(self):
        t = CurvatureTensor(np.array([[[1, Fraction(1, 2)]], [[0, GaussianRational(0, -3)]]],
                                     dtype=object))
        assert t.mode == EXACT and (t.n, t.r, t.m) == (2, 1, 2)
        assert all(type(z) is GaussianRational for z in t.array.flat)
        assert t.array.tolist() == [[[GaussianRational(1), GaussianRational(Fraction(1, 2))]],
                                    [[GaussianRational(0), GaussianRational(0, -3)]]]

    @pytest.mark.parametrize("bad", [0.5, 1j, np.float64(2.0), "1"])
    def test_float_and_complex_entries_refused(self, bad):
        with pytest.raises(InputError, match="exact mode cannot absorb"):
            CurvatureTensor(np.array([[[1, bad]]], dtype=object))

    def test_mode_follows_the_array(self):
        assert random_exact_factor(2, 2, 2, seed=0).mode == EXACT
        assert random_tensor(2, 2, 2, seed=0).mode == FLOAT
        assert CurvatureTensor([[[1, 2]]]).mode == FLOAT

    def test_entries_are_exact_one_zero_forms(self):
        # the shape bench/workloads.py reads: A_ik.terms[(1 << p, 0)] = T[p, i, k]
        t = random_exact_factor(4, 3, 3, seed=501)
        a = t.entries
        for i, row in enumerate(a):
            for k, entry in enumerate(row):
                assert entry.mode == EXACT
                assert set(entry.terms) <= {(1 << p, 0) for p in range(t.n)}
                for p in range(t.n):
                    assert entry.terms.get((1 << p, 0), 0) == t.array[p, i, k]

    def test_exact_tensor_round_trips_its_float_view(self):
        exact, floats = integer_tensor_pair(2, 3, 2, seed=4)
        assert CurvatureTensor.from_json(exact.to_json()) == floats


class TestChangeFrame:
    def test_identity_keeps_everything(self, diag2):
        out = change_frame(diag2, np.eye(2, dtype=complex))
        for i in range(2):
            for j in range(2):
                assert allclose(out.entries[i][j], diag2.entries[i][j], 1e-12)
        # the factor's Chern forms still describe the moved matrix
        for got, want in zip(chern_forms(out).forms, chern_forms(diagonal_tensor(2)).forms):
            assert allclose(got.to_form(), want.to_form(), 1e-12)

    def test_scalar_frame_commutes(self):
        omega = bott_chern_curvature(CurvatureTensor([[[3.0]]]))
        out = change_frame(omega, [[GaussianRational(2, 0)]]) \
            if omega.mode == EXACT else change_frame(omega, np.array([[2.0 + 0j]]))
        assert allclose(out.entries[0][0], omega.entries[0][0], 1e-12)

    def test_unitary_frame_moves_the_factor(self):
        # for unitary P, P^-1 Omega P is the curvature of the factor conj(P)^t A
        factor = random_exact_factor(2, 3, 2, seed=7)
        p = random_signed_phase_permutation(3, seed=8)
        moved = CurvatureTensor(np.einsum("si,psk->pik", np.conj(np.array(p, object)),
                                          factor.array))
        out = change_frame(bott_chern_curvature(factor), p)
        assert out.entries == bott_chern_curvature(moved).entries

    def test_singular_frame_rejected_exact(self):
        factor = random_exact_factor(1, 2, 1, seed=2)
        omega = bott_chern_curvature(factor)
        zero = GaussianRational(0, 0)
        one = GaussianRational(1, 0)
        with pytest.raises(InputError, match="singular"):
            change_frame(omega, [[one, one], [one, one]])
        # degenerate rows
        with pytest.raises(InputError):
            change_frame(omega, [[zero, zero], [zero, zero]])

    def test_ill_conditioned_frame_rejected_float(self, diag2):
        p = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
        with pytest.raises(InputError):
            change_frame(diag2, p)

    def test_shape_mismatch_rejected(self, diag2):
        with pytest.raises(InputError):
            change_frame(diag2, np.eye(3, dtype=complex))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_chern_forms_frame_invariant_float(self, seed):
        rng = np.random.default_rng(seed)
        n, r = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        t = random_tensor(n, r, seed=seed)
        omega = bott_chern_curvature(t)
        p = random_invertible(r, seed=seed + 1)
        cs_a = chern_forms(t)
        cs_b = chern_forms(change_frame(omega, p))
        for i in range(1, min(n, r) + 1):
            assert allclose(cs_a.form(i).to_form(), cs_b.form(i).to_form(), 1e-10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_chern_forms_frame_invariant_exact(self, seed):
        rng = np.random.default_rng(seed)
        n, r = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        factor = random_exact_factor(n, r, seed=seed)
        omega = bott_chern_curvature(factor)
        p = random_signed_phase_permutation(r, seed=seed + 1)
        cs_a = chern_forms(factor)
        cs_b = chern_forms(change_frame(omega, p))
        for i in range(1, min(n, r) + 1):
            assert cs_a.form(i) == cs_b.form(i)

    @pytest.mark.parametrize("seed", range(3))
    def test_chern_forms_frame_invariant_rational_inverse(self, seed):
        # det P = 31 + i, so the entries of P^-1 Omega P have denominators
        # up to |31 + i|^2 = 962 and the Laplace route wedges non-unit
        # denominators; the Gram route on the factor sees none
        i = GaussianRational(0, 1)
        frame = [[3, 1 + i, 0], [0, 2, 1], [1, 0, 5]]
        factor = random_exact_factor(4, 3, 3, seed)
        omega = change_frame(bott_chern_curvature(factor), frame)
        assert any((c.re.denominator, c.im.denominator) != (1, 1)
                   for row in omega.entries for f in row for c in f.terms.values())
        assert chern_forms(omega).forms == chern_forms(factor).forms


class TestGriffithsValue:
    def test_unit_example(self):
        # T[0][0][0] = 1, xi = eta = e1: value is exactly 1
        t = CurvatureTensor(np.array([[[1.0]]]))
        assert griffiths_value(t, [1.0], [1.0]) == pytest.approx(1.0)

    def test_scaling(self):
        t = CurvatureTensor(np.array([[[2.0]]]))
        # |2 * xi * eta|^2 with xi = 3, eta = 1
        assert griffiths_value(t, [3.0], [1.0]) == pytest.approx(36.0)

    def test_zero_vectors(self):
        t = random_tensor(2, 2, 2, seed=3)
        assert griffiths_value(t, [0, 0], [1, 0]) == pytest.approx(0.0)

    def test_shape_validation(self):
        t = random_tensor(2, 3, 1, seed=0)
        with pytest.raises(InputError):
            griffiths_value(t, [1.0], [1.0, 0.0])  # xi needs length r=3
        with pytest.raises(InputError):
            griffiths_value(t, [1.0, 0.0, 0.0], [1.0])  # eta needs length n=2

    def test_exact_tensor_rejected(self):
        # an exact tensor is refused, not fed to numpy
        with pytest.raises(InputError, match="takes a float tensor"):
            griffiths_value(random_exact_factor(2, 2, 1, seed=0), [1, 0], [1, 0])

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_and_routes_agree(self, seed):
        rng = np.random.default_rng(seed)
        n, r, m = (int(rng.integers(1, 5)) for _ in range(3))
        t = random_tensor(n, r, m, seed=seed)
        xi = rng.normal(size=r) + 1j * rng.normal(size=r)
        eta = rng.normal(size=n) + 1j * rng.normal(size=n)
        # the sum of squares against the contraction of Omega's
        # coefficients, within the acceptance tolerance 1e-12 of the scale
        value = griffiths_value(t, xi, eta)
        contraction = griffiths_contraction(t, xi, eta)
        assert abs(contraction - value) <= 1e-12 * max(1.0, abs(contraction), value)
        assert value >= 0.0


class TestGenerators:
    def test_random_tensor_deterministic(self):
        a = random_tensor(2, 3, 2, seed=42)
        b = random_tensor(2, 3, 2, seed=42)
        assert np.array_equal(a.array, b.array)
        c = random_tensor(2, 3, 2, seed=43)
        assert not np.array_equal(a.array, c.array)

    def test_random_tensor_default_m(self):
        t = random_tensor(2, 3, seed=1)
        assert 1 <= t.m <= 4

    def test_random_unitary_is_unitary(self):
        u = random_unitary(4, seed=6)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_random_invertible_condition(self):
        p = random_invertible(4, seed=2)
        assert np.linalg.cond(p) <= 1e6

    def test_signed_phase_permutation_structure(self):
        p = random_signed_phase_permutation(4, seed=9)
        allowed = {GaussianRational(0, 0), GaussianRational(1, 0), GaussianRational(-1, 0),
                   GaussianRational(0, 1), GaussianRational(0, -1)}
        nonzero_per_row = []
        for row in p:
            nz = [c for c in row if c != 0]
            nonzero_per_row.append(len(nz))
            for c in row:
                assert c in allowed
        assert nonzero_per_row == [1, 1, 1, 1]

    def test_exact_factor_entries_are_gaussian_integers(self):
        f = random_exact_factor(2, 2, 2, seed=3)
        for row in f.entries:
            for entry in row:
                for c in entry.terms.values():
                    assert c.re.denominator == 1 and c.im.denominator == 1
                    assert abs(c.re) <= 2 and abs(c.im) <= 2


def _bench_view(tensor) -> list:
    """(n, r, m) and every (p, i, k, re, im) read off ``tensor.entries``, the
    way bench/workloads.py reads an exact-build instance."""
    cells = []
    for i, row in enumerate(tensor.entries):
        for k, entry in enumerate(row):
            for p in range(tensor.n):
                c = entry.terms.get((1 << p, 0))
                if c is not None:
                    cells.append([p, i, k, int(c.re), int(c.im)])
    return [tensor.n, tensor.r, tensor.m, sorted(cells)]


@pytest.mark.parametrize("cases,digest", [
    # the exact-build pool of the benchmark
    ([(4, 3, 3, seed) for seed in range(501, 507)],
     "ee30673e8c74c8585296407ef5f17ab06023f279a655bef04ae1e9cc945b9fc9"),
    # every n, r <= 4 with m drawn, seeds 0-2
    ([(n, r, None, seed) for n in range(1, 5) for r in range(1, 5) for seed in range(3)],
     "9f9ee3226de489538228c5afd78cfa4fc073eabb218851650d5eadacf28952bd"),
], ids=["exact-build-pool", "grid"])
def test_exact_factor_draws_are_pinned(cases, digest):
    # pinned from the factor matrices random_exact_factor built before it
    # returned a tensor: the draws, and so the benchmark's input, must not move
    views = [_bench_view(random_exact_factor(n, r, m, seed=seed)) for n, r, m, seed in cases]
    assert hashlib.sha256(json.dumps(views).encode()).hexdigest() == digest
