"""Cohomology models: Chern numbers against a binomial oracle, bound chains
with exact integers, the Todd class against classical closed forms, and
twisted Euler characteristics against a monomial-count oracle.
"""

import itertools
import math
from fractions import Fraction

import pytest

from chernforms import (
    CATALOG,
    ModelManifold,
    Partition,
    Polynomial,
    chern_number,
    complex_torus,
    euler_characteristic,
    kodaira_leading,
    line_class,
    parse_model,
    partitions,
    product,
    projective_space,
    rr_polynomial,
    todd_class,
    todd_polynomials,
    todd_series,
    verify_number_bounds,
)
from chernforms.errors import ConsistencyError, InputError
from chernforms.models import degree_part, evaluate_rr_polynomial
from chernforms.schur import chern_variable


# ----------------------------------------------------------------------
# independent oracles


def binomial_chern_number(n, lam):
    """c_lambda[CP^n] = prod_j C(n+1, lambda_j): each tangent Chern class of
    projective space is C(n+1, i) x^i, and x^n integrates to 1."""
    out = 1
    for part in lam:
        if part:
            out *= math.comb(n + 1, part)
    return out


def dict_poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def product_chern_number(dims, lam):
    """c_lambda of a product of projective spaces by plain dict polynomials:
    expand prod_j (1 + x_j)^(k_j + 1), split by degree, multiply the classes
    named by lambda, and read the coefficient of prod x_j^{k_j}."""
    s = len(dims)
    one = {(0,) * s: 1}
    total = dict(one)
    for j, k in enumerate(dims):
        lin = {(0,) * s: 1, tuple(1 if a == j else 0 for a in range(s)): 1}
        for _ in range(k + 1):
            total = dict_poly_mul(total, lin)
    by_degree = {}
    for exps, coeff in total.items():
        by_degree.setdefault(sum(exps), {})[exps] = coeff
    prod_elem = dict(one)
    for part in lam:
        if part:
            prod_elem = dict_poly_mul(prod_elem, by_degree.get(part, {}))
    return prod_elem.get(tuple(dims), 0)


def chi_projective_oracle(n, m):
    """chi(CP^n, O(m)) by counting monomials: h^0 = C(m+n, n) for m >= 0 and
    the only other cohomology is h^n = C(-m-1, n) for m <= -n-1."""
    if m >= 0:
        return math.comb(m + n, n)
    s = -m - n - 1
    if s < 0:
        return 0
    return (-1) ** n * math.comb(s + n, n)


# frozen classical closed forms for the Todd polynomials
def todd_closed_forms(r):
    c = lambda d: chern_variable(d, r)
    return (
        Polynomial.one(r),
        Fraction(1, 2) * c(1),
        Fraction(1, 12) * (c(1) ** 2 + c(2)),
        Fraction(1, 24) * c(1) * c(2),
        Fraction(-1, 720) * (c(1) ** 4 - 4 * c(1) ** 2 * c(2)
                             - 3 * c(2) ** 2 - c(1) * c(3) + c(4)),
    )


# x / (1 - e^-x) = sum B_k^+ x^k / k!: literature coefficients
TODD_SERIES_LITERATURE = [
    Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
    Fraction(-1, 720), Fraction(0), Fraction(1, 30240),
]


# ----------------------------------------------------------------------


class TestRingElement:
    def test_cap_truncation(self):
        cp1 = projective_space(1)
        x = cp1.generator(1)
        assert (x * x).terms == {}
        cp2 = projective_space(2)
        y = cp2.generator(1)
        assert (y * y).terms != {}
        assert (y * y * y).terms == {}

    def test_cross_model_rejected(self):
        a = projective_space(1).generator(1)
        b = projective_space(2).generator(1)
        with pytest.raises(InputError):
            a + b

    def test_scalar_arithmetic(self):
        x = projective_space(2).generator(1)
        e = 2 * x + x * Fraction(1, 2)
        assert e.terms == {(1,): Fraction(5, 2)}
        assert (x - x).terms == {}
        assert (1 + x) ** 2 == 1 + 2 * x + x * x

    def test_degree_part(self):
        cp2 = projective_space(2)
        e = (1 + cp2.generator(1)) ** 3
        assert degree_part(e, 0) == cp2.one()
        assert degree_part(e, 1) == 3 * cp2.generator(1)


class TestModelStructure:
    def test_labels_and_dims(self):
        assert projective_space(3).label == "CP3"
        assert complex_torus(2).label == "T2"
        m = product(projective_space(1), projective_space(2))
        assert m.label == "CP1xCP2" and m.dim == 3
        assert ModelManifold(()).label == "pt" and ModelManifold(()).dim == 0

    def test_product_with_point_is_identity(self):
        m = product(projective_space(2), ModelManifold(()))
        assert m == projective_space(2)

    def test_parse_model(self):
        assert parse_model("CP3") == projective_space(3)
        assert parse_model("T1xCP1") == product(complex_torus(1), projective_space(1))
        assert parse_model("CP1 x CP2") == product(projective_space(1), projective_space(2))
        for bad in ("", "CP0", "Txyz", "CP1x", "P2", "pt"):
            with pytest.raises(InputError):
                parse_model(bad)

    def test_invalid_factors(self):
        with pytest.raises(InputError):
            projective_space(0)
        with pytest.raises(InputError):
            complex_torus(-1)
        with pytest.raises(InputError):
            ModelManifold((("XX", 1),))

    @pytest.mark.parametrize("kind", ["CP", "T"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_factor_dimension_refused(self, kind, flag):
        # True is an int to Python and would build "CPTrue" of dimension 1
        with pytest.raises(InputError, match="bad model factor"):
            ModelManifold(((kind, flag),))

    def test_bool_space_dimension_refused(self):
        with pytest.raises(InputError, match="projective space"):
            projective_space(True)
        with pytest.raises(InputError, match="complex torus"):
            complex_torus(True)

    def test_global_generation_flags(self):
        assert projective_space(2).globally_generated_tangent
        assert not projective_space(2).globally_generated_cotangent
        assert complex_torus(2).globally_generated_cotangent
        assert not product(complex_torus(1), projective_space(1)).globally_generated_cotangent

    def test_torus_kills_integrals(self):
        m = product(complex_torus(1), projective_space(1))
        assert m.integral(m.chern_class(1)) == 0
        assert m.integral(m.one()) == 0


class TestChernClasses:
    def test_cp1_tangent(self):
        cp1 = projective_space(1)
        assert cp1.chern_class(1) == 2 * cp1.generator(1)

    def test_cp2_tangent(self):
        cp2 = projective_space(2)
        x = cp2.generator(1)
        assert cp2.chern_class(1) == 3 * x
        assert cp2.chern_class(2) == 3 * x * x

    def test_out_of_range_classes_vanish(self):
        cp2 = projective_space(2)
        assert cp2.chern_class(3).terms == {}
        assert cp2.chern_class(-1).terms == {}

    def test_dual_classes_alternate_sign(self):
        m = product(projective_space(1), projective_space(2))
        for i in range(4):
            want = m.chern_class(i) * ((-1) ** i)
            assert m.dual_chern_class(i) == want

    def test_torus_classes_vanish(self):
        t2 = complex_torus(2)
        assert t2.chern_class(1).terms == {}
        assert t2.chern_class(2).terms == {}
        # c_0 = 1 even so
        assert t2.chern_class(0) == t2.one()


class TestChernNumbers:
    def test_binomial_oracle_on_projective_spaces(self):
        for n in range(1, 5):
            m = projective_space(n)
            for lam in partitions(n, n):
                assert chern_number(m, lam) == binomial_chern_number(n, lam.parts), \
                    (n, lam.parts)

    def test_frozen_cp3(self):
        cp3 = projective_space(3)
        assert chern_number(cp3, (3,)) == 4
        assert chern_number(cp3, (2, 1)) == 24
        assert chern_number(cp3, (1, 1, 1)) == 64

    def test_products_match_dict_oracle(self):
        cases = [
            ([1, 1], product(projective_space(1), projective_space(1))),
            ([1, 2], product(projective_space(1), projective_space(2))),
            ([1, 1, 1], product(projective_space(1), projective_space(1),
                                projective_space(1))),
            ([2, 2], product(projective_space(2), projective_space(2))),
        ]
        for dims, model in cases:
            n = sum(dims)
            for lam in partitions(n, n):
                assert chern_number(model, lam) == product_chern_number(dims, lam.parts), \
                    (dims, lam.parts)

    def test_frozen_products(self):
        m = product(projective_space(1), projective_space(1))
        assert chern_number(m, (2, 0)) == 4
        assert chern_number(m, (1, 1)) == 8
        m2 = product(projective_space(1), projective_space(2))
        assert chern_number(m2, (3, 0, 0)) == 6
        assert chern_number(m2, (2, 1, 0)) == 24
        assert chern_number(m2, (1, 1, 1)) == 54

    def test_torus_numbers_vanish(self):
        for m in (complex_torus(1), complex_torus(2),
                  product(complex_torus(1), complex_torus(1)),
                  product(complex_torus(1), projective_space(1))):
            for lam in partitions(m.dim, m.dim):
                assert chern_number(m, lam) == 0

    def test_weight_must_match_dimension(self):
        with pytest.raises(InputError):
            chern_number(projective_space(2), (1,))

    def test_signed_numbers(self):
        # cotangent classes flip odd degrees: on CP1, dual c_1 number is -2
        assert chern_number(projective_space(1), (1,), dual=True) == -2
        assert chern_number(projective_space(2), (1, 1), dual=True) == 9


class TestNumberBounds:
    def test_projective_catalog_passes(self):
        for n in range(1, 5):
            rep = verify_number_bounds(projective_space(n))
            assert rep.passed and not rep.all_zero
            assert rep.dim == n

    def test_product_models_pass(self):
        for m in (product(projective_space(1), projective_space(1)),
                  product(projective_space(1), projective_space(2)),
                  product(projective_space(1), projective_space(1), projective_space(1))):
            assert verify_number_bounds(m).passed

    def test_chain_order_on_cp3(self):
        rep = verify_number_bounds(projective_space(3))
        values = dict(rep.numbers)
        assert values[(3, 0, 0)] == 4
        assert values[(1, 1, 1)] == 64
        assert all(4 <= v <= 64 for v in values.values())

    def test_torus_all_zero_propagation(self):
        for m in (complex_torus(1), complex_torus(2),
                  product(complex_torus(1), complex_torus(1)),
                  product(complex_torus(1), projective_space(1))):
            rep = verify_number_bounds(m)
            assert rep.passed and rep.all_zero
            assert all(v == 0 for _, v in rep.numbers)

    def test_signed_requires_cotangent_generation(self):
        with pytest.raises(InputError, match="cotangent"):
            verify_number_bounds(projective_space(2), signed=True)
        with pytest.raises(InputError, match="cotangent"):
            verify_number_bounds(product(complex_torus(1), projective_space(1)), signed=True)

    def test_signed_torus_passes(self):
        for m in (complex_torus(1), complex_torus(2),
                  product(complex_torus(1), complex_torus(1))):
            rep = verify_number_bounds(m, signed=True)
            assert rep.passed and rep.all_zero and rep.signed

    def test_report_shape(self):
        d = verify_number_bounds(projective_space(2)).to_dict()
        assert d["schema"] == 1 and d["kind"] == "model-bounds"
        assert d["verdict"] == "PASS"
        assert d["numbers"][0] == {"partition": [2, 0], "value": 3}


class TestTodd:
    def test_series_against_literature(self):
        assert todd_series(6) == TODD_SERIES_LITERATURE

    def test_polynomials_against_closed_forms(self):
        got = todd_polynomials(4)
        want = todd_closed_forms(4)
        for i in range(5):
            assert got[i] == want[i], f"td_{i}"

    def test_cp1_todd_class(self):
        cp1 = projective_space(1)
        assert todd_class(cp1) == 1 + cp1.generator(1)

    def test_todd_by_root_power(self):
        # on CP^n the tangent roots are n+1 copies of x, so Td must equal the
        # one-variable series raised to the (n+1)-st power, truncated
        for n in range(1, 5):
            m = projective_space(n)
            series = TODD_SERIES_LITERATURE
            poly = {(0,): Fraction(1)}
            one_term = {(k,): series[k] for k in range(n + 1)}
            for _ in range(n + 1):
                poly = dict_poly_mul(poly, one_term)
            want = Polynomial(1, {e: c for e, c in poly.items() if e[0] <= n}, (n,))
            assert todd_class(m) == want

    def test_todd_multiplicativity(self):
        # Td(M x N) = Td(M) Td(N); on a product of projective spaces both
        # sides live in the same ring so this is directly checkable
        m = product(projective_space(1), projective_space(2))
        td = todd_class(m)
        x1, x2 = m.generator(1), m.generator(2)
        td_cp1 = 1 + x1
        # Td(CP2) = 1 + (3/2) x + x^2
        td_cp2 = 1 + Fraction(3, 2) * x2 + x2 * x2
        assert td == td_cp1 * td_cp2


class TestRiemannRoch:
    def test_chi_projective_oracle(self):
        for n in range(1, 4):
            m = projective_space(n)
            hyper = line_class(m, "O(1)")
            for twist in range(-5, 6):
                assert euler_characteristic(m, hyper, twist) == \
                    chi_projective_oracle(n, twist), (n, twist)

    def test_frozen_chi_values(self):
        cp1 = projective_space(1)
        assert euler_characteristic(cp1, line_class(cp1, "O(1)"), 3) == 4
        assert euler_characteristic(cp1, line_class(cp1, "K"), 3) == -5
        cp2 = projective_space(2)
        for m in range(-6, 7):
            # the single quadratic (m+1)(m+2)/2 covers every twist, negative
            # twists included, by duality
            assert euler_characteristic(cp2, line_class(cp2, "O(1)"), m) == \
                ((m + 1) * (m + 2)) // 2

    def test_chi_of_structure_sheaf(self):
        # arithmetic genus 0: chi(O) = 1 on projective products, 0 with any
        # torus factor
        for model in CATALOG:
            chi = euler_characteristic(model, line_class(model, "O"), 1)
            expected = 0 if model.torus_dim else 1
            assert chi == expected, model.label

    def test_rr_polynomial_cp1(self):
        cp1 = projective_space(1)
        assert rr_polynomial(cp1, line_class(cp1, "O(1)")) == (Fraction(1), Fraction(1))
        assert rr_polynomial(cp1, line_class(cp1, "K")) == (Fraction(1), Fraction(-2))

    def test_rr_polynomial_torus_is_zero(self):
        t1 = complex_torus(1)
        assert rr_polynomial(t1, line_class(t1, "K")) == (Fraction(0), Fraction(0))

    def test_integrality_sweep(self):
        for model in CATALOG:
            lines = ["K", "O"]
            if model.proj_dims:
                lines.append("O(" + ",".join("1" for _ in model.proj_dims) + ")")
                lines.append("O(" + ",".join(str(d + 1) for d in range(len(model.proj_dims))) + ")")
            for spec in lines:
                ell = line_class(model, spec)
                for twist in range(-4, 5):
                    euler_characteristic(model, ell, twist)  # raises if non-integral

    def test_non_integer_twist_rejected(self):
        cp1 = projective_space(1)
        with pytest.raises(InputError):
            euler_characteristic(cp1, line_class(cp1, "O(1)"), 1.5)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_twist_rejected(self, flag):
        # True is an int to Python and would read as m = 1
        cp1 = projective_space(1)
        ell = line_class(cp1, "O(1)")
        with pytest.raises(InputError, match="twisting power"):
            euler_characteristic(cp1, ell, flag)
        with pytest.raises(InputError, match="twisting power"):
            evaluate_rr_polynomial(cp1, rr_polynomial(cp1, ell), flag)

    def test_shared_check_refuses_non_integral_values(self):
        cp1 = projective_space(1)
        # m/2 is integral at even m only; the check runs per twist
        coeffs = (Fraction(0), Fraction(1, 2))
        assert evaluate_rr_polynomial(cp1, coeffs, 4) == 2
        for m in (1, -3):
            with pytest.raises(ConsistencyError, match=r"chi\(CP1\) = .* not an integer"):
                evaluate_rr_polynomial(cp1, coeffs, m)
        with pytest.raises(ConsistencyError):
            evaluate_rr_polynomial(cp1, (Fraction(1, 3),), 0)

    def test_line_class_validation(self):
        cp2 = projective_space(2)
        assert line_class(cp2, "K") == -cp2.chern_class(1)
        assert line_class(cp2, "O").terms == {}
        assert line_class(cp2, "O(2)") == 2 * cp2.generator(1)
        with pytest.raises(InputError):
            line_class(cp2, "O(1,2)")  # one factor, two degrees
        with pytest.raises(InputError):
            line_class(cp2, "Q(1)")
        m = product(projective_space(1), projective_space(1))
        assert line_class(m, "O(1,-2)") == m.generator(1) - 2 * m.generator(2)

    def test_kodaira_leading_frozen(self):
        assert kodaira_leading(projective_space(1)) == -2
        assert kodaira_leading(projective_space(2)) == Fraction(9, 2)
        assert kodaira_leading(projective_space(3)) == Fraction(-32, 3)
        assert kodaira_leading(complex_torus(2)) == 0

    def test_kodaira_leading_is_rr_leading_coefficient(self):
        for model in CATALOG:
            poly = rr_polynomial(model, line_class(model, "K"))
            assert poly[model.dim] == kodaira_leading(model), model.label
