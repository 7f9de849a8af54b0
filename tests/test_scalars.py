"""Exact Gaussian-rational scalars and the two-mode coercion rules."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chernforms.errors import InputError
from chernforms.scalars import (
    EXACT,
    FLOAT,
    I_EXACT,
    GaussianRational,
    check_same_mode,
    coerce,
    exact_fields,
    parse_scalar,
    scalar_json,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
gaussians = st.builds(GaussianRational, rationals, rationals)


class TestGaussianRational:
    def test_construction_and_parts(self):
        z = GaussianRational(Fraction(1, 2), 3)
        assert z.re == Fraction(1, 2)
        assert z.im == Fraction(3)

    def test_rejects_float_parts(self):
        with pytest.raises(InputError):
            GaussianRational(0.5, 0)
        with pytest.raises(InputError):
            GaussianRational(0, 1.25)

    def test_string_parts_parse_exactly(self):
        assert GaussianRational("0.5", "1/3") == GaussianRational(Fraction(1, 2), Fraction(1, 3))

    def test_i_squares_to_minus_one(self):
        assert I_EXACT * I_EXACT == -1

    def test_arithmetic(self):
        a = GaussianRational(1, 2)
        b = GaussianRational(3, -1)
        assert a + b == GaussianRational(4, 1)
        assert a - b == GaussianRational(-2, 3)
        # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
        assert a * b == GaussianRational(5, 5)
        assert (a * b) / b == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1, 0) / GaussianRational(0, 0)

    def test_power(self):
        z = GaussianRational(1, 1)
        assert z ** 2 == GaussianRational(0, 2)
        assert z ** 0 == 1
        assert I_EXACT ** 4 == 1

    def test_conjugate(self):
        assert GaussianRational(2, 5).conjugate() == GaussianRational(2, -5)

    def test_mixing_with_complex_is_rejected(self):
        with pytest.raises(TypeError):
            GaussianRational(1, 0) + (1 + 0j)
        with pytest.raises(TypeError):
            GaussianRational(1, 0) * 0.5

    def test_int_and_fraction_mix_freely(self):
        z = GaussianRational(1, 1)
        assert z + 1 == GaussianRational(2, 1)
        assert z * Fraction(1, 2) == GaussianRational(Fraction(1, 2), Fraction(1, 2))

    def test_complex_and_abs(self):
        z = GaussianRational(3, -4)
        assert complex(z) == 3 - 4j
        assert abs(z) == pytest.approx(5.0)

    def test_from_complex(self):
        z = GaussianRational.from_complex(1.5 - 2j)
        assert z == GaussianRational(Fraction(3, 2), -2)

    @given(gaussians, gaussians, gaussians)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a

    @given(gaussians, gaussians)
    def test_conjugate_is_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(gaussians)
    def test_division_inverts_multiplication(self, a):
        if a == 0:
            return
        assert (a * a) / a == a
        assert a / a == 1


class TestCoercion:
    def test_exact_mode_accepts_exact_values(self):
        assert coerce(3, EXACT) == 3
        assert coerce(Fraction(1, 3), EXACT) == Fraction(1, 3)
        assert coerce(GaussianRational(1, 2), EXACT) == GaussianRational(1, 2)

    def test_exact_mode_rejects_floats(self):
        with pytest.raises(InputError):
            coerce(0.5, EXACT)
        with pytest.raises(InputError):
            coerce(1 + 2j, EXACT)

    def test_float_mode_rejects_exact_scalars(self):
        with pytest.raises(InputError):
            coerce(GaussianRational(1, 0), FLOAT)

    def test_float_mode_accepts_numbers(self):
        assert coerce(2, FLOAT) == (2 + 0j)
        assert coerce(1.5 - 1j, FLOAT) == (1.5 - 1j)
        assert isinstance(coerce(Fraction(1, 2), FLOAT), complex)

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            coerce(1, "symbolic")

    def test_check_same_mode(self):
        check_same_mode(EXACT, EXACT)
        with pytest.raises(InputError):
            check_same_mode(EXACT, FLOAT)

    def test_helpers(self):
        # both modes speak the number protocol: not, complex() and abs()
        assert not GaussianRational(0, 0)
        assert GaussianRational(0, 1)
        assert complex(GaussianRational(1, 1)) == 1 + 1j
        assert abs(GaussianRational(0, -2)) == pytest.approx(2.0)
        assert abs(3 - 4j) == pytest.approx(5.0)

    def test_scalar_json(self):
        assert scalar_json(GaussianRational(Fraction(1, 2), -3)) == {"re": 0.5, "im": -3.0}
        assert scalar_json(1.5 - 0j) == {"re": 1.5, "im": -0.0}
        with pytest.raises(InputError, match="float range"):
            scalar_json(GaussianRational(10 ** 400))

    def test_parse_scalar_float_range(self):
        # 2^1024 - 2^970 rounds up to 2^1024, the first int beyond the float range
        edge = 2 ** 1024 - 2 ** 970
        assert parse_scalar({"re": edge - 1, "im": -1}, FLOAT, "x") == complex(edge - 1, -1)
        for part in ("re", "im"):
            with pytest.raises(InputError, match=rf"^cell\.{part}: .*float range"):
                parse_scalar({part: -edge}, FLOAT, "cell")
            assert parse_scalar({part: edge}, EXACT, "cell") == \
                GaussianRational(**{part: edge})

    def test_exact_fields(self):
        assert exact_fields(-7) == (-7, 0, 1)
        assert exact_fields(Fraction(6, 4)) == (3, 0, 2)
        assert exact_fields(GaussianRational(Fraction(1, 2), Fraction(1, 3))) == (3, 2, 6)
        with pytest.raises(InputError):
            exact_fields(0.5)
