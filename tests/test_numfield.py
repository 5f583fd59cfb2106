"""Number field arithmetic: exact inverses, powers, contract screening."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlab.numfield import FieldPresentationError, NumberField, power_table


@pytest.fixture(scope="module")
def sqrt2():
    return NumberField([-2, 0, 1])  # x^2 - 2


@pytest.fixture(scope="module")
def rationals():
    return NumberField([-1, 1])  # degree 1: plain Q


rational_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)


class TestConstruction:
    def test_modulus_must_be_monic(self):
        with pytest.raises(FieldPresentationError):
            NumberField([1, 2])

    def test_constant_modulus_rejected(self):
        with pytest.raises(FieldPresentationError):
            NumberField([5])

    def test_rational_root_screen(self):
        with pytest.raises(FieldPresentationError):
            NumberField([-1, 0, 1])  # x^2 - 1 = (x-1)(x+1)

    def test_degree_one_is_q(self, rationals):
        assert rationals.degree == 1
        assert rationals.from_rational(Fraction(3, 7)).coeffs == (Fraction(3, 7),)


class TestArithmetic:
    def test_generator_squares_to_two(self, sqrt2):
        g = sqrt2.gen
        assert g * g == sqrt2.from_rational(2)

    def test_inverse_of_generator(self, sqrt2):
        g = sqrt2.gen
        assert g * sqrt2.inv(g) == sqrt2.one
        assert sqrt2.inv(g) == sqrt2.element([0, Fraction(1, 2)])

    @given(a=rational_coeffs, b=rational_coeffs)
    @settings(max_examples=50)
    def test_inverse_roundtrip(self, sqrt2, a, b):
        x = sqrt2.element([a, b])
        if x.is_zero():
            return
        assert x * x.inv() == sqrt2.one

    def test_inverse_of_zero(self, sqrt2):
        with pytest.raises(ZeroDivisionError):
            sqrt2.zero.inv()

    def test_reducible_modulus_detected_at_inversion(self):
        # x^2 + 2x + 1 = (x+1)^2 has no rational root screen escape... it does
        # have the root -1, so construct a genuinely reducible escapee instead:
        # x^4 + 2x^2 + 1 = (x^2+1)^2 has no rational roots.
        K = NumberField([1, 0, 2, 0, 1])
        x2_plus_1 = K.element([1, 0, 1])
        with pytest.raises(FieldPresentationError):
            x2_plus_1.inv()

    def test_signed_powers(self, rationals):
        two = rationals.from_rational(2)
        assert two ** -3 == rationals.from_rational(Fraction(1, 8))

    @pytest.mark.parametrize("lo, hi", [(-4, 3), (0, 5), (2, 4), (-3, -1), (0, 0)])
    def test_power_table_matches_pow(self, sqrt2, lo, hi):
        a = sqrt2.element([1, 1])  # 1 + sqrt(2), a unit of infinite order
        table = power_table(a, lo, hi)
        assert set(range(lo, hi + 1)) | {0} <= set(table)
        for k, value in table.items():
            assert value == a ** k and value.coeffs == (a ** k).coeffs

    def test_field_mul_alias(self, sqrt2):
        g = sqrt2.gen
        assert sqrt2.mul(g, g) == sqrt2.from_rational(2)

