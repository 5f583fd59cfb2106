"""Number field arithmetic: exact inverses, powers, contract screening."""

import time
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlab.numfield import (
    FieldPresentationError,
    NumberField,
    _divisors,
    _has_rational_root,
    power_products,
)
from mixlab.ring import DomainError
from mixlab.systems import box_points


def ref_has_rational_root(coeffs):
    """The rational root theorem with divisors found by trial division of
    every k up to the constant term and the leading coefficient."""
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    if ints[0] == 0:
        return True
    c0, cn = abs(ints[0]), abs(ints[-1])
    ps = [k for k in range(1, c0 + 1) if c0 % k == 0]
    qs = [k for k in range(1, cn + 1) if cn % k == 0]
    return any(sum(c * r ** i for i, c in enumerate(ints)) == 0
               for p in ps for q in qs for r in (Fraction(p, q), Fraction(-p, q)))


@pytest.fixture(scope="module")
def sqrt2():
    return NumberField([-2, 0, 1])  # x^2 - 2


@pytest.fixture(scope="module")
def rationals():
    return NumberField([-1, 1])  # degree 1: plain Q


rational_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)

QQ = NumberField([-1, 1])
SQRT2 = NumberField([-2, 0, 1])
# Units of infinite order (power-basis coordinates) for ranges near 0.
UNITS = {QQ: [[2], [Fraction(-1, 3)], [Fraction(3, 2)]],
         SQRT2: [[1, 1], [0, 1], [Fraction(1, 2), -1]]}


@st.composite
def units_and_box(draw):
    """A field, 0-3 units and one (lo, hi) range per unit: ranges near 0
    (lo < 0, lo = hi, lo > 0) take a unit of infinite order, and ranges near
    -10^6 take -1, whose powers stay small."""
    field = draw(st.sampled_from([QQ, SQRT2]))
    units, box = [], []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            units.append(field.element(draw(st.sampled_from(UNITS[field]))))
            lo = draw(st.integers(-4, 4))
        else:
            units.append(field.from_rational(-1))
            lo = draw(st.integers(-10 ** 6, -10 ** 6 + 3))
        box.append((lo, lo + draw(st.integers(0, 3))))
    return field, units, box


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5000),
           st.lists(st.fractions(min_value=-60, max_value=60, max_denominator=12),
                    min_size=2, max_size=5))
    def test_rational_root_screen_matches_trial_division(self, n, coeffs):
        assert _divisors(n) == [k for k in range(1, n + 1) if n % k == 0]
        assert _has_rational_root(coeffs) == ref_has_rational_root(coeffs)

    def test_rational_root_screen_near_the_cap(self):
        # Constants near the 10^9 cap: the divisors come from k <= sqrt(c),
        # not from trial division of every k up to c.
        start = time.perf_counter()
        field = NumberField([735134400, 1, 0, 1])  # x^3 + x + 735134400
        assert time.perf_counter() - start < 0.5
        assert field.degree == 3
        with pytest.raises(FieldPresentationError):
            NumberField([-31622 ** 2, 0, 1])  # (x - 31622)(x + 31622)

    def test_degree_one_is_q(self, rationals):
        assert rationals.degree == 1
        assert rationals.from_rational(Fraction(3, 7)).coeffs == (Fraction(3, 7),)


class TestArithmetic:
    def test_generator_squares_to_two(self, sqrt2):
        g = sqrt2.element([0, 1])
        assert g * g == sqrt2.from_rational(2)

    def test_inverse_of_generator(self, sqrt2):
        g = sqrt2.element([0, 1])
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
        table = power_products(sqrt2, [a], [(lo, hi)])
        assert list(table) == [(k,) for k in range(lo, hi + 1)]
        for (k,), value in table.items():
            assert value == a ** k and value.coeffs == (a ** k).coeffs

    @settings(max_examples=60, deadline=None)
    @given(units_and_box())
    def test_power_products_match_pow(self, drawn):
        field, units, box = drawn
        table = power_products(field, units, box)
        expected = [(e, reduce(mul, [a ** k for a, k in zip(units, e)], field.one))
                    for e in box_points(box)]
        assert list(table.items()) == expected

    def test_power_products_refuse_a_box_of_the_wrong_length(self, sqrt2):
        a = sqrt2.element([1, 1])
        for units, box in (([a], [(0, 1), (0, 1)]), ([a, a], [(0, 1)]), ([], [(0, 0)])):
            with pytest.raises(DomainError, match=f"^a box of {len(box)} ranges for "
                                                  f"{len(units)} units$"):
                power_products(sqrt2, units, box)

    def test_field_mul_alias(self, sqrt2):
        g = sqrt2.element([0, 1])
        assert sqrt2.mul(g, g) == sqrt2.from_rational(2)

