"""Laurent polynomial arithmetic over F_p, integer exponents, and parsing."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixlab.ideals import _dilated
from mixlab.ring import GF, Domain, DomainError, LaurentPoly, ParseError, expvec, rational

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def poly(text, d=2, dom=F5):
    return LaurentPoly.parse(text, d, dom)


small_exponents = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def laurent_polys(draw, dom=F5):
    terms = draw(
        st.dictionaries(small_exponents, st.integers(-9, 9), min_size=0, max_size=5)
    )
    return LaurentPoly(2, dom, terms)


class TestBasics:
    def test_zero_has_no_terms(self):
        assert LaurentPoly.zero(3, F5).is_zero()
        assert not LaurentPoly.one(3, F5).is_zero()

    def test_coefficients_reduce_mod_p(self):
        f = LaurentPoly(1, F2, {(0,): 2})
        assert f.is_zero()

    def test_duplicate_exponents_rejected(self):
        # ("1/1",) and (1,) are distinct dict keys that normalize to the same
        # exponent vector; the constructor must notice the collision.
        with pytest.raises(DomainError):
            LaurentPoly(1, F5, {("1/1",): 1, (1,): 2})

    def test_fractional_exponent_refused_at_construction(self):
        for exps in ([Fraction(1, 2)], ["1/2"], [Fraction(-3, 4)]):
            with pytest.raises(DomainError, match="non-integral exponent"):
                LaurentPoly.monomial(1, F5, exps)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            poly("u1", d=1) + poly("u1", d=2)
        with pytest.raises(DomainError, match=r"^domain mismatch: GF\(5\) vs GF\(3\)$"):
            poly("u1") + poly("u1", dom=F3)

    def test_expvec_normalizes_strings(self):
        assert expvec(["1/2", 3]) == (Fraction(1, 2), Fraction(3))


class TestExponentTypes:
    def test_integral_exponents_are_ints(self):
        v = expvec([3, "4/2", Fraction(3), "-6/3", Fraction(0), True])
        assert v == (3, 2, 3, -2, 0, 1)
        assert all(type(e) is int for e in v)
        for m in poly("u1^4/2 * u2^-3 + u1^2/2").terms:
            assert all(type(e) is int for e in m)

    @given(st.text(alphabet="0123456789_ +-./e\t", max_size=6))
    @settings(max_examples=400, deadline=None)
    @example("1_0")
    @example(" 1")
    @example("1.0")
    @example("1__0")
    def test_strings_read_as_fraction_reads_them(self, text):
        # int() is tried first; where it accepts a string it must agree
        # with Fraction(), and where it refuses, Fraction() decides.
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError) as e:
            with pytest.raises(type(e)):
                rational(text)
            return
        got = rational(text)
        assert got == expected
        assert type(got) is (int if expected.denominator == 1 else Fraction)

    def test_fractional_exponents_stay_fractions(self):
        # Group elements (shape points) may have rational coordinates.
        v = expvec(["1/2", Fraction(-3, 4), "6/4"])
        assert v == (Fraction(1, 2), Fraction(-3, 4), Fraction(3, 2))
        assert all(type(e) is Fraction for e in v)

    def test_int_and_fraction_built_polys_agree(self):
        f = LaurentPoly.monomial(2, F3, [3, -1], 2)
        g = LaurentPoly.monomial(2, F3, [Fraction(3), Fraction(-1)], 2)
        assert f == g
        assert hash(f) == hash(g)
        assert f.to_text() == g.to_text() == "2 * u1^3 * u2^-1"
        assert {f, g} == {f}


class TestArithmetic:
    @given(laurent_polys(), laurent_polys())
    def test_addition_commutes(self, f, g):
        assert f + g == g + f

    @given(laurent_polys(), laurent_polys())
    @settings(max_examples=50)
    def test_multiplication_commutes(self, f, g):
        assert f * g == g * f

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    @settings(max_examples=40)
    def test_distributivity(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(laurent_polys())
    def test_additive_inverse(self, f):
        assert (f - f).is_zero()


class TestPrimeField:
    def test_one_domain_per_prime(self):
        assert GF(2**31 - 1) is GF(2**31 - 1)
        # A Domain built apart from GF is the same field by value.
        assert Domain(5) == F5 and hash(Domain(5)) == hash(F5)
        assert Domain(5) != F3 and Domain(5) != 5
        assert poly("u1", dom=Domain(5)) + poly("u2") == poly("u1 + u2")

    def test_composite_rejected_every_time(self):
        for _ in range(2):
            with pytest.raises(DomainError):
                GF(4)


class TestFrobenius:
    # The membership ladder's f^[p] (every exponent times p) is f^p over F_p.
    @given(laurent_polys(dom=F2))
    @settings(max_examples=40)
    def test_frobenius_agrees_with_power_char2(self, f):
        twice = _dilated(_dilated(f.terms, 2, (0, 0)), 2, (0, 0))
        assert LaurentPoly(2, F2, twice) == f * f * f * f

    @given(laurent_polys(dom=F3))
    @settings(max_examples=30)
    def test_frobenius_agrees_with_power_char3(self, f):
        assert LaurentPoly(2, F3, _dilated(f.terms, 3, (0, 0))) == f * f * f


class TestText:
    @given(laurent_polys())
    @settings(max_examples=60)
    def test_parse_roundtrip(self, f):
        assert LaurentPoly.parse(f.to_text(), 2, F5) == f

    def test_canonical_ordering(self):
        assert poly("u2 + u1").to_text() == poly("u1 + u2").to_text() == "u1 + u2"

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as e:
            LaurentPoly.parse("u1 + @", 2, F5)
        assert e.value.pos == 5

    def test_parse_rejects_out_of_range_variable(self):
        with pytest.raises(ParseError):
            LaurentPoly.parse("u3", 2, F5)

    def test_multidigit_tokens(self):
        f = LaurentPoly.parse("12*u1^-15 + 341 * u2^10 - 3/4", 2, F5)
        # -3/4 = -3 * 4^-1 = -3 * 4 = 3 mod 5.
        assert f.terms == {(-15, 0): 2, (0, 10): 1, (0, 0): 3}
        assert f.to_text() == "u2^10 + 3 + 2 * u1^-15"
        g = LaurentPoly.parse("12*u1^-15 + 340 * u2^10 - 7", 2, GF(31))
        assert g.to_text() == "30 * u2^10 + 24 + 12 * u1^-15"
        assert all(type(e) is int for m in g.terms for e in m)

    def test_fractional_exponent_refused_at_parse(self):
        with pytest.raises(ParseError, match="non-integral exponent 1/2") as e:
            LaurentPoly.parse("1 + u1^1/2 + u2", 2, F5)
        assert e.value.pos == 7
        with pytest.raises(ParseError, match="non-integral exponent -3/4") as e:
            LaurentPoly.parse("u2 * u1^-3/4", 2, F5)
        assert e.value.pos == 9

    def test_denominator_divisible_by_p_rejected(self):
        with pytest.raises(DomainError):
            LaurentPoly.parse("1/5", 1, F5)
