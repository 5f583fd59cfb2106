"""Systems, the tuple rules, the correlation oracle, and split actions."""

import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixlab import mixing
from mixlab.ideals import IdealPresentation
from mixlab.mixing import ExplicitList, NonMixingCertificate, verify_certificate
from mixlab.numfield import NumberField
from mixlab.ring import GF, DomainError, LaurentPoly
from mixlab.systems import (
    AlgebraicSystem,
    CharPModule,
    EvaluationModule,
    GroupDescriptor,
    InvalidTupleError,
    RationalDualModule,
    character_correlation,
    find_nonmixing_element,
    free_abelian,
    positive_rationals,
    rational_vector,
    unit_powers,
)
from mixlab.systems import _unit_power

F2 = GF(2)


def p2(text, d=2):
    return LaurentPoly.parse(text, d, F2)


@pytest.fixture(scope="module")
def three_dot():
    ideal = IdealPresentation([p2("1 + u1 + u2")], 2)
    return AlgebraicSystem(free_abelian(2), CharPModule(ideal), name="three-dot")


@pytest.fixture(scope="module")
def solenoid_23():
    K = NumberField([-1, 1])
    module = EvaluationModule.make(
        K, {0: K.from_rational(2), 1: K.from_rational(3)}
    )
    return AlgebraicSystem(free_abelian(2), module, name="times2-times3")


@pytest.fixture(scope="module")
def rational_dual():
    return AlgebraicSystem(
        positive_rationals([2, 3, 5]), RationalDualModule(), name="rational-dual"
    )


@pytest.mark.parametrize("name, identity, coefficients", [
    ("three_dot", (0, 0), lambda m: [p2("1 + u1 + u2"), p2("u1 + u1^2 + u1 * u2"),
                                     p2("1"), p2("1 + u1")]),
    ("solenoid_23", (0, 0), lambda m: [Fraction(0), m.field.zero,
                                       Fraction(-3), m.field.from_rational(5)]),
    ("rational_dual", Fraction(1), lambda m: [Fraction(0), 0, Fraction(5, 2), 1]),
], ids=["char_p", "evaluation", "rational_dual"])
def test_zero_test_is_the_bit_at_the_identity(request, name, identity, coefficients):
    # a is zero in the module exactly when the one-term sum 1 . a vanishes.
    system = request.getfixturevalue(name)
    values = coefficients(system.module)
    assert [system.module.is_zero(a) for a in values] == [True, True, False, False]
    for a in values:
        assert system.module.is_zero(a) == (character_correlation(system, [(identity, a)]) == 1)


class TestGroups:
    def test_rank(self):
        assert free_abelian(3).rank == 3
        assert rational_vector(2).rank == 2
        assert positive_rationals([2, 3, 5]).rank == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            GroupDescriptor("cyclic", d=1)
        with pytest.raises(DomainError, match="^unknown group kind 'bogus'$"):
            GroupDescriptor("bogus")


class TestCharacterTuples:
    """The tuple rules, which `verify_certificate` applies to the merged
    shifts before any correlation runs."""

    @staticmethod
    def certificate(shape, coefficients):
        return NonMixingCertificate(
            order=len(shape), shape=shape, coefficients=coefficients,
            family=ExplicitList((1,)), transcript=((1, 1),), grade="evidence")

    def test_zero_coefficient_rejected(self, three_dot, monkeypatch):
        calls = []
        monkeypatch.setattr(mixing, "character_correlation",
                            lambda system, pairs: calls.append(pairs) or 1)
        cert = self.certificate(((0, 0), (1, 0)), (p2("1"), p2("1 + u1 + u2")))
        with pytest.raises(InvalidTupleError, match="zero in the module"):
            verify_certificate(three_dot, cert)
        assert calls == []

    def test_fraction_and_tuple_shifts_compared_exactly(self, solenoid_23, monkeypatch):
        # (Fraction(0), Fraction(0)) and (0, 0) are one shift, so their
        # coefficients merge into one slot before the oracle sees them.
        calls = []
        monkeypatch.setattr(mixing, "character_correlation",
                            lambda system, pairs: calls.append(pairs) or 1)
        cert = self.certificate(((Fraction(0), Fraction(0)), (0, 0)),
                                (Fraction(1), Fraction(2)))
        verify_certificate(solenoid_23, cert)
        assert calls == [[((Fraction(0), Fraction(0)), Fraction(3))]]


class TestCorrelationCharP:
    def test_generator_relation_vanishes(self, three_dot):
        one = p2("1")
        tup = [((0, 0), one), ((1, 0), one), ((0, 1), one)]
        assert character_correlation(three_dot, tup) == 1

    def test_frobenius_dilates(self, three_dot):
        one = p2("1")
        for n in (2, 4, 8, 16):
            tup = [((0, 0), one), ((n, 0), one), ((0, n), one)]
            assert character_correlation(three_dot, tup) == 1

    def test_non_power_dilation_fails(self, three_dot):
        one = p2("1")
        tup = [((0, 0), one), ((3, 0), one), ((0, 3), one)]
        assert character_correlation(three_dot, tup) == 0

    def test_module_coefficients_matter(self, three_dot):
        tup = [((0, 0), p2("1 + u1")), ((1, 0), p2("u2 * u1^-1"))]
        # (1 + u1) + u1 * u2/u1 = 1 + u1 + u2, which is in the ideal.
        assert character_correlation(three_dot, tup) == 1


def ref_shifted_sum(ideal, pairs):
    """The sum of u^gamma * a over the pairs, one Laurent product at a time."""
    dom = GF(ideal.characteristic)
    total = LaurentPoly.zero(ideal.d, dom)
    for gamma, a in pairs:
        total = total + LaurentPoly.monomial(ideal.d, dom, gamma) * a
    return total


@st.composite
def charp_sums(draw):
    """Shifted sums over F_p in d <= 2 for a proper principal or
    two-generator ideal; when planted, the last coefficient makes the sum
    h * g for the first generator g."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 2))
    dom = GF(p)
    mono = st.tuples(*[st.integers(-2, 2)] * d)
    poly = st.dictionaries(mono, st.integers(1, p - 1), min_size=1, max_size=3)
    gens = [LaurentPoly(d, dom, t) for t in draw(st.lists(poly, min_size=1, max_size=2))]
    ideal = IdealPresentation(gens, p, d=d)
    assume(not ideal.constant_in_ideal())
    shifts = draw(st.lists(mono, min_size=1, max_size=4, unique=True))
    pairs = [(g, LaurentPoly(d, dom, draw(poly))) for g in shifts]
    if draw(st.booleans()):
        gamma, _ = pairs.pop()
        rest = ref_shifted_sum(ideal, pairs)
        planted = gens[0] * LaurentPoly(d, dom, draw(poly))
        last = (planted - rest) * LaurentPoly.monomial(d, dom, tuple(-e for e in gamma))
        pairs.append((gamma, last))
    return ideal, pairs


class TestShiftedSum:
    @given(charp_sums())
    @settings(max_examples=150, deadline=None)
    def test_one_dict_over_fp_matches_the_laurent_sum(self, case):
        ideal, pairs = case
        expected = ideal.contains_groebner(ref_shifted_sum(ideal, pairs))
        system = AlgebraicSystem(free_abelian(ideal.d), CharPModule(ideal))
        assert character_correlation(system, pairs) == expected

    def test_one_membership_call_per_sum(self, three_dot, monkeypatch):
        calls = []
        real = IdealPresentation.contains
        monkeypatch.setattr(IdealPresentation, "contains",
                            lambda ideal, f: calls.append(f) or real(ideal, f))
        one = p2("1")
        pairs = [((0, 0), one), ((2, 0), one), ((0, 2), one)]
        assert character_correlation(three_dot, pairs) == 1
        assert calls == [p2("1 + u1^2 + u2^2")]

    def test_shift_of_the_wrong_length_refused(self, three_dot):
        with pytest.raises(DomainError, match="has length 3, expected 2"):
            character_correlation(three_dot, [((0, 0, 1), p2("1"))])


class TestCorrelationEvaluation:
    def test_vanishing_combination(self, solenoid_23):
        K = solenoid_23.module.field
        tup = [((1, 0), K.from_rational(3)), ((0, 1), K.from_rational(-2))]
        # 3*2 - 2*3 = 0.
        assert character_correlation(solenoid_23, tup) == 1

    def test_generic_combination(self, solenoid_23):
        K = solenoid_23.module.field
        tup = [((1, 0), K.from_rational(1)), ((0, 1), K.from_rational(1))]
        assert character_correlation(solenoid_23, tup) == 0

    def test_rational_coefficients_coerced(self, solenoid_23):
        tup = [((1, 0), Fraction(3)), ((0, 1), Fraction(-2))]
        assert character_correlation(solenoid_23, tup) == 1

    def test_level_semantics(self):
        K = NumberField([-1, 1])
        module = EvaluationModule.make(K, {0: K.from_rational(2)}, level=2)
        system = AlgebraicSystem(free_abelian(1), module)
        # u1^(1/2) maps to the level generator w = 2, so u1 itself maps to 4.
        tup = [((Fraction(1, 2),), Fraction(1)), ((0,), Fraction(-2))]
        assert character_correlation(system, tup) == 1

    @pytest.mark.parametrize("group, units, level, message", [
        (free_abelian(2), {0: 2}, 1, "'module.assignment' cannot hold (u1) here"),
        (free_abelian(1), {1: 3}, 1, "'module.assignment' cannot hold (u2) here"),
        (free_abelian(1), {0: 2, 1: 3}, 1, "'module.assignment' cannot hold (u1, u2) here"),
        (free_abelian(1), {0: 2}, 0, "'module.level' cannot hold 0"),
    ], ids=["missing-unit", "stray-unit", "extra-unit", "level-zero"])
    def test_module_contradicting_its_group_refused(self, group, units, level, message):
        K = NumberField([-1, 1])
        module = EvaluationModule.make(K, {i: K.from_rational(u) for i, u in units.items()},
                                       level)
        with pytest.raises(DomainError, match=re.escape(message)):
            AlgebraicSystem(group, module)

    def test_unsupported_fractional_exponent(self):
        K = NumberField([-1, 1])
        module = EvaluationModule.make(K, {0: K.from_rational(2)}, level=1)
        system = AlgebraicSystem(free_abelian(1), module)
        tup = [((Fraction(1, 2),), Fraction(1))]
        with pytest.raises(ValueError):
            character_correlation(system, tup)


class TestCorrelationRationalDual:
    def test_consecutive_family(self, rational_dual):
        for n in (3, 10, 101):
            tup = [
                (Fraction(1), Fraction(1)),
                (Fraction(n), Fraction(-1)),
                (Fraction(n - 1), Fraction(1)),
            ]
            assert character_correlation(rational_dual, tup) == 1

    def test_generic_pair(self, rational_dual):
        tup = [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))]
        assert character_correlation(rational_dual, tup) == 0


class TestNonMixingElements:
    def test_torsion_direction_found(self):
        ideal = IdealPresentation([p2("1 + u1", 1)], 2, d=1)
        system = AlgebraicSystem(free_abelian(1), CharPModule(ideal))
        # Every nonzero shift fixes the module; the scan finds the first one.
        assert find_nonmixing_element(system, [(-3, 3)]) == (-3,)

    def test_three_dot_has_none_in_small_box(self, three_dot):
        assert find_nonmixing_element(three_dot, [(-3, 3), (-3, 3)]) is None

    def test_evaluation_root_of_unity(self):
        K = NumberField([1, 0, 1])  # x^2 + 1: u1 -> i is a 4-torsion unit
        module = EvaluationModule.make(K, {0: K.element([0, 1])})
        system = AlgebraicSystem(free_abelian(1), module)
        assert find_nonmixing_element(system, [(-4, 4)]) == (-4,)

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("box", [
        [(-2, 3), (-3, 1)], [(1, 3), (-2, -1)], [(0, 0), (-2, 2)], [(-1, 1), (0, 0), (2, 3)],
    ])
    def test_unit_powers_match_per_point(self, level, box):
        K = NumberField([-2, 0, 1])
        units = {0: K.element([1, 1]), 1: K.from_rational(Fraction(-3, 2)), 2: K.element([0, 1])}
        module = EvaluationModule.make(K, {i: units[i] for i in range(len(box))}, level)
        value = unit_powers(module, box)
        points = set(product(*(range(lo, hi + 1) for lo, hi in box)))
        assert set(value) == points | {tuple(0 for _ in box)}
        for e, x in value.items():
            assert x.coeffs == _unit_power(module, e).coeffs

    def test_unit_powers_need_assigned_units(self):
        # One range per assigned unit: a box naming u2, even at (0, 0) alone,
        # is refused when only u1 has a unit.
        K = NumberField([-1, 1])
        module = EvaluationModule.make(K, {0: K.from_rational(2)})
        assert set(unit_powers(module, [(-1, 1)])) == {(-1,), (0,), (1,)}
        for box in ([(-1, 1), (0, 0)], [(-1, 1), (0, 1)], [(-1, 1), (-2, 0)]):
            with pytest.raises(DomainError, match="^a box of 2 ranges for 1 units$"):
                unit_powers(module, box)

    def test_rational_dual_has_none(self, rational_dual):
        assert find_nonmixing_element(rational_dual, [(-5, 5)]) is None


def ref_find_nonmixing_element(system, box):
    """The characteristic-p scan that tests every shift against the 2^d
    monomial probes u^e, e in {0, 1}^d, that are not in the ideal."""
    ideal = system.module.ideal
    dom = GF(ideal.characteristic)
    one = LaurentPoly.one(ideal.d, dom)
    probes = [
        LaurentPoly.monomial(ideal.d, dom, e)
        for e in product(range(2), repeat=ideal.d)
    ]
    probes = [g for g in probes if not ideal.contains(g)]
    for gamma in product(*[range(lo, hi + 1) for lo, hi in box]):
        if all(x == 0 for x in gamma):
            continue
        mono = LaurentPoly.monomial(ideal.d, dom, gamma)
        for g in probes:
            if ideal.contains((mono - one) * g):
                return gamma
    return None


@pytest.mark.parametrize("gens, p, d, substitution, b, expected", [
    (["1 + u1 + u1^2"], 2, 1, None, 4, (-3,)),
    (["u1^3 - 1"], 3, 1, None, 4, (-3,)),
    (["u1 - u2"], 2, 2, None, 2, (-2, 2)),
    (["u1 - u2"], 2, 2, {1: "u1"}, 2, (-2, 2)),
    (["u1 * u2 - 1"], 3, 2, None, 2, (-2, -2)),
    (["u2 - u1^-1"], 3, 2, {1: "u1^-1"}, 2, (-2, -2)),
    (["1 + u1 + u1^2", "1 + u2 + u3"], 2, 3, None, 3, (-3, 0, 0)),
    (["u1^2 - 1", "u2 - u3"], 3, 3, None, 2, (-2, -2, 2)),
    (["1 + u2 + u3"], 2, 4, None, 1, None),
    (["1 + u2 + u3", "u1 * u4 - 1"], 2, 4, None, 1, (-1, 0, 0, -1)),
    (["1 + u1 + u2"], 2, 2, None, 3, None),
    (["1 + u1 + u2"], 2, 2, {1: "1 + u1"}, 3, None),
    (["u1 - 1"], 2, 2, {0: "1"}, 2, (-2, 0)),
    (["u1", "1 + u1"], 2, 1, None, 3, None),
    ([], 2, 2, None, 2, None),
    # presentations/split_ledrappier.json, tests/f3_two_generators.json and
    # tests/f5_two_generators.json.
    (["1 + u2 + u3"], 2, 4, None, 2, None),
    (["2*u1^2*u2^2 + u1*u2 + u1", "2*u1^2*u2 + 2*u1 + u1*u2^2"], 3, 2, None, 5, (-5, 0)),
    (["1 + 2*u1 + u2", "u1^2 + 3"], 5, 2, None, 5, (-1, -3)),
])
def test_nonmixing_element_matches_monomial_probes(gens, p, d, substitution, b, expected):
    dom = GF(p)
    generators = [LaurentPoly.parse(t, d, dom) for t in gens]
    if substitution:
        hint = {v: LaurentPoly.parse(t, d, dom) for v, t in substitution.items()}
        ideal = IdealPresentation(generators, p, d=d, substitution=hint)
    else:
        ideal = IdealPresentation(generators, p, d=d)
    system = AlgebraicSystem(free_abelian(d), CharPModule(ideal))
    box = [(-b, b)] * d
    assert ref_find_nonmixing_element(system, box) == expected
    assert find_nonmixing_element(system, box) == expected


@pytest.fixture(scope="module")
def split_ledrappier():
    """1 + u2 + u3 over F_2 on the primes 2, 3, 5, 7: u1 and u4 are free."""
    ideal = IdealPresentation([LaurentPoly.parse("1 + u2 + u3", 4, F2)], 2, d=4)
    return AlgebraicSystem(positive_rationals([2, 3, 5, 7]), CharPModule(ideal))


def p4(text):
    return LaurentPoly.parse(text, 4, F2)


def sympy_vanishes(pairs) -> int:
    """The bit of sum gamma . a by sympy's Groebner basis of
    (1 + u2 + u3, t*u1*u2*u3*u4 - 1) over F_2, t eliminated."""
    sympy = pytest.importorskip("sympy")
    t, *u = sympy.symbols("t u1 u2 u3 u4")
    basis = sympy.groebner([1 + u[1] + u[2], t * u[0] * u[1] * u[2] * u[3] - 1],
                           t, *u, modulus=2)
    total = sum((LaurentPoly.monomial(4, F2, gamma) * a for gamma, a in pairs),
                LaurentPoly.zero(4, F2))
    low = [min([m[i] for m in total.terms] + [0]) for i in range(4)]
    cleared = sum((c * sympy.prod([x ** (e - lo) for x, e, lo in zip(u, m, low)])
                   for m, c in total.terms.items()), sympy.S.Zero)
    return int(basis.contains(cleared))


class TestSplitAction:
    """A positive-rationals action whose relation leaves coordinates free,
    through the one correlation function."""

    def test_correlation_agrees_with_direct(self, split_ledrappier):
        one = p4("1")
        same_fibre = [((1, 0, 0, 2), one), ((1, 1, 0, 2), one), ((1, 0, 1, 2), one)]
        crossed = [((1, 0, 0, 2), one), ((0, 1, 0, 2), one), ((1, 0, 1, 2), one)]
        assert character_correlation(split_ledrappier, same_fibre) == 1
        assert character_correlation(split_ledrappier, crossed) == 0
        for pairs in (same_fibre, crossed):
            assert character_correlation(split_ledrappier, pairs) == sympy_vanishes(pairs)

    def test_coefficient_support_restriction(self, split_ledrappier):
        # A coefficient with support on a free coordinate gets an answer.
        cases = [
            ([((0, 0, 0, 0), "u1"), ((0, 1, 0, 0), "u1"), ((0, 0, 1, 0), "u1")], 1),
            ([((0, 0, 0, 0), "u1 * u4^2"), ((1, 1, 0, 2), "1"), ((0, 0, 1, 0), "u1 * u4^2")], 1),
            ([((0, 0, 0, 0), "u1 + u4"), ((0, 1, 0, 0), "u1"), ((0, 0, 1, 0), "u4")], 0),
            ([((0, 0, 0, 0), "u1 + u4"), ((0, 1, 0, 0), "u1 + u4"), ((0, 0, 1, 0), "u1 + u4")], 1),
            ([((2, 0, 0, 0), "u1^-2"), ((0, 0, 0, 1), "u4^-1")], 1),
        ]
        cases = [([(gamma, p4(a)) for gamma, a in pairs], bit) for pairs, bit in cases]
        for pairs, expected in cases:
            assert character_correlation(split_ledrappier, pairs) == expected
        for pairs, expected in cases:
            assert sympy_vanishes(pairs) == expected
