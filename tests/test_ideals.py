"""Ideal membership: Groebner saturation, substitution engine, torsion."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mixlab import ideals
from mixlab.ideals import (
    EngineUnavailableError,
    IdealPresentation,
    _buchberger,
    _normal_form,
    _prepared,
)
from mixlab.ring import GF, DomainError, LaurentPoly

F2 = GF(2)
F3 = GF(3)


def p2(text, d=2):
    return LaurentPoly.parse(text, d, F2)


def frobenius_power(f, k):
    """f^(p^k) over F_p, built termwise: the Frobenius map multiplies every
    exponent by p^k and fixes every coefficient (c^p = c in F_p)."""
    q = f.domain.p ** k
    return LaurentPoly(f.d, f.domain, {tuple(q * e for e in m): c for m, c in f.terms.items()})


def laurent_power(g, k):
    """g^k for k >= 0 by repeated squaring."""
    result, base = LaurentPoly.one(g.d, g.domain), g
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


@pytest.fixture(scope="module")
def three_dot():
    return IdealPresentation([p2("1 + u1 + u2")], 2)


@pytest.fixture(scope="module")
def three_dot_subst():
    return IdealPresentation(
        [p2("1 + u1 + u2")],
        2,
        substitution={1: p2("1 + u1")},
    )


def member(ideal, f):
    """Membership of f by the Gröbner engine, checked against `contains`,
    which a generator linear in its highest variable sends to the solved
    substitution map."""
    answer = ideal.contains_groebner(f)
    assert ideal.contains(f) == answer
    return answer


class TestGroebner:
    def test_reduced_basis(self, three_dot):
        # u1 + u2 + 1, keys ending in the saturation slot t.
        assert three_dot._contracted_basis() == [{(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 1}]

    def test_membership_positive(self, three_dot):
        assert member(three_dot, p2("1 + u1 + u2"))
        assert member(three_dot, p2("1 + u1^2 + u2^2"))
        assert member(three_dot, p2("1 + u1 + u2") * p2("u1^3 + u2"))

    def test_membership_negative(self, three_dot):
        assert not member(three_dot, p2("u1"))
        assert not member(three_dot, p2("1 + u1"))
        assert not member(three_dot, LaurentPoly.one(2, F2))

    def test_laurent_membership_uses_units(self, three_dot):
        # u1^-1 (1 + u1 + u2) is in the Laurent ideal though its cleared lift
        # is not a multiple of the generator alone.
        assert member(three_dot, p2("u1^-1 + 1 + u2 * u1^-1"))

    def test_saturation_removes_monomial_factors(self):
        # <u1 * (1 + u2)> in the Laurent ring equals <1 + u2>.
        ideal = IdealPresentation([p2("u1 + u1 * u2")], 2)
        assert member(ideal, p2("1 + u2"))
        assert not member(ideal, p2("1 + u1"))

    def test_normal_form_is_canonical(self, three_dot):
        f = p2("u2^3 + u1")
        g = f + p2("1 + u1 + u2") * p2("u1 + u2^2")
        assert three_dot._reduced(f) == three_dot._reduced(g)

    def test_normal_form_monomial_matches(self, three_dot):
        nf = three_dot.normal_form_monomial((4, 0))
        assert nf == three_dot._reduced(p2("u1^4"))

    def test_constant_in_ideal(self):
        unit = IdealPresentation([p2("1 + u1"), p2("u1")], 2)
        assert unit.constant_in_ideal()
        nontrivial = IdealPresentation([p2("1 + u1 + u2")], 2)
        assert not nontrivial.constant_in_ideal()

    def test_empty_generator_list(self):
        free = IdealPresentation([], 2, d=2)
        assert not free.contains(p2("1 + u1"))
        assert free.contains(LaurentPoly.zero(2, F2))

    def test_char3(self):
        dom = F3
        g = LaurentPoly.parse("1 + u1 + u2", 2, dom)
        ideal = IdealPresentation([g], 3)
        assert member(ideal, frobenius_power(g, 2))
        assert not member(ideal, LaurentPoly.parse("1 + u1 + 2 * u2", 2, dom))


class TestSubstitution:
    def test_agrees_on_fixed_cases(self, three_dot, three_dot_subst):
        cases = ["1 + u1 + u2", "u1", "1 + u1^2 + u2^2", "u1^-2 + u2", "1"]
        for text in cases:
            f = p2(text)
            assert three_dot.contains_groebner(f) == three_dot_subst.contains(f)

    @given(
        st.dictionaries(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            st.just(1),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_on_random_polys(self, three_dot, three_dot_subst, terms):
        f = LaurentPoly(2, F2, terms)
        assert three_dot.contains_groebner(f) == three_dot_subst.contains(f)

    def test_substitution_requires_earlier_variables(self):
        with pytest.raises(DomainError):
            IdealPresentation(
                [p2("1 + u1 + u2")],
                2,
                substitution={0: p2("1 + u2")},
            )

    @pytest.mark.parametrize("gens, hint, message", [
        # u1 -> 0 is not a unit: the ideal is the unit ideal, and under the
        # hint membership would depend on the monomial multiplying an element.
        (["u1", "u2 + 1 + u1^-1"], {0: "0", 1: "1 + u1^-1"}, "not a unit"),
        (["1 + u1 + u2"], {1: "u1"}, "does not vanish"),
        (["u2"], {1: "0"}, "not a unit"),
        (["1 + u1 + u2"], {2: "1 + u1"}, "out of range"),
        # (1 + u1 + u2)^2 vanishes under u2 -> 1 + u1, but u2 - 1 - u1 is not
        # in the ideal it generates: the hint solves the larger ideal.
        (["1 + u1^2 + u2^2"], {1: "1 + u1"}, "larger ideal"),
    ])
    def test_inconsistent_hint_rejected(self, gens, hint, message):
        with pytest.raises(DomainError, match=message):
            IdealPresentation(
                [p2(g) for g in gens], 2,
                substitution={v: p2(t) for v, t in hint.items()},
            )


# -- ideals whose generators solve to a substitution map -----------------------

def sympy_member(gens, f, p, d):
    """Membership of the Laurent f in the ideal of gens by sympy's Gröbner
    basis of the cleared generators plus t*u1*...*ud - 1, t eliminated."""
    sympy = pytest.importorskip("sympy")
    t, *u = sympy.symbols(f"t u1:{d + 1}")

    def expr(poly):
        low = [min([m[i] for m in poly.terms] + [0]) for i in range(d)]
        return sum((int(c) * sympy.prod([x ** (e - lo) for x, e, lo in zip(u, m, low)])
                    for m, c in poly.terms.items()), sympy.S.Zero)

    basis = sympy.groebner([expr(g) for g in gens] + [t * sympy.prod(u) - 1],
                           t, *u, modulus=p)
    return basis.contains(expr(f))


@st.composite
def solvable_generators(draw):
    """(f, v, g): f = c u^a (u_v - g) with g != 0 a Laurent polynomial in the
    variables before u_v and a arbitrary, so that the coefficient of u_v is
    often a monomial that is not a constant, as in u1 u2 + 1."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 3))
    v = draw(st.integers(0, d - 1))
    dom = GF(p)
    earlier = st.tuples(*[st.integers(-2, 2)] * v + [st.just(0)] * (d - v))
    g = LaurentPoly(d, dom, draw(st.dictionaries(earlier, st.integers(1, p - 1),
                                                 min_size=1, max_size=3)))
    a = draw(st.tuples(*[st.integers(-1, 2)] * d))
    unit = LaurentPoly.monomial(d, dom, a, draw(st.integers(1, p - 1)))
    return unit * (LaurentPoly.variable(v, d, dom) - g), v, g


@st.composite
def triangular_systems(draw):
    """(p, d, generators): u_v - g_v for a nonempty set of variables v, with
    g_v != 0 in the variables before u_v, each times a monomial unit, plus a
    redundant combination of two of them, shuffled."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 3))
    dom = GF(p)

    def unit():
        return LaurentPoly.monomial(d, dom, draw(st.tuples(*[st.integers(-1, 2)] * d)),
                                    draw(st.integers(1, p - 1)))

    gens = []
    for v in sorted(draw(st.sets(st.integers(0, d - 1), min_size=1))):
        earlier = st.tuples(*[st.integers(-2, 2)] * v + [st.just(0)] * (d - v))
        g = LaurentPoly(d, dom, draw(st.dictionaries(earlier, st.integers(1, p - 1),
                                                     min_size=1, max_size=2)))
        gens.append(unit() * (LaurentPoly.variable(v, d, dom) - g))
    i, j = draw(st.lists(st.sampled_from(range(len(gens))), min_size=2, max_size=2))
    gens.append(unit() * gens[i] + unit() * gens[j])
    return p, d, draw(st.permutations(gens))


class TestSolvedMap:
    @given(triangular_systems(), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_triangular_systems_are_solved(self, case, planted, data):
        # No hint is written.  A composition sending some g_v to zero makes
        # the unit ideal, the one case left to the Gröbner engine.
        p, d, gens = case
        dom = GF(p)
        ideal = IdealPresentation(gens, p, d=d)
        assert ideal.substitution is not None or ideal.constant_in_ideal()
        x = LaurentPoly(d, dom, data.draw(st.dictionaries(
            st.tuples(*[st.integers(-2, 3)] * d), st.integers(1, p - 1), min_size=1, max_size=3)))
        if planted:
            x = x * data.draw(st.sampled_from(gens))
        answer = ideal.contains(x)
        assert answer == ideal.contains_groebner(x) == sympy_member(gens, x, p, d)
        if planted:
            assert answer

    @given(solvable_generators(), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_groebner_and_sympy(self, case, planted, data):
        f, v, g = case
        d, dom, p = f.d, f.domain, f.domain.p
        ideal = IdealPresentation([f], p, d=d)
        assert ideal.substitution == {v: g}
        mono = st.tuples(*[st.integers(-2, 3)] * d)
        x = LaurentPoly(d, dom, data.draw(st.dictionaries(
            mono, st.integers(1, p - 1), min_size=1, max_size=4)))
        if planted:
            x = x * f
        answer = ideal.contains(x)
        assert answer == ideal.contains_groebner(x) == sympy_member([f], x, p, d)
        if planted:
            assert answer

    @pytest.mark.parametrize("p, d, gens", [
        (2, 2, ["1 + u1 + u2^2"]),          # degree 2 in the top variable
        (3, 2, ["1 + u2 + u1*u2"]),         # the coefficient of u2 has two terms
        (2, 2, ["u1 * u2^-1"]),             # a monomial: the unit ideal
        (5, 2, ["1 + 2*u1 + u2", "u1^2 + 3"]),  # two generators
        (2, 2, []),                         # no generators
    ], ids=["quadratic", "two-term-coefficient", "monomial", "two-generators", "none"])
    def test_other_ideals_keep_the_groebner_engine(self, p, d, gens, monkeypatch):
        dom = GF(p)
        generators = [LaurentPoly.parse(t, d, dom) for t in gens]
        ideal = IdealPresentation(generators, p, d=d)
        assert ideal.substitution is None
        calls = []
        real = IdealPresentation.contains_groebner

        def refuse(*_args):
            raise AssertionError("the substitution engine ran")

        monkeypatch.setattr(IdealPresentation, "contains_substitution", refuse)
        monkeypatch.setattr(IdealPresentation, "contains_groebner",
                            lambda ideal, f: calls.append(f) or real(ideal, f))
        for text in ("1", "1 + u1 + u2^2", "u1^3 + u2 + u1*u2^-1"):
            f = LaurentPoly.parse(text, d, dom)
            assert ideal.contains(f) == sympy_member(generators, f, p, d)
        assert len(calls) == 3

    def test_hint_equal_to_the_solved_map_is_not_checked(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a load-time membership check ran")

        monkeypatch.setattr(IdealPresentation, "contains_groebner", refuse)
        monkeypatch.setattr(IdealPresentation, "contains_substitution", refuse)
        f = LaurentPoly.parse("1 + u1*u2", 2, F3)
        ideal = IdealPresentation([f], 3, substitution={1: LaurentPoly.parse("2*u1^-1", 2, F3)})
        assert ideal.substitution == IdealPresentation([f], 3).substitution

    def test_any_other_hint_is_checked(self):
        # u2 -> u1 is refused as before, though the ideal solves for u2.
        with pytest.raises(DomainError, match=r"^generator 'u1 \+ u2 \+ 1' does not vanish "
                                              r"under the substitution$"):
            IdealPresentation([p2("1 + u1 + u2")], 2, substitution={1: p2("u1")})

    def test_composed_zero_is_the_unit_ideal(self):
        # u2 -> 1 + u1 and u1 -> 1 send 1 + u1 to zero: u2 lies in the ideal.
        ideal = IdealPresentation([p2("u2 + 1 + u1"), p2("u1 + 1")], 2)
        assert ideal.substitution is None
        assert ideal.constant_in_ideal()

    def test_uncomposed_chained_hint_loads(self):
        # The generators solve u3 -> u1^2 + u1 + 2, composed; the written hint
        # leaves u3 -> u1*u2 + 2 in u2, a second presentation of the ideal.
        def f3(text):
            return LaurentPoly.parse(text, 3, F3)

        hint = {2: f3("u1*u2 + 2"), 1: f3("1 + u1")}
        gens = [f3("u3 + 2*u1^2 + 2*u1 + 1"), f3("u2 + 2 + 2*u1")]
        ideal = IdealPresentation(gens, 3, substitution=hint)
        assert ideal.substitution == {2: f3("u1^2 + u1 + 2"), 1: f3("1 + u1")} != hint
        for text in ("u3 - u1*u2 - 2", "u3 - u1*u2", "u2^3 - 1 - u1^3"):
            assert ideal.contains(f3(text)) == ideal.contains_groebner(f3(text))

    def test_a_correct_hint_picks_no_engine(self, monkeypatch):
        # (u2 + 1 + u1) times 1 + u1 + u1^2 and times u1 + u1^2: the ideal is
        # (u2 + 1 + u1), but no generator has a one-term coefficient of u2.
        line = p2("u2 + 1 + u1")
        ideal = IdealPresentation([p2("1 + u1 + u1^2") * line, p2("u1 + u1^2") * line], 2,
                                  substitution={1: p2("1 + u1")})
        assert ideal.substitution is None

        def refuse(*_args):
            raise AssertionError("the substitution engine ran")

        monkeypatch.setattr(IdealPresentation, "contains_substitution", refuse)
        assert ideal.contains(line)
        assert not ideal.contains(p2("u2 + u1"))

    def test_d3_top_variable_at_large_exponents(self):
        # u3 - g(u1, u2) over F_5 with exponents up to 4 * 5^5: the solved
        # map answers at once where the Gröbner normal form of one such f
        # took seconds.
        dom = GF(5)
        g = LaurentPoly.parse("2*u1^-1*u2 + u1^2 + 3*u2^-2", 3, dom)
        f = LaurentPoly.variable(2, 3, dom) - g
        ideal = IdealPresentation([f], 5, d=3)
        assert ideal.substitution == {2: g}
        member = frobenius_power(f, 5) * LaurentPoly.parse("u1^3 + 4*u3^7", 3, dom)
        assert ideal.contains(member)
        assert not ideal.contains(member + LaurentPoly.parse("u1^12500*u2^17", 3, dom))


class TestEngineContract:
    def test_characteristic_zero_unavailable(self):
        # The engines work over F_p only: characteristic 0 is refused when
        # the ideal is built.
        with pytest.raises(DomainError, match="0 is not prime"):
            IdealPresentation([], 0, d=1)

    def test_polynomial_over_another_field_refused(self, three_dot):
        for f in (LaurentPoly.parse("1 + u1 + u2", 2, F3), p2("1 + u1", d=1)):
            with pytest.raises(DomainError, match="not in the Laurent ring over GF"):
                three_dot.contains(f)
        with pytest.raises(DomainError, match="not in the Laurent ring over GF"):
            IdealPresentation([LaurentPoly.parse("1 + u1", 1, F3)], 2)

    def test_huge_characteristic_rejected(self):
        with pytest.raises(EngineUnavailableError):
            IdealPresentation([], 2 ** 31 + 11, d=1)


# -- the normal form against the max-lead, dict-copy reduction ---------------

def ref_order_key(m):
    return (m[-1], sum(m[:-1]), m[:-1])


def ref_normal_form(f, basis, p):
    """Division by basis, taking the lead by max over the working dict and
    adding the whole scaled basis element to a copy at every step."""
    prepared = []
    for g in basis:
        lm = max(g, key=ref_order_key)
        prepared.append((lm, pow(g[lm], -1, p), g))
    rem = {}
    work = dict(f)
    while work:
        lt = max(work, key=ref_order_key)
        for lm, inv_lc, g in prepared:
            if all(x <= y for x, y in zip(lm, lt)):
                factor = (-work[lt] * inv_lc) % p
                shift = tuple(a - b for a, b in zip(lt, lm))
                out = dict(work)
                for m, cm in g.items():
                    key = tuple(x + y for x, y in zip(m, shift))
                    val = (out.get(key, 0) + factor * cm) % p
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
                work = out
                break
        else:
            rem[lt] = work.pop(lt)
    return rem


def poly_dicts(nvars, p, max_exp, max_terms):
    mono = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(mono, st.integers(1, p - 1), min_size=1, max_size=max_terms)


def saturated_basis(gens, p, d):
    """The _buchberger basis of the generators plus t*u1*...*ud - 1."""
    return IdealPresentation(gens, p, d=d)._full_basis()


@pytest.fixture(scope="module")
def ledrappier_bases():
    return {
        "F2": (2, saturated_basis([p2("1 + u1 + u2")], 2, 2)),
        "F3 at 3^6": (3, saturated_basis(
            [LaurentPoly.parse("1 + u1^729 + u2^729", 2, F3)], 3, 2)),
    }


class TestHeapNormalForm:
    @given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_random_bases(self, p, d, data):
        dom = GF(p)
        gens = data.draw(st.lists(poly_dicts(d, p, 3, 4), min_size=1, max_size=3))
        basis = saturated_basis([LaurentPoly(d, dom, g) for g in gens], p, d)
        for _ in range(3):
            f = data.draw(poly_dicts(d + 1, p, 5, 8))
            assert _normal_form(f, _prepared(basis, p), p) == ref_normal_form(f, basis, p)

    @given(st.sampled_from(["F2", "F3 at 3^6"]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_on_ledrappier(self, ledrappier_bases, name, data):
        p, basis = ledrappier_bases[name]
        f = data.draw(poly_dicts(3, p, 6 if p == 2 else 1500, 6))
        assert _normal_form(f, _prepared(basis, p), p) == ref_normal_form(f, basis, p)

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_buchberger_output_is_reduced(self, p, data):
        gens = data.draw(st.lists(poly_dicts(3, p, 2, 4), min_size=1, max_size=3))
        basis = _buchberger(gens, p)
        for i, g in enumerate(basis):
            rest = basis[:i] + basis[i + 1:]
            if rest:
                assert ref_normal_form(g, rest, p) == g


@st.composite
def principal_cases(draw):
    """One Laurent generator over F_p in d <= 4, with negative exponents and
    monomial content, sometimes beside a generator that is zero mod p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 31]))
    d = draw(st.integers(1, 4))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(-2, 3)] * d), st.integers(1, p - 1),
                                 min_size=1, max_size=4))
    return p, d, terms, draw(st.booleans())


class TestPrincipalBasis:
    @given(principal_cases())
    @settings(max_examples=150, deadline=None)
    @example((2, 2, {(2, 1): 1, (1, 0): 1}, False))      # content u1: u1^2 u2 + u1
    @example((3, 2, {(2, -1): 2}, False))                # a monomial: the unit ideal
    @example((5, 3, {(-1, 0, 2): 3, (0, -2, 1): 1, (1, 1, 1): 4}, True))
    def test_matches_the_buchberger_contraction(self, case):
        p, d, terms, with_zero = case
        dom = GF(p)
        gens = [LaurentPoly(d, dom, terms)]
        if with_zero:
            gens.insert(0, LaurentPoly(d, dom, {(0,) * d: p}))  # p = 0 in F_p
        ideal = IdealPresentation(gens, p, d=d)
        full = ideal._full_basis()
        assert ideal._contracted_basis() == [g for g in full if all(m[-1] == 0 for m in g)]

    def test_buchberger_runs_for_two_generators_only(self, monkeypatch):
        calls = []
        real = ideals._buchberger
        monkeypatch.setattr(ideals, "_buchberger",
                            lambda gens, p: calls.append(len(gens)) or real(gens, p))
        assert IdealPresentation([p2("1 + u1 + u2")], 2).contains_groebner(p2("1 + u1^2 + u2^2"))
        assert calls == []
        assert IdealPresentation([p2("u1"), p2("1 + u1")], 2).constant_in_ideal()
        assert not IdealPresentation([], 2, d=2).contains(p2("1"))
        assert calls == [3, 1]  # two generators and t*u1*u2 - 1; the zero ideal


class TestSympyMembership:
    @given(st.sampled_from([2, 3, 5]), st.booleans(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_membership_matches_sympy(self, p, planted, data):
        sympy = pytest.importorskip("sympy")
        dom = GF(p)
        gens = data.draw(st.lists(poly_dicts(2, p, 2, 3), min_size=1, max_size=2))
        ideal = IdealPresentation([LaurentPoly(2, dom, g) for g in gens], p, d=2)
        f = LaurentPoly(2, dom, data.draw(poly_dicts(2, p, 3, 4)))
        if planted:
            # A multiple of a generator, so that members are tested too.
            f = LaurentPoly(2, dom, gens[0]) * f
        t, u1, u2 = sympy.symbols("t u1 u2")

        def expr(poly):
            return sum(int(c) * u1 ** m[0] * u2 ** m[1] for m, c in poly.terms.items())

        basis = sympy.groebner(
            [expr(LaurentPoly(2, dom, g)) for g in gens] + [t * u1 * u2 - 1],
            t, u1, u2, modulus=p,
        )
        assert ideal.contains(f) == ideal.contains_groebner(f) == basis.contains(expr(f))


# -- the Frobenius ladder against direct reduction ---------------------------

def direct_monomial_nf(ideal, m):
    """The reference: u^m reduced directly by the contracted basis, with no
    memo and no ladder."""
    p = ideal.characteristic
    return _normal_form({tuple(m) + (0,): 1}, _prepared(ideal._contracted_basis(), p), p)


def poly_mul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def squaring_monomial_nf(ideal, m):
    """u^m by square-and-multiply, reducing directly after every product.
    It uses only that the ideal absorbs products, never the p-th power map."""
    p = ideal.characteristic
    basis = _prepared(ideal._contracted_basis(), p)
    acc = _normal_form({(0,) * (ideal.d + 1): 1}, basis, p)
    for bit in reversed(range(max(m).bit_length())):
        acc = _normal_form(poly_mul(acc, acc, p), basis, p)
        step = tuple((e >> bit) & 1 for e in m) + (0,)
        acc = _normal_form(poly_mul(acc, {step: 1}, p), basis, p)
    return acc


def finite_quotient_generators(data, p, d):
    """One monic univariate generator u_i^k + (lower terms) per variable, so
    the quotient is finite, plus up to two random generators."""
    gens = []
    for i in range(d):
        k = data.draw(st.integers(1, 3))
        lower = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
        terms = {tuple(j if v == i else 0 for v in range(d)): c for j, c in enumerate(lower)}
        terms[tuple(k if v == i else 0 for v in range(d))] = 1
        gens.append({m: c for m, c in terms.items() if c})
    return gens + data.draw(st.lists(poly_dicts(d, p, 2, 3), max_size=2))


class TestFrobeniusLadder:
    # Direct reduction of u^m costs more than quadratic time in the degree
    # when d >= 2 (one monomial of degree 15,000 over F_5 in d = 3 took 45 s),
    # so the direct reference is used at full range only in d = 1.
    TOP_POWER = {1: 5, 2: 2, 3: 1}

    @given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_reduction(self, p, d, data):
        dom = GF(p)
        gens = data.draw(st.lists(poly_dicts(d, p, 2, 3), min_size=1, max_size=2))
        ideal = IdealPresentation([LaurentPoly(d, dom, g) for g in gens], p, d=d)
        top = 4 * p ** self.TOP_POWER[d]
        for _ in range(3):
            m = data.draw(st.tuples(*[st.integers(0, top)] * d))
            assert ideal.normal_form_monomial(m) == direct_monomial_nf(ideal, m)
        # _reduced of a Laurent f is the sum of its terms' memo entries.
        f = LaurentPoly(d, dom, data.draw(st.dictionaries(
            st.tuples(*[st.integers(-3, top)] * d), st.integers(1, p - 1),
            min_size=1, max_size=6)))
        lift = {m + (0,): c for m, c in ideal._cleared(f).items()}
        direct = _normal_form(lift, _prepared(ideal._contracted_basis(), p), p)
        assert ideal._reduced(f) == direct
        assert ideal.contains(f) == (not direct)

    @given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_squaring_on_finite_quotients(self, p, d, data):
        dom = GF(p)
        gens = finite_quotient_generators(data, p, d)
        ideal = IdealPresentation([LaurentPoly(d, dom, g) for g in gens], p, d=d)
        for _ in range(2):
            m = data.draw(st.tuples(*[st.integers(0, 4 * p ** 5)] * d))
            assert ideal.normal_form_monomial(m) == squaring_monomial_nf(ideal, m)

    def test_f5_dilated_generator(self):
        # u1^2 = -3, so u1^(2 * 5^6) = (-3)^(5^6) = -3 = 2 over F_5.
        dom = GF(5)
        ideal = IdealPresentation([LaurentPoly.parse("1 + 2*u1 + u2", 2, dom),
                                   LaurentPoly.parse("u1^2 + 3", 2, dom)], 5)
        assert ideal.normal_form_monomial((2 * 5 ** 6, 0)) == {(0, 0, 0): 2}
        assert ideal.contains(LaurentPoly.parse("u1^31250 + 3", 2, dom))

    def test_memo_key_checked_once(self, three_dot):
        with pytest.raises(DomainError):
            three_dot.normal_form_monomial((-1, 0))
        with pytest.raises(DomainError):
            three_dot.normal_form_monomial((1, 0, 0))
        nf = three_dot.normal_form_monomial([4, 0])
        assert three_dot.normal_form_monomial((4, 0)) is nf

    def test_normal_form_bypasses_the_public_method(self, monkeypatch):
        # _reduced reads the memo itself, so a count of public
        # normal_form_monomial calls counts only its outside callers.
        ideal = IdealPresentation([p2("1 + u1 + u2")], 2)

        def refuse(*_args):
            raise AssertionError("_reduced went through normal_form_monomial")

        monkeypatch.setattr(IdealPresentation, "normal_form_monomial", refuse)
        assert ideal.contains_groebner(p2("1 + u1^8 + u2^8"))
        # 1 + u2 + u2^4 + u2^5
        assert ideal._reduced(p2("u1^5")) == {(0, 0, 0): 1, (0, 1, 0): 1, (0, 4, 0): 1,
                                             (0, 5, 0): 1}


# -- free variables factored out of the normal form --------------------------

def terms_of(text, d, p):
    return LaurentPoly.parse(text, d, GF(p)).terms


@st.composite
def split_cases(draw):
    """One or two generators over F_p in d <= 4 that mention a random
    nonempty subset of the variables, and three exponent vectors whose
    coordinates are small or at least p^3, so that the ladder climbs."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 4))
    mentioned = draw(st.sets(st.integers(0, d - 1), min_size=1))
    mono = st.tuples(*[st.integers(0, 2) if i in mentioned else st.just(0) for i in range(d)])
    # Two terms at least: a monomial generator is a unit.
    gens = draw(st.lists(st.dictionaries(mono, st.integers(1, p - 1), min_size=2, max_size=3),
                         min_size=1, max_size=2))
    exponent = st.one_of(st.integers(0, 2 * p), st.integers(p ** 3, p ** 3 + p))
    exps = draw(st.lists(st.tuples(*[exponent] * d), min_size=3, max_size=3))
    return p, d, gens, exps


class TestFreeVariables:
    @given(split_cases())
    @settings(max_examples=150, deadline=None)
    @example((2, 3, [terms_of("1", 3, 2)], [(9, 0, 17), (0, 0, 0), (1, 8, 2)]))  # unit ideal
    @example((3, 2, [], [(30, 4), (0, 27), (2, 2)]))                            # no generators
    @example((2, 4, [terms_of("1 + u2 + u3", 4, 2), terms_of("u1 * u4 - 1", 4, 2)],
              [(9, 8, 1, 3), (1, 0, 0, 8), (0, 9, 9, 0)]))                      # nothing free
    @example((2, 4, [terms_of("1 + u2 + u3", 4, 2)], [(9, 8, 1, 3), (8, 0, 0, 9), (3, 9, 9, 10)]))
    def test_matches_division_by_the_full_basis(self, case):
        # The reference divides by the Buchberger basis with the saturation
        # variable: no principal shortcut, no memo, no ladder, no factoring.
        p, d, gens, exps = case
        dom = GF(p)
        ideal = IdealPresentation([LaurentPoly(d, dom, g) for g in gens], p, d=d)
        full = _prepared(ideal._full_basis(), p)
        for m in exps:
            assert ideal.normal_form_monomial(m) == _normal_form({m + (0,): 1}, full, p)
        mentioned = {i for g in gens for m in g for i, e in enumerate(m) if e}
        assert set(ideal._free) >= set(range(d)) - mentioned


# -- the substitution engine against elimination by Laurent powers ----------

def _eliminate_variable(f: LaurentPoly, var: int, g: LaurentPoly) -> LaurentPoly:
    """Replace u_var by the polynomial g, multiplying through by g^{-B} to
    clear negative powers.  The result is zero iff the image of f is zero in
    the localization (g is nonzero in a domain there)."""
    if f.is_zero():
        return f
    exps = [m[var] for m in f.terms]
    low = min(min(exps), 0)
    acc = LaurentPoly.zero(f.d, f.domain)
    for m, c in f.terms.items():
        rest = list(m)
        rest[var] = 0
        acc = acc + LaurentPoly.monomial(f.d, f.domain, rest, c) * laurent_power(g, m[var] - low)
    return acc


def eliminated_to_zero(ideal, f):
    """The reference substitution engine: _eliminate_variable per hint, the
    highest substituted variable first, raising g by repeated squaring."""
    work = f
    for var in sorted(ideal.substitution, reverse=True):
        work = _eliminate_variable(work, var, ideal.substitution[var])
    return work.is_zero()


def laurent_hint(d, var, p, max_terms):
    """A Laurent polynomial in the variables before u_(var+1)."""
    mono = st.tuples(*[st.integers(-2, 2)] * var + [st.just(0)] * (d - var))
    return st.dictionaries(mono, st.integers(1, p - 1), min_size=1, max_size=max_terms)


def substitution_ideal(data, p, d, max_terms):
    """A substitution presentation with generators u_v - g_v: u1 -> c in
    d = 1, u2 -> h(u1) in d = 2, and in d = 3 either u3 -> g(u1, u2) alone
    or chained with u2 -> h(u1)."""
    dom = GF(p)
    top = d - 1
    vars_ = [top, top - 1] if d == 3 and data.draw(st.booleans()) else [top]
    hints = {v: LaurentPoly(d, dom, data.draw(laurent_hint(d, v, p, max_terms)))
             for v in vars_}
    gens = [LaurentPoly.variable(v, d, dom) - g for v, g in hints.items()]
    try:
        return IdealPresentation(gens, p, d=d, substitution=hints)
    except DomainError as err:
        # Only a chained hint whose image is zero, which is not a unit, may
        # be refused; any other refusal is a fault of the engine.
        if "not a unit" not in str(err):
            raise
        assume(False)


def member_candidate(data, ideal, power):
    """Random Laurent terms with exponents up to 4 p^power, often times a
    generator raised to p^k for some k <= power (so a member); the planted
    flag says which."""
    d, p = ideal.d, ideal.characteristic
    dom = GF(p)
    mono = st.tuples(*[st.integers(-3, 4 * p ** power)] * d)
    f = LaurentPoly(d, dom, data.draw(st.dictionaries(
        mono, st.integers(1, p - 1), min_size=1, max_size=3)))
    planted = data.draw(st.booleans())
    if planted:
        gen = data.draw(st.sampled_from(ideal.generators))
        f = f * frobenius_power(gen, data.draw(st.integers(0, power)))
    return f, planted


class TestSubstitutionLadder:
    # The reference raises g by squaring dense intermediate powers, and the
    # Groebner normal form of a d = 3 monomial of degree 4 * 5^5 can take
    # seconds, so the three engines meet at full range only in d = 1.
    TOP_POWER = {1: 5, 2: 3, 3: 2}

    @given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_and_groebner(self, p, d, data):
        ideal = substitution_ideal(data, p, d, 3)
        f, planted = member_candidate(data, ideal, self.TOP_POWER[d])
        answer = ideal.contains_substitution(f)
        assert answer == eliminated_to_zero(ideal, f) == ideal.contains_groebner(f)
        if planted:
            assert answer

    @given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_planted_members_up_to_4p5(self, p, d, data):
        # Binomial hints keep g^b sparse over F_p (Lucas), so exponents up to
        # 4 p^5 stay cheap; a member plus a monomial, which is a unit, is
        # never a member of a proper ideal.
        ideal = substitution_ideal(data, p, d, 2)
        f, planted = member_candidate(data, ideal, 5)
        if planted:
            assert ideal.contains_substitution(f)
            unit = LaurentPoly.monomial(d, GF(p), data.draw(
                st.tuples(*[st.integers(-3, 4 * p ** 5)] * d)))
            assert not ideal.contains_substitution(f + unit)
        if d == 1 or p == 2:
            assert ideal.contains_substitution(f) == eliminated_to_zero(ideal, f)

    @given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_hint_powers_match_repeated_multiplication(self, p, d, data):
        ideal = substitution_ideal(data, p, d, 3)
        var = max(ideal.substitution)
        g = ideal.substitution[var]
        power = LaurentPoly.one(d, GF(p))
        top = data.draw(st.integers(0, 3 * p ** 2))
        for b in range(top + 1):
            assert LaurentPoly(d, GF(p), ideal._hint_power(var, b)) == power
            power = power * g

    def test_fractional_exponent_refused(self):
        # No polynomial with a fractional exponent reaches the engine: it
        # cannot be built.
        with pytest.raises(DomainError, match="non-integral exponent 1/2"):
            LaurentPoly(2, F2, {(0, Fraction(1, 2)): 1, (0, 0): 1})

    def test_memo_is_per_ideal(self, three_dot_subst):
        assert three_dot_subst.contains(p2("1 + u1^64 + u2^64"))
        other = IdealPresentation([p2("1 + u1 + u2")], 2, substitution={1: p2("1 + u1")})
        assert (1, 64) in three_dot_subst._hint_powers
        assert (1, 64) not in other._hint_powers
