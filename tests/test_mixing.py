"""Certificates, searches, and the unit equation."""

from fractions import Fraction
from itertools import combinations, product
from math import lcm
from pathlib import Path
from typing import List
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mixlab import linalg, mixing
from mixlab.ideals import IdealPresentation
from mixlab.mixing import (
    KERNEL_COMBO_LIMIT,
    BudgetExceededError,
    CertificateError,
    ConsecutiveRatio,
    ExplicitList,
    NonMixingCertificate,
    PrimePower,
    SearchOutcome,
    UnitSolution,
    _canonical_shapes,
    _projective_combinations,
    enumerate_unit_solutions,
    ess_bound_exponent,
    evaluation_shape_search,
    frobenius_certificate,
    rational_dual_certificate,
    shape_search,
    verify_certificate,
)
from mixlab.cli import main
from mixlab.numfield import FieldElement, FieldPresentationError, NumberField
from mixlab.presentation import certificate_to_dict
from mixlab.ring import GF, DomainError, LaurentPoly
from mixlab.systems import (
    AlgebraicSystem,
    CharPModule,
    EvaluationModule,
    InvalidTupleError,
    Module,
    RationalDualModule,
    _unit_power,
    box_points,
    character_correlation,
    free_abelian,
    positive_rationals,
)

F2 = GF(2)
SAMPLES = Path(__file__).resolve().parents[1] / "presentations"


def p2(text, d=2):
    return LaurentPoly.parse(text, d, F2)


QQ1 = NumberField([-1, 1])
SQRT2 = NumberField([-2, 0, 1])


# -- references: the determinant filter, the kernel solvers, the per-vector
# replay and the full-product enumerator ------------------------------------

_FILTER_PRIME = (1 << 61) - 1


def _det_mod(rows, p):
    work = [list(r) for r in rows]
    n = len(work)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col] % p
        inv = pow(work[col][col], -1, p)
        for r2 in range(col + 1, n):
            f = work[r2][col] * inv % p
            if f:
                work[r2] = [(a - f * b) % p for a, b in zip(work[r2], work[col])]
    return det % p


def _fraction_kernel(rows: List[List[Fraction]], ncols: int) -> List[List[Fraction]]:
    work = [list(r) for r in rows]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = 1 / work[row][col]
        work[row] = [x * inv for x in work[row]]
        for r2 in range(len(work)):
            if r2 != row and work[r2][col] != 0:
                f = work[r2][col]
                work[r2] = [a - f * b for a, b in zip(work[r2], work[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for rr, pc in zip(range(len(pivots)), pivots):
            vec[pc] = -work[rr][fcol]
        basis.append(vec)
    return basis


def _field_kernel(K: NumberField, rows, ncols):
    work = [list(r) for r in rows]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(work)) if not work[r][col].is_zero()), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = work[row][col].inv()
        work[row] = [x * inv for x in work[row]]
        for r2 in range(len(work)):
            if r2 != row and not work[r2][col].is_zero():
                f = work[r2][col]
                work[r2] = [a - f * b for a, b in zip(work[r2], work[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [K.zero] * ncols
        vec[fcol] = K.one
        for rr, pc in enumerate(pivots):
            vec[pc] = -work[rr][fcol]
        basis.append(vec)
    return basis


def _all_nonzero_kernel_vector(kernel):
    """A kernel vector with every coordinate nonzero, if one exists.

    Over an infinite field one exists iff no coordinate vanishes on the whole
    kernel; small integer combinations of the basis then find one.
    """
    ncols = len(kernel[0])
    for col in range(ncols):
        if all(Module.is_zero(vec[col]) for vec in kernel):
            return None
    for weights in product(range(0, len(kernel) + 2), repeat=len(kernel)):
        if all(w == 0 for w in weights):
            continue
        vec = []
        for i in range(ncols):
            acc = None
            for w, basis_vec in zip(weights, kernel):
                for _ in range(w):
                    acc = basis_vec[i] if acc is None else acc + basis_vec[i]
            vec.append(acc)
        if all(not Module.is_zero(x) for x in vec):
            return vec
    return None


def ref_evaluation_shape_search(system, r, shape_box, dilations=(1, 2, 3, 4)):
    """Every shape through exact elimination, behind a full-rank filter mod
    2^61 - 1 on Q, with the first all-nonzero kernel vector over small
    integer weights."""
    m = system.module
    points = [p for p in box_points(shape_box) if any(p)]
    origin = tuple(0 for _ in shape_box)
    region = {
        "shape_box": [list(b) for b in shape_box],
        "dilations": list(dilations),
        "order": r,
        "note": "bounded evidence over the listed region and dilations only",
    }
    rational = m.field.degree == 1
    found = []
    shapes_examined = 0
    if rational:
        value, mod_col = {}, {}
        for q in [origin] + points:
            x = _unit_power(m, q).coeffs[0]
            value[q] = x
            num, den = x.numerator % _FILTER_PRIME, x.denominator % _FILTER_PRIME
            if num and den:
                res = num * pow(den, -1, _FILTER_PRIME) % _FILTER_PRIME
                mod_col[q] = [pow(res, n, _FILTER_PRIME) for n in dilations]
            else:
                mod_col[q] = None
    for rest in combinations(points, r - 1):
        shape = (origin,) + rest
        shapes_examined += 1
        if rational:
            cols = [mod_col[q] for q in shape]
            if all(cols):
                square = [[col[i] for col in cols] for i in range(r)]
                if _det_mod(square, _FILTER_PRIME) != 0:
                    continue
            base = [value[q] for q in shape]
            kernel = _fraction_kernel([[x ** n for x in base] for n in dilations], r)
        else:
            base = [_unit_power(m, q) for q in shape]
            kernel = _field_kernel(m.field, [[x ** n for x in base] for n in dilations], r)
        if not kernel:
            continue
        vec = _all_nonzero_kernel_vector(kernel)
        if vec is None:
            continue
        if rational:
            den = 1
            for x in vec:
                den = lcm(den, Fraction(x).denominator)
            coeffs = tuple(Fraction(x) * den for x in vec)
        else:
            coeffs = tuple(vec)
        cert = NonMixingCertificate(
            order=r,
            shape=tuple(tuple(q) for q in shape),
            coefficients=coeffs,
            family=ExplicitList(tuple(dilations)),
            transcript=tuple((n, 1) for n in dilations),
            grade="evidence",
        )
        if verify_certificate(system, cert).ok:
            found.append(cert)
    region["shapes_examined"] = shapes_examined
    return SearchOutcome(found, region)


def _canonical_shape(points):
    """A shape translated so its minimum on each axis is 0, points sorted."""
    mins = [min(p[i] for p in points) for i in range(len(points[0]))]
    return tuple(sorted(tuple(x - m for x, m in zip(p, mins)) for p in points))


def ref_shape_search(system, r, shape_box, coeff_window, dilations):
    """The kernel search with every combination of the basis replayed:
    blocks tested with `ideal.contains` and each certificate through
    `verify_certificate`."""
    ideal = system.module.ideal
    if ideal.constant_in_ideal():
        raise CertificateError("quotient is trivial (unit ideal)")
    p = ideal.characteristic
    dom = GF(p)
    window = list(box_points(coeff_window))
    nf_cols = [ideal.normal_form_monomial(w) for w in window]
    mono_keys = sorted({mu for col in nf_cols for mu in col})
    mat = [{j: col[mu] for j, col in enumerate(nf_cols) if mu in col} for mu in mono_keys]
    _, pivots = linalg.rref(mat, len(window), p)
    window = [window[j] for j in pivots]
    points = list(box_points(shape_box))
    shapes = sorted({_canonical_shape(c) for c in combinations(points, r)})
    region = {
        "shape_box": [list(b) for b in shape_box],
        "coeff_window": [list(b) for b in coeff_window],
        "reduced_window_size": len(window),
        "dilations": list(dilations),
        "shapes_examined": len(shapes),
        "order": r,
    }
    if not window:
        return SearchOutcome([], region)
    ncols = r * len(window)
    found = []
    seen_vectors = set()
    for shape in shapes:
        col_nf = []
        for s in range(r):
            for w in window:
                col = {}
                for n in dilations:
                    mono = tuple(n * q + e for q, e in zip(shape[s], w))
                    for mu, c in ideal.normal_form_monomial(mono).items():
                        col[(n, mu)] = c
                col_nf.append(col)
        row_of = {k: i for i, k in enumerate(sorted({k for col in col_nf for k in col}))}
        kernel = linalg.nullspace([{row_of[k]: c for k, c in col.items()} for col in col_nf],
                                  ncols, p)
        if not kernel:
            continue
        if p ** len(kernel) > KERNEL_COMBO_LIMIT:
            raise BudgetExceededError(
                f"kernel dimension {len(kernel)} exceeds the combination budget",
                {**region, "shape": [list(q) for q in shape]},
            )
        for weights in product(range(p), repeat=len(kernel)):
            if all(w == 0 for w in weights):
                continue
            vec = [0] * ncols
            for wgt, basis_vec in zip(weights, kernel):
                if wgt:
                    vec = [(a + wgt * b) % p for a, b in zip(vec, basis_vec)]
            if not any(vec):
                continue
            lead = next(x for x in vec if x)
            inv = pow(lead, -1, p)
            vec = tuple((x * inv) % p for x in vec)
            if (shape, vec) in seen_vectors:
                continue
            seen_vectors.add((shape, vec))
            blocks = []
            for s in range(r):
                terms = {}
                for j, w in enumerate(window):
                    c = vec[s * len(window) + j]
                    if c:
                        terms[w] = c
                blocks.append(LaurentPoly(ideal.d, dom, terms))
            if any(b.is_zero() or ideal.contains(b) for b in blocks):
                continue
            cert = NonMixingCertificate(
                order=r,
                shape=tuple(tuple(q) for q in shape),
                coefficients=tuple(blocks),
                family=ExplicitList(tuple(dilations)),
                transcript=tuple((n, 1) for n in dilations),
                grade="evidence",
            )
            if verify_certificate(system, cert).ok:
                found.append(cert)
    return SearchOutcome(found, region)


def ref_separation_check(cert):
    """Separation by enumeration: for every pair of slots, the differences
    (ratios for (1, n, n-1)) over the transcript must not repeat."""
    mult = isinstance(cert.family, ConsecutiveRatio)
    shapes = [cert.family.shape_at(cert.shape, n) for n, _ in cert.transcript]
    for s, t in combinations(range(cert.order), 2):
        seen = set()
        for shape in shapes:
            if mult:
                diff = Fraction(shape[s]) / Fraction(shape[t])
            else:
                diff = tuple(a - b for a, b in zip(shape[s], shape[t]))
            if diff in seen:
                return False
            seen.add(diff)
    return True


def _proper_subsum_vanishes(K, terms):
    """Whether some nonempty proper subset of the terms sums to zero, tried
    as every bit mask short of the full set."""
    n = len(terms)
    for mask in range(1, 2 ** n - 1):
        total = K.zero
        for i in range(n):
            if mask >> i & 1:
                total = total + terms[i]
        if total == K.zero:
            return True
    return False


def ref_enumerate_unit_solutions(K, coefficients, generators, box, budget=500_000):
    """Every n-tuple of units in the box, tested against the equation."""
    coefficients = [a if isinstance(a, FieldElement) else K.from_rational(a)
                    for a in coefficients]
    generators = [g if isinstance(g, FieldElement) else K.from_rational(g)
                  for g in generators]
    n = len(coefficients)
    rgen = len(generators)
    B = box
    units = {}
    for e in sorted(product(range(-B, B + 1), repeat=rgen)):
        val = K.one
        for g, k in zip(generators, e):
            val = val * g ** k
        units.setdefault(val, e)
    unit_items = sorted(units.items(), key=lambda kv: kv[1])
    # The enumerator's refusal rule: it makes one lookup per choice of
    # x1..x_{n-1}, although this reference tries all |U|^n tuples.  It first
    # refuses when a generator of infinite order alone, with its 2B + 1
    # distinct powers, breaks the budget.  A root of unity in a field of
    # degree D has an order k <= 2 D^2, so it is fixed by g^lcm(1..2 D^2).
    region = {"box": B, "generators": rgen, "terms": n}
    least = (2 * B + 1) ** (n - 1)
    period = lcm(*range(1, 2 * K.degree ** 2 + 1))
    if any(g ** period != K.one for g in generators) and least > budget:
        raise BudgetExceededError(
            f"at least {least} combinations exceed the budget {budget}", region)
    total = len(unit_items) ** (n - 1)
    if total > budget:
        raise BudgetExceededError(f"{total} combinations exceed the budget {budget}", region)
    solutions = []
    for combo in product(unit_items, repeat=n):
        values = tuple(v for v, _ in combo)
        total_sum = K.zero
        for a, x in zip(coefficients, values):
            total_sum = total_sum + a * x
        if total_sum != K.one:
            continue
        if _proper_subsum_vanishes(K, [a * x for a, x in zip(coefficients, values)]):
            continue
        solutions.append(UnitSolution(tuple(e for _, e in combo), values))
    return solutions


def _search_result(search, *args):
    """Certificates as written to disk and the region, or the refusal."""
    try:
        outcome = search(*args)
    except (BudgetExceededError, CertificateError, DomainError) as e:
        return type(e).__name__, str(e), getattr(e, "region", None)
    return [certificate_to_dict(c) for c in outcome], outcome.region


def replaced(cert: NonMixingCertificate, **change) -> NonMixingCertificate:
    """A copy of the certificate with the named parts changed."""
    parts = {name: getattr(cert, name) for name in NonMixingCertificate.__slots__}
    return NonMixingCertificate(**{**parts, **change})


def _poly_text(terms, names, negate=None):
    """The polynomial with the given terms (negated mod `negate` if set)."""
    return " + ".join(
        f"{negate - c if negate else c}" + "".join(f"*{v}^{e}" for v, e in zip(names, m) if e)
        for m, c in terms.items()
    )


@st.composite
def charp_search_cases(draw):
    """Small ideals over F_2, F_3, F_5 in d <= 2 (with a substitution hint
    when the generators solve variables in earlier ones) and small searches,
    with dilation lists that may repeat."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 2))
    names = [f"u{i + 1}" for i in range(d)]
    unit = st.integers(1, p - 1)
    if draw(st.booleans()):
        # Generators u_v - g_v with g_v in earlier variables: the hint itself.
        hint = {0: {(0,) * d: draw(unit)}} if d == 1 or draw(st.booleans()) else {}
        if d == 2:
            hint[1] = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.just(0)), unit,
                                           min_size=1, max_size=3))
            if 0 in hint:  # u2 must go to a unit once u1 is substituted
                c = hint[0][(0, 0)]
                assume(sum(a * c ** m[0] for m, a in hint[1].items()) % p)
        gens = [f"{names[v]} + {_poly_text(g, names, negate=p)}" for v, g in sorted(hint.items())]
        hint = {v: _poly_text(g, names) for v, g in hint.items()}
    else:
        hint = None
        terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * d), unit,
                                min_size=1, max_size=3)
        gens = [_poly_text(t, names) for t in draw(st.lists(terms, min_size=1, max_size=2))]
    if d == 1:
        shape_box = [(0, draw(st.integers(1, 3)))]
        window = [(0, draw(st.integers(0, 2)))]
    else:
        shape_box = [(0, 1)] * 2
        window = [(0, draw(st.integers(0, 1)))] * 2
    points = len(list(box_points(shape_box)))
    r = draw(st.integers(2, min(4, points)))
    dilations = tuple(draw(st.lists(st.sampled_from([1, 1, 2, 2, 3, 4]),
                                    min_size=1, max_size=4)))
    return p, d, gens, hint, r, shape_box, window, dilations


@pytest.fixture(scope="module")
def three_dot():
    ideal = IdealPresentation([p2("1 + u1 + u2")], 2)
    return AlgebraicSystem(free_abelian(2), CharPModule(ideal), name="three-dot")


@pytest.fixture(scope="module")
def solenoid_23():
    K = NumberField([-1, 1])
    module = EvaluationModule.make(K, {0: K.from_rational(2), 1: K.from_rational(3)})
    return AlgebraicSystem(free_abelian(2), module, name="times2-times3")


@pytest.fixture(scope="module")
def rational_dual():
    return AlgebraicSystem(
        positive_rationals(None), RationalDualModule(), name="rational-dual"
    )


class TestFrobeniusCertificates:
    def test_generator_certificate(self, three_dot):
        cert = frobenius_certificate(three_dot, p2("1 + u1 + u2"), kmax=5)
        assert cert.order == 3
        assert cert.grade == "proof"
        assert set(cert.shape) == {(0, 0), (1, 0), (0, 1)}
        assert [n for n, _ in cert.transcript] == [2 ** k for k in range(6)]
        assert all(bit == 1 for _, bit in cert.transcript)

    def test_rejects_non_members(self, three_dot):
        with pytest.raises(CertificateError):
            frobenius_certificate(three_dot, p2("1 + u1"))

    def test_rejects_negative_kmax(self, three_dot):
        # kmax -1 would give an empty transcript under a proof grade.
        with pytest.raises(CertificateError, match="kmax"):
            frobenius_certificate(three_dot, p2("1 + u1 + u2"), kmax=-1)

    def test_rejects_tiny_support(self, three_dot):
        with pytest.raises(CertificateError):
            frobenius_certificate(three_dot, LaurentPoly.zero(2, F2))

    def test_verification_replays(self, three_dot):
        cert = frobenius_certificate(three_dot, p2("1 + u1 + u2"))
        report = verify_certificate(three_dot, cert)
        assert report.ok
        assert report.first_failure is None
        assert report.verdict == "PASS"

    def test_tampered_certificate_fails(self, three_dot):
        cert = frobenius_certificate(three_dot, p2("1 + u1 + u2"))
        bad = NonMixingCertificate(
            order=cert.order,
            shape=((0, 0), (1, 1), (0, 1)),  # wrong shape
            coefficients=cert.coefficients,
            family=cert.family,
            transcript=cert.transcript,
            grade=cert.grade,
        )
        report = verify_certificate(three_dot, bad)
        assert not report.ok
        assert report.first_failure == 1

    def test_each_coefficient_validated_once(self, three_dot, monkeypatch):
        calls = []
        real = CharPModule.is_zero

        def counted(module, a):
            calls.append(a)
            return real(module, a)

        monkeypatch.setattr(CharPModule, "is_zero", counted)
        cert = frobenius_certificate(three_dot, p2("1 + u1 + u2"), kmax=6)
        assert calls == [p2("1")]  # one distinct coefficient, 7 dilations
        calls.clear()
        assert verify_certificate(three_dot, cert).ok
        assert calls == [p2("1")]
        calls.clear()
        # Three distinct coefficients over 5 dilations: 3 tests, not 15.
        product_cert = NonMixingCertificate(
            order=3,
            shape=((0, 0), (1, 0), (0, 1)),
            coefficients=(p2("u1 + u2^2"), p2("u1^2 + u2^3"), p2("u1^3 + u2")),
            family=PrimePower(2),
            transcript=tuple((2 ** k, 1) for k in range(5)),
            grade="proof",
        )
        verify_certificate(three_dot, product_cert)
        assert len(calls) == 3

    def test_merged_coefficient_still_validated(self, three_dot, solenoid_23, monkeypatch):
        # The shape repeats a point, so both shifts collide at n = 1 and the
        # merged coefficient 1 + u1 + u2 is zero in the module, though each
        # part is not.
        cert = NonMixingCertificate(
            order=2,
            shape=((0, 0), (0, 0)),
            coefficients=(p2("1 + u1"), p2("u2")),
            family=ExplicitList((1,)),
            transcript=((1, 1),),
            grade="evidence",
        )
        with pytest.raises(InvalidTupleError, match="zero in the module"):
            verify_certificate(three_dot, cert)
        # Shape points compare exactly: (0, 0) and (Fraction(0), Fraction(0))
        # are one slot, whose coefficients 1 and -1 merge to zero and drop.
        replayed = []
        monkeypatch.setattr(mixing, "character_correlation",
                            lambda system, pairs: replayed.append(pairs) or 0)
        exact = NonMixingCertificate(
            order=3, shape=((Fraction(0), Fraction(0)), (1, 0), (0, 0)),
            coefficients=(Fraction(1), Fraction(1), Fraction(-1)),
            family=ExplicitList((1,)), transcript=((1, 1),), grade="evidence")
        assert verify_certificate(solenoid_23, exact).verdict == "FAIL at dilation 1"
        assert replayed == [[((1, 0), Fraction(1))]]
        # At n = 0 every shift collides; that dilation is refused outright.
        at_zero = replaced(cert, shape=((0, 0), (1, 0)), family=ExplicitList((1, 0)),
                           transcript=((1, 1), (0, 1)))
        with pytest.raises(CertificateError, match="positive"):
            verify_certificate(three_dot, at_zero)


@st.composite
def lattice_certificates(draw):
    """Certificates of a lattice family over F_2 in d <= 2, with shape points
    and dilations that may repeat and coefficients that may cancel."""
    d = draw(st.integers(1, 2))
    point = st.tuples(*[st.integers(-1, 2)] * d)
    r = draw(st.integers(2, 4))
    shape = tuple(draw(st.lists(point, min_size=r, max_size=r)))
    coefficient = st.sampled_from(["1", "u1", "1 + u1", f"u{d}^-1", f"1 + u1 + u{d}^-1"])
    coefficients = tuple(LaurentPoly.parse(draw(coefficient), d, F2) for _ in range(r))
    dilations = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    family = draw(st.sampled_from([ExplicitList(tuple(dilations)), PrimePower(2)]))
    return NonMixingCertificate(order=r, shape=shape, coefficients=coefficients,
                                family=family, transcript=tuple((n, 1) for n in dilations),
                                grade="evidence")


@st.composite
def ratio_certificates(draw):
    dilations = draw(st.lists(st.integers(2, 9), min_size=1, max_size=5))
    return NonMixingCertificate(order=3, shape=(Fraction(1), Fraction(2), Fraction(1)),
                                coefficients=(Fraction(1), Fraction(-1), Fraction(1)),
                                family=ConsecutiveRatio(),
                                transcript=tuple((n, 1) for n in dilations), grade="proof")


class TestCertificateChecks:
    @given(st.one_of(lattice_certificates(), ratio_certificates()))
    @settings(max_examples=300, deadline=None)
    @example(NonMixingCertificate(order=3, shape=((0, 0), (1, 0), (0, 1)),
                                  coefficients=(p2("1"),) * 3, family=PrimePower(2),
                                  transcript=((2, 1), (2, 1)), grade="proof"))
    @example(NonMixingCertificate(order=2, shape=((1, 0), (1, 0)),
                                  coefficients=(p2("1"),) * 2, family=ExplicitList((3,)),
                                  transcript=((3, 1),), grade="evidence"))
    def test_separation_closed_form_matches_the_enumeration(self, cert):
        assert cert.family.separated(cert) == ref_separation_check(cert)

    def test_ratio_family_merges_at_two(self, monkeypatch):
        system = AlgebraicSystem(positive_rationals(None), RationalDualModule())
        cert = rational_dual_certificate(system, n_max=3)
        replayed = []

        def recorded(system, pairs):
            replayed.append(pairs)
            return character_correlation(system, pairs)

        monkeypatch.setattr(mixing, "character_correlation", recorded)
        assert verify_certificate(system, cert).ok
        # (1, 2, 1) merges its two shifts 1 and keeps the shift 2.
        assert [len(pairs) for pairs in replayed] == [2, 3]

    @pytest.mark.parametrize("change, message", [
        ({"order": 2}, "does not match"),
        ({"order": 4, "shape": ((0, 0), (1, 0), (0, 1), (1, 1))}, "does not match"),
        ({"coefficients": (p2("1"),) * 4}, "does not match"),
        ({"order": 5}, "does not match"),
        ({"order": 1, "shape": ((0, 0),), "coefficients": (p2("1"),)}, "below 2"),
        ({"order": 0, "shape": (), "coefficients": ()}, "below 2"),
        ({"transcript": ()}, "transcript is empty"),
        ({"transcript": ((1, 1), (0, 1))}, "positive"),
    ])
    def test_parts_must_agree(self, three_dot, change, message):
        cert = frobenius_certificate(three_dot, p2("1 + u1 + u2"), kmax=2)
        with pytest.raises(CertificateError, match=message):
            verify_certificate(three_dot, replaced(cert, **change))

    @pytest.mark.parametrize("change, message", [
        ({"transcript": ((1, 1), (2, 1))}, "at least 2"),
        ({"order": 4, "shape": (1, 2, 1, 3), "coefficients": (1, -1, 1, 5)}, "order 3"),
    ])
    def test_ratio_family_range_and_order(self, rational_dual, change, message):
        cert = rational_dual_certificate(rational_dual, n_max=4)
        with pytest.raises(CertificateError, match=message):
            verify_certificate(rational_dual, replaced(cert, **change))

    @pytest.mark.parametrize("change, message", [
        ({"shape": ((Fraction(1), Fraction(0)), (0, 1), (0, 0))}, "integer shape points"),
        ({"shape": (1, 2, 1)}, "needs exponent-vector shape points"),
        ({"family": ConsecutiveRatio(), "shape": (1, 2, 1),
          "transcript": ((2, 1),)}, "shifts by rationals"),
    ])
    def test_hand_built_certificates_meet_the_file_rules(self, three_dot, change, message):
        # The rules a decoded certificate meets hold for one built in memory.
        cert = frobenius_certificate(three_dot, p2("1 + u1 + u2"), kmax=2)
        with pytest.raises(CertificateError, match=message):
            verify_certificate(three_dot, replaced(cert, **change))

    def test_rational_dual_takes_only_its_family(self, rational_dual):
        cert = rational_dual_certificate(rational_dual, n_max=4)
        with pytest.raises(CertificateError, match="not explicit_list"):
            verify_certificate(rational_dual, replaced(cert, family=ExplicitList((2, 3, 4))))

    @pytest.mark.parametrize("change, grade", [
        ({}, "proof"),
        ({"family": PrimePower(3)}, "evidence"),
        ({"transcript": ((2, 1), (4, 1))}, "evidence"),
        ({"coefficients": (p2("u1"), p2("u1"), p2("u1"))}, "evidence"),
        ({"family": ExplicitList((1, 2, 4))}, "evidence"),
    ])
    def test_prime_power_grade_is_derived(self, three_dot, change, grade):
        cert = replaced(frobenius_certificate(three_dot, p2("1 + u1 + u2"), kmax=2), **change)
        assert verify_certificate(three_dot, replaced(cert, grade="evidence")).ok
        report = verify_certificate(three_dot, cert)
        assert report.ok == (grade == "proof")
        assert report.verdict == ("PASS" if grade == "proof" else "FAIL: grade")

    def test_frobenius_certificate_is_verified(self, three_dot, monkeypatch):
        monkeypatch.setattr(mixing, "character_correlation", lambda *args: 0)
        with pytest.raises(CertificateError, match="FAIL at dilation 1"):
            frobenius_certificate(three_dot, p2("1 + u1 + u2"), kmax=2)

    def test_separation_failure_has_no_failing_dilation(self, three_dot):
        cert = frobenius_certificate(three_dot, p2("1 + u1 + u2"), kmax=2)
        report = verify_certificate(three_dot, replaced(cert, transcript=((2, 1), (2, 1))))
        assert not report.ok and report.verdict == "FAIL: separation"
        assert report.first_failure is None


def principal_system(p, substitution):
    """The ideal (1 + u1 + u2) over F_p, by the Groebner basis or by the
    hint u2 -> -1 - u1 that solves it."""
    dom = GF(p)
    hint = {1: LaurentPoly.parse(f"{p - 1} + {p - 1}*u1", 2, dom)} if substitution else None
    ideal = IdealPresentation([LaurentPoly.parse("1 + u1 + u2", 2, dom)], p, d=2,
                              substitution=hint)
    return AlgebraicSystem(free_abelian(2), CharPModule(ideal))


class TestFrobeniusShortcut:
    """A dilation m p^j of an earlier m whose sum lies in the ideal takes
    bit 1 from the Frobenius identity, not the oracle.  That the report is
    unchanged is checked against a per-dilation reference in
    `tests/test_replay.py`."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("substitution", [False, True])
    def test_one_oracle_call_per_chain(self, p, substitution):
        system = principal_system(p, substitution)
        k = 4
        with mock.patch.object(mixing, "character_correlation",
                               wraps=character_correlation) as oracle:
            cert = frobenius_certificate(system, LaurentPoly.parse("1 + u1 + u2", 2, GF(p)),
                                         kmax=k)
            assert oracle.call_count == 1
            assert verify_certificate(system, cert).ok
            assert oracle.call_count == 2
            # The chain is a rule of both lattice families: relabelled as an
            # explicit list of its transcript, the certificate costs the same.
            explicit = ExplicitList(tuple(cert.dilations()))
            assert verify_certificate(system, replaced(cert, family=explicit,
                                                       grade="evidence")).ok
            assert oracle.call_count == 3
            # u1 (1 + u1^n + u2^n) = u1 f^n lies in the ideal at every n = p^j,
            # but the p-th power map does not fix u1: every dilation is replayed.
            polynomial = replaced(cert, coefficients=(LaurentPoly.parse("u1", 2, GF(p)),) * 3,
                                  grade="evidence")
            assert verify_certificate(system, polynomial).ok
            assert oracle.call_count == 3 + k + 1
            assert verify_certificate(system, replaced(polynomial, family=explicit)).ok
            assert oracle.call_count == 3 + 2 * (k + 1)


class TestShapeSearch:
    def test_order3_search_recovers_the_relation(self, three_dot):
        outcome = shape_search(
            three_dot, 3, [(0, 2)] * 2, [(0, 0)] * 2, (1, 2, 4)
        )
        shapes = {cert.shape for cert in outcome}
        assert ((0, 0), (0, 1), (1, 0)) in shapes

    def test_order2_search_is_empty(self, three_dot):
        outcome = shape_search(
            three_dot, 2, [(0, 3)] * 2, [(0, 2)] * 2, (1, 2, 4, 8)
        )
        assert len(outcome) == 0
        assert outcome.region["shapes_examined"] > 0

    def test_trivial_quotient_rejected(self):
        ideal = IdealPresentation([p2("1 + u1"), p2("u1")], 2)
        system = AlgebraicSystem(free_abelian(2), CharPModule(ideal))
        with pytest.raises(CertificateError):
            shape_search(system, 2, [(0, 1)] * 2, [(0, 1)] * 2, (1, 2))

    def test_order_below_two_rejected(self, three_dot):
        with pytest.raises(CertificateError):
            shape_search(three_dot, 1, [(0, 1)] * 2, [(0, 1)] * 2, (1,))

    @pytest.mark.parametrize("dilations", [(0,), (1, 2, 0), (1, -1)])
    def test_dilations_below_one_rejected(self, three_dot, dilations):
        with pytest.raises(CertificateError, match="dilations must be positive"):
            shape_search(three_dot, 2, [(0, 1)] * 2, [(0, 0)] * 2, dilations)

    def test_empty_dilations_rejected(self, three_dot):
        # With nothing to replay, every shape of a mixing order gave a certificate.
        with pytest.raises(CertificateError, match="must not be empty"):
            shape_search(three_dot, 2, [(0, 1)] * 2, [(0, 0)] * 2, ())

    @given(case=charp_search_cases())
    @example(case=(2, 2, ["1 + u1 + u2"], {1: "1 + u1"}, 3, [(0, 1)] * 2, [(0, 1)] * 2, (0, 1, 2)))
    @example(case=(2, 2, ["1 + u1 + u2"], {1: "1 + u1"}, 3, [(0, 1)] * 2, [(0, 1)] * 2, (1, 1, 2)))
    @example(case=(2, 2, ["1 + u1 + u2"], None, 3, [(0, 1)] * 2, [(0, 1)] * 2, (-1, 1, 2)))
    @example(case=(3, 1, ["u1 - 2"], {0: "2"}, 3, [(0, 3)], [(0, 2)], (0, 2)))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_vector_replay(self, case):
        p, d, gens, hint, r, shape_box, window, dilations = case
        dom = GF(p)
        generators = [LaurentPoly.parse(g, d, dom) for g in gens]
        ideals = [IdealPresentation(generators, p, d=d)]
        if hint is not None:
            ideals.append(IdealPresentation(
                generators, p, d=d,
                substitution={v: LaurentPoly.parse(t, d, dom) for v, t in hint.items()},
            ))
        for ideal in ideals:
            system = AlgebraicSystem(free_abelian(d), CharPModule(ideal))
            args = (system, r, shape_box, window, dilations)
            if min(dilations) < 1:
                # At dilation 0 the shifts collide; the search refuses it.
                with pytest.raises(CertificateError, match="positive"):
                    shape_search(*args)
                continue
            assert _search_result(shape_search, *args) == _search_result(ref_shape_search, *args)

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_projective_combinations_match_the_deduplicated_product(self, p, data):
        # Every weight vector in product() order, scaled and deduplicated.
        ncols = data.draw(st.integers(1, 6))
        rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=ncols,
                                           max_size=ncols), max_size=ncols))
        columns = [{i: r[c] for i, r in enumerate(rows)} for c in range(ncols)]
        kernel = linalg.nullspace(columns, ncols, p)
        assume(len(kernel) <= 4)
        expected = []
        for weights in product(range(p), repeat=len(kernel)):
            vec = [sum(w * b[c] for w, b in zip(weights, kernel)) % p for c in range(ncols)]
            if any(vec):
                inv = pow(next(x for x in vec if x), -1, p)
                vec = tuple(x * inv % p for x in vec)
                if vec not in expected:
                    expected.append(vec)
        assert list(_projective_combinations(kernel, p)) == expected

    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 2)), min_size=1, max_size=3),
           st.integers(2, 4))
    @example([(0, 1), (0, 1)], 3)
    @example([(-1, 2), (2, 1)], 3)
    @example([(1, -1), (0, 2)], 2)
    @settings(max_examples=60, deadline=None)
    def test_canonical_shapes_match_the_sorted_set(self, sides, r):
        # The old enumeration: canonicalize every r-subset, then sort the set.
        box = [(lo, lo + width) for lo, width in sides]
        expected = sorted({_canonical_shape(c) for c in combinations(box_points(box), r)})
        moved = list(box_points([(0, hi - lo) for lo, hi in box]))
        assert list(_canonical_shapes(moved, r)) == expected

    def test_box_lower_corner_only_translates(self, three_dot):
        args = (3, [(0, 1), (0, 1)], [(0, 1)] * 2, (1, 2, 4))
        result = _search_result(shape_search, three_dot, *args)
        assert result == _search_result(ref_shape_search, three_dot, *args)
        assert result[0]
        moved = (3, [(-2, -1), (5, 6)], [(0, 1)] * 2, (1, 2, 4))
        assert _search_result(shape_search, three_dot, *moved)[0] == result[0]

    def test_non_kernel_vector_is_refused(self, monkeypatch, tmp_path, capsys):
        # u^(n*q) times the first window monomial is a unit, never in the ideal.
        def first_unit_vector(rows, ncols, p):
            return [[1] + [0] * (ncols - 1)]

        monkeypatch.setattr(linalg, "nullspace", first_unit_vector)
        ideal = IdealPresentation([p2("1 + u1 + u2")], 2)
        system = AlgebraicSystem(free_abelian(2), CharPModule(ideal))
        with pytest.raises(CertificateError, match="does not vanish"):
            shape_search(system, 3, [(0, 1)] * 2, [(0, 1)] * 2, (1, 2, 4))
        code = main(["certify", str(SAMPLES / "ledrappier.json"), "--order", "3",
                     "--force-search", "--out", str(tmp_path)])
        assert code == 2
        assert "does not vanish" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestDilationFamilies:
    def test_prime_power_shape(self):
        fam = PrimePower(2)
        assert fam.shape_at(((0, 0), (1, 0)), 4) == (
            (Fraction(0), Fraction(0)),
            (Fraction(4), Fraction(0)),
        )

    def test_consecutive_ratio_shape(self):
        fam = ConsecutiveRatio()
        assert fam.shape_at(None, 5) == (Fraction(1), Fraction(5), Fraction(4))

    def test_explicit_family_records_dilations(self):
        fam = ExplicitList((1, 2, 4))
        assert fam.to_json() == {"kind": "explicit_list", "dilations": [1, 2, 4]}
        assert ExplicitList.from_json(fam.to_json()) == fam
        # Families compare, and hash, by class and value.
        assert PrimePower(2) == PrimePower(2)
        assert hash(PrimePower(2)) == hash(PrimePower(2))
        assert PrimePower(2) != PrimePower(3)
        assert ExplicitList((1, 2)) != PrimePower(2)
        assert ExplicitList((1, 2)) == ExplicitList((1, 2)) != ExplicitList((1, 2, 4))
        assert ConsecutiveRatio() == ConsecutiveRatio()
        assert hash(ConsecutiveRatio()) == hash(ConsecutiveRatio())


class TestEssBound:
    def test_pinned_values(self):
        assert ess_bound_exponent(1, 0) == 216
        assert ess_bound_exponent(1, 1) == 432
        assert ess_bound_exponent(2, 1) == 5_971_968

    def test_domain(self):
        with pytest.raises(DomainError):
            ess_bound_exponent(0, 0)


@pytest.fixture(scope="module")
def field():
    return NumberField([-1, 1])


class TestUnitEquation:
    def test_x_plus_y(self, field):
        values = [
            tuple(Fraction(v.coeffs[0]) for v in s.values)
            for s in enumerate_unit_solutions(field, [1, 1], [2], box=5)
        ]
        assert values == [(Fraction(1, 2), Fraction(1, 2))]

    def test_x_minus_y(self, field):
        values = [
            tuple(Fraction(v.coeffs[0]) for v in s.values)
            for s in enumerate_unit_solutions(field, [1, -1], [2], box=5)
        ]
        assert values == [(Fraction(2), Fraction(1))]

    def test_budget_enforced(self, field):
        with pytest.raises(BudgetExceededError) as e:
            enumerate_unit_solutions(field, [1, 1], [2, 3], box=5, budget=10)
        assert e.value.region["box"] == 5

    def test_budget_counts_lookups(self, field):
        # 121 units 2^a 3^b in the box, and x2 is solved for: 121 lookups.
        assert (enumerate_unit_solutions(field, [1, 1], [2, 3], box=5, budget=121)
                == ref_enumerate_unit_solutions(field, [1, 1], [2, 3], box=5, budget=121))
        with pytest.raises(BudgetExceededError, match="^121 combinations exceed the budget 120$"):
            enumerate_unit_solutions(field, [1, 1], [2, 3], box=5, budget=120)

    def test_zero_coefficient_rejected(self, field):
        with pytest.raises(DomainError, match="^coefficients and generators must be nonzero$"):
            enumerate_unit_solutions(field, [0, 1], [2], box=2)

    @pytest.mark.parametrize("n", [0, 21])
    def test_term_count_is_refused_before_any_power_table(self, field, n):
        # With no terms the solved-for x_n did not exist, and a budget of 0
        # was compared with (2B + 1)^-1 first; 21 terms broke the budget.
        with mock.patch.object(mixing, "power_products", side_effect=AssertionError("built")):
            for budget in (0, 500_000):
                with pytest.raises(DomainError,
                                   match=f"^a unit equation takes 1 to 20 terms, not {n}$"):
                    enumerate_unit_solutions(field, [1] * n, [2], box=3, budget=budget)

    def test_twenty_terms_are_taken(self, field):
        # The one unit 1 gives 20 terms summing to 20, never 1: an empty answer.
        assert enumerate_unit_solutions(field, [1] * 20, [], box=3) == []

    def test_number_field_refuses_before_any_power_table(self):
        # 2 has infinite order in Q(sqrt 2), so |U| >= 40001 > 1.
        with mock.patch.object(mixing, "power_products", side_effect=AssertionError("built")):
            with pytest.raises(BudgetExceededError) as e:
                enumerate_unit_solutions(SQRT2, [1, 1], [2], box=20_000, budget=1)
        assert str(e.value) == "at least 40001 combinations exceed the budget 1"
        assert e.value.region == {"box": 20_000, "generators": 1, "terms": 2}

    def test_non_invertible_generator_is_refused_before_the_budget(self):
        # x^2 + 1 divides zero modulo (x^2 + 1)^2, a reducible modulus that
        # escapes the rational-root screen: an input error, not exit 4.
        K = NumberField([1, 0, 2, 0, 1])
        with pytest.raises(FieldPresentationError):
            enumerate_unit_solutions(K, [1, 1], [K.element([1, 0, 1])], box=20_000, budget=1)

    @pytest.mark.parametrize("coeffs, gens, box, budget", [
        ([1, 1], [[0, 1]], 5, 4),  # |U| = 4 units i^k, under the budget of 4
        ([1, 1], [[0, 1], [2]], 2, 500_000),
        ([1, -1, 1], [[0, 1], [2]], 1, 500_000),
    ])
    def test_root_of_unity_in_gaussian_field(self, coeffs, gens, box, budget):
        # i has order 4 in Q(i): no early refusal, and exponents -B..-B+3 suffice.
        K = NumberField([1, 0, 1])
        gens = [K.element(g) for g in gens]
        assert (enumerate_unit_solutions(K, coeffs, gens, box, budget)
                == ref_enumerate_unit_solutions(K, coeffs, gens, box, budget))

    def test_finite_order_generator_builds_its_period_only(self, field):
        # -1 contributes exponents -B, -B + 1 only: 2 * 21 rows, not 21 * 21.
        built = []
        real = mixing.power_products
        with mock.patch.object(mixing, "power_products",
                               side_effect=lambda *a: built.append(a[2]) or real(*a)):
            found = enumerate_unit_solutions(field, [1, 1], [-1, 2], box=10)
        assert built == [[(-10, -9), (-10, 10)]]
        assert found == ref_enumerate_unit_solutions(field, [1, 1], [-1, 2], box=10)
        assert [s.exponents for s in found] == [
            ((-10, -1), (-10, -1)), ((-10, 1), (-9, 0)), ((-9, 0), (-10, 1))]

    def test_finite_order_generator_in_a_far_box(self, field):
        # -1 at exponents -10^9, -10^9 + 1: two products, not a walk from 0.
        assert enumerate_unit_solutions(field, [1, 1], [-1], box=10 ** 9) == []

    @given(
        field=st.sampled_from([QQ1, SQRT2]),
        coeffs=st.lists(
            st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3)]),
            min_size=1, max_size=3,
        ),
        gens=st.lists(
            st.sampled_from([-1, 2, 3, 4, Fraction(1, 2), Fraction(2, 3)]),
            min_size=1, max_size=2,
        ),
        box=st.integers(1, 2),
        budget=st.sampled_from([20, 500_000]),
    )
    @example(field=QQ1, coeffs=[1, 1], gens=[-1, 2], box=2, budget=500_000)
    @example(field=QQ1, coeffs=[1, 1, 1], gens=[-1, 2], box=1, budget=500_000)
    @example(field=QQ1, coeffs=[1, 1, -1], gens=[-1, 2], box=2, budget=500_000)
    @example(field=QQ1, coeffs=[2, -1], gens=[2, 4], box=2, budget=500_000)
    @example(field=SQRT2, coeffs=[1, 1], gens=[2], box=2, budget=500_000)
    @settings(max_examples=120, deadline=None)
    def test_matches_full_product(self, field, coeffs, gens, box, budget):
        units = (2 * box + 1) ** len(gens)
        if units ** len(coeffs) > 5000:
            budget = 20  # keeps the reference's |U|^n loop small
        try:
            expected = ref_enumerate_unit_solutions(field, coeffs, gens, box, budget)
        except BudgetExceededError as e:
            with pytest.raises(BudgetExceededError) as got:
                enumerate_unit_solutions(field, coeffs, gens, box, budget)
            assert (str(got.value), got.value.region) == (str(e), e.region)
            return
        assert enumerate_unit_solutions(field, coeffs, gens, box, budget) == expected


class TestEvaluationSearch:
    def test_small_box_is_empty(self, solenoid_23):
        outcome = evaluation_shape_search(solenoid_23, 2, [(-3, 3)] * 2)
        assert len(outcome) == 0
        assert "bounded evidence" in outcome.region["note"]

    def test_default_dilations_are_one_to_r_plus_one(self, solenoid_23):
        # The default once was 1..4 at every order, refused at r = 5.
        outcome = evaluation_shape_search(solenoid_23, 5, [(-1, 1)] * 2)
        assert outcome.region["dilations"] == [1, 2, 3, 4, 5, 6]
        assert len(outcome) == 0 and outcome.region["shapes_examined"] == 70

    def test_underdetermined_dilations_rejected(self, solenoid_23):
        with pytest.raises(CertificateError):
            evaluation_shape_search(solenoid_23, 3, [(-2, 2)] * 2, dilations=(1, 2))

    @pytest.mark.parametrize("dilations", [(1, 2, 0), (-1, 1, 2)])
    def test_dilations_below_one_rejected(self, solenoid_23, dilations):
        with pytest.raises(CertificateError, match="dilations must be positive"):
            evaluation_shape_search(solenoid_23, 2, [(-2, 2)] * 2, dilations=dilations)

    def test_dilations_missing_part_of_one_to_r_rejected(self, solenoid_23):
        with pytest.raises(CertificateError):
            evaluation_shape_search(solenoid_23, 3, [(-2, 2)] * 2, dilations=(1, 2, 4))

    @given(
        field=st.sampled_from([QQ1, SQRT2]),
        picks=st.lists(st.integers(0, 5), min_size=2, max_size=2),
        d=st.integers(1, 2),
        r=st.integers(2, 4),
        extra=st.lists(st.sampled_from([4, 5, 6]), max_size=2, unique=True),
        perm=st.permutations([1, 2, 3, 4, 5, 6]),
    )
    @example(field=QQ1, picks=[2, 2], d=2, r=3, extra=[4], perm=[1, 2, 3, 4, 5, 6])
    @example(field=QQ1, picks=[0, 3], d=2, r=3, extra=[], perm=[3, 1, 2, 4, 5, 6])
    @example(field=QQ1, picks=[2, 3], d=2, r=2, extra=[5], perm=[6, 5, 4, 3, 2, 1])
    @example(field=SQRT2, picks=[1, 2], d=2, r=3, extra=[4], perm=[1, 2, 3, 4, 5, 6])
    @example(field=SQRT2, picks=[1, 0], d=2, r=2, extra=[], perm=[1, 2, 3, 4, 5, 6])
    @example(field=QQ1, picks=[2, 3], d=2, r=4, extra=[], perm=[1, 2, 3, 4, 5, 6])
    @example(field=SQRT2, picks=[1, 2], d=2, r=4, extra=[5], perm=[1, 2, 3, 4, 5, 6])
    # Classes of 3 members: u1 -> -1, u2 -> 1 and (1+sqrt2)(-1+sqrt2) = 1.
    @example(field=QQ1, picks=[0, 1], d=2, r=3, extra=[], perm=[1, 2, 3, 4, 5, 6])
    @example(field=SQRT2, picks=[1, 2], d=2, r=3, extra=[], perm=[3, 2, 1, 4, 5, 6])
    @settings(max_examples=40, deadline=None)
    def test_matches_determinant_filter(self, field, picks, d, r, extra, perm):
        # Pools hold -1, coinciding and multiplicatively dependent units.
        if field is QQ1:
            pool = [[-1], [1], [2], [4], [Fraction(1, 2)], [Fraction(-2, 3)]]
        else:
            pool = [[-1], [1, 1], [-1, 1], [3, 2], [2], [0, 1]]
        box = 2 if d == 1 or (field is QQ1 and r < 4) else 1
        module = EvaluationModule.make(
            field, {i: field.element(pool[k]) for i, k in enumerate(picks[:d])}
        )
        system = AlgebraicSystem(free_abelian(d), module)
        shape_box = [(-box, box)] * d
        dilations = tuple(n for n in perm if n <= r or n in extra)
        expected = ref_evaluation_shape_search(system, r, shape_box, dilations)
        outcome = evaluation_shape_search(system, r, shape_box, dilations)
        assert outcome.certificates == expected.certificates
        assert list(outcome.region.items()) == list(expected.region.items())

    @pytest.mark.parametrize("field, units, shape", [
        (QQ1, ([-1], [1]), ((0, 0), (0, 1), (0, 2))),
        (SQRT2, ([1, 1], [-1, 1]), ((0, 0), (-1, -1), (1, 1))),
    ])
    def test_three_member_class_reads_off_minus_two(self, field, units, shape):
        module = EvaluationModule.make(
            field, {i: field.element(u) for i, u in enumerate(units)}
        )
        system = AlgebraicSystem(free_abelian(2), module)
        outcome = evaluation_shape_search(system, 3, [(-2, 2)] * 2)
        cert = next(c for c in outcome if c.shape == shape)
        assert cert.coefficients == tuple(
            field.from_rational(c) if field.degree > 1 else Fraction(c)
            for c in (-2, 1, 1)
        )

    def test_dependent_units_are_found(self):
        # u1 -> 2 and u2 -> 2 collide, so the pair (u1, u2) is visibly
        # dependent: c1*2^n + c2*2^n = 0 with c = (1, -1) for every n.
        K = NumberField([-1, 1])
        module = EvaluationModule.make(
            K, {0: K.from_rational(2), 1: K.from_rational(2)}
        )
        system = AlgebraicSystem(free_abelian(2), module)
        outcome = evaluation_shape_search(system, 2, [(-1, 1)] * 2)
        assert len(outcome) > 0
        cert = outcome.certificates[0]
        assert verify_certificate(system, cert).ok

    def test_failed_replay_is_an_internal_fault(self, monkeypatch):
        # The value classes said the sum vanishes; a replay that disagrees is
        # a fault to report, not a certificate to drop.
        K = QQ1
        module = EvaluationModule.make(K, {0: K.from_rational(2), 1: K.from_rational(2)})
        system = AlgebraicSystem(free_abelian(2), module)
        monkeypatch.setattr(mixing, "character_correlation", lambda *args: 0)
        with pytest.raises(CertificateError, match="internal value-class fault"):
            evaluation_shape_search(system, 2, [(-1, 1)] * 2)


class TestRationalDual:
    def test_solved_coefficients(self, rational_dual):
        a1, a2, a3 = rational_dual_certificate(rational_dual, n_max=10).coefficients
        assert (a1, a2, a3) == (Fraction(1), Fraction(-1), Fraction(1))
        assert a1 - a3 == 0 and a2 + a3 == 0
        for n in (2, 3, 17):
            assert a1 * 1 + a2 * n + a3 * (n - 1) == 0

    def test_certificate_family(self, rational_dual):
        cert = rational_dual_certificate(rational_dual, n_max=50)
        assert cert.order == 3
        assert cert.family == ConsecutiveRatio()
        assert all(bit == 1 for _, bit in cert.transcript)
        assert verify_certificate(rational_dual, cert).ok

    def test_consecutive_ratio_is_irreducible(self, rational_dual):
        # No proper subsum of 1 * 1 - 1 * n + 1 * (n - 1) vanishes at any
        # transcript dilation: only the whole sum does.
        cert = rational_dual_certificate(rational_dual, n_max=10)
        for n in cert.dilations():
            shifts = cert.family.shape_at(cert.shape, n)
            terms = [g * a for g, a in zip(shifts, cert.coefficients)]
            assert sum(terms) == 0
            assert all(sum(terms[i] for i in s) != 0
                       for k in (1, 2) for s in combinations(range(3), k))

    @given(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=4,
                    unique=True),
           st.lists(st.integers(2, 400), min_size=1, max_size=6, unique=True),
           st.sampled_from([1, -2, 3]))
    @settings(max_examples=150, deadline=None)
    @example([2, 3], [2, 3, 4, 9], 1)
    @example([2, 3], [2, 3, 4, 5], 1)
    def test_transcript_must_stay_in_a_finite_group(self, primes, dilations, a):
        # On <S> for a finite list S of primes, (1, n, n-1) is in the group
        # exactly when n and n - 1 are S-smooth (finitely many n, Størmer).
        def smooth(n):
            for p in primes:
                while n % p == 0:
                    n //= p
            return n == 1

        system = AlgebraicSystem(positive_rationals(primes), RationalDualModule())
        family = ConsecutiveRatio()
        cert = NonMixingCertificate(
            order=3, shape=family.shape_at((), 2),
            coefficients=(Fraction(a), Fraction(-a), Fraction(a)), family=family,
            transcript=tuple((n, 1) for n in dilations), grade="evidence")
        report = verify_certificate(system, cert)
        strays = [n for n in dilations if not (smooth(n) and smooth(n - 1))]
        assert report.ok == (not strays)
        assert report.first_failure == (strays[0] if strays else None)
        # Proof grade needs the whole group.
        proof = replaced(cert, grade="proof")
        assert verify_certificate(system, proof).verdict == (
            f"FAIL at dilation {strays[0]}" if strays else "FAIL: grade")
        whole = AlgebraicSystem(positive_rationals(None), RationalDualModule())
        assert verify_certificate(whole, proof).ok

    @given(a=st.fractions(-9, 9, max_denominator=9).filter(bool),
           b=st.fractions(-9, 9, max_denominator=9).filter(bool),
           g=st.fractions(0, 50, max_denominator=50).filter(bool),
           h=st.none() | st.fractions(0, 50, max_denominator=50).filter(bool))
    @example(a=Fraction(2), b=Fraction(-3), g=Fraction(3), h=Fraction(2))
    @example(a=Fraction(2), b=Fraction(3), g=Fraction(3), h=Fraction(2))
    @settings(max_examples=200, deadline=None)
    def test_order2_vanishes_exactly_at_the_ratio(self, rational_dual, a, b, g, h):
        # Why order 2 has no certificate: g*a + h*b = 0 forces h/g = -a/b,
        # one ratio at every dilation, so a vanishing pair never separates.
        if h is None:
            h = g * abs(a / b)  # the ratio itself whenever a and b differ in sign
        vanishes = character_correlation(rational_dual, [(g, a), (h, b)]) == 1
        assert vanishes == (h / g == -a / b)

