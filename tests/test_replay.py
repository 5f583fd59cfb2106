"""The certificate replay of `verify_certificate` against a per-dilation
reference: bits, lines, verdicts and errors agree, the tuple rules are
checked before any correlation, and the correlation oracle runs once per
transcript dilation that the Frobenius identity does not give."""

import json
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixlab import mixing
from mixlab.cli import EXIT_BUDGET, main
from mixlab.ideals import IdealPresentation
from mixlab.mixing import (
    UNIT_POWER_BIT_LIMIT,
    BudgetExceededError,
    ExplicitList,
    NonMixingCertificate,
    PrimePower,
    VerificationReport,
    check_certificate,
    verify_certificate,
)
from mixlab.numfield import FieldElement, NumberField
from mixlab.presentation import certificate_from_dict, load_system
from mixlab.ring import GF, LaurentPoly
from mixlab.systems import (
    AlgebraicSystem,
    CharPModule,
    EvaluationModule,
    InvalidTupleError,
    Module,
    RationalDualModule,
    _gamma_key,
    _unit_power,
    free_abelian,
    rational_vector,
)

from test_mixing import replaced

SAMPLES = Path(__file__).resolve().parents[1] / "presentations"
QQ = NumberField([-1, 1])


# -- the reference: each dilation's shape dilated, merged and summed anew ----

def ref_sum_vanishes(module, pairs) -> bool:
    """The shifted sum one term at a time: in characteristic p each term is
    its own polynomial, added to a running total that the Gröbner engine
    tests."""
    pairs = list(pairs)
    if isinstance(module, CharPModule):
        ideal = module.ideal
        total = LaurentPoly.zero(ideal.d, GF(module.characteristic))
        for gamma, a in pairs:
            total = total + LaurentPoly(ideal.d, total.domain, {
                tuple(g + e for g, e in zip(gamma, m)): c for m, c in a.terms.items()})
        return ideal.contains_groebner(total)
    if isinstance(module, RationalDualModule):
        return sum(Fraction(gamma) * Fraction(a) for gamma, a in pairs) == 0
    total = module.field.zero
    for gamma, a in pairs:
        a = a if isinstance(a, FieldElement) else module.field.from_rational(a)
        total = total + _unit_power(module, gamma) * a
    return total.is_zero()


def ref_merged(shape, coefficients):
    """Colliding shifts merged in order of first occurrence, formal zeros dropped."""
    merged = {}
    for g, a in zip(shape, coefficients):
        k = _gamma_key(g)
        merged[k] = [merged[k][0], merged[k][1] + a] if k in merged else [g, a]
    return [(g, a) for g, a in merged.values() if not Module.is_zero(a)]


def ref_validate(system, pairs, nonzero):
    """The tuple rules checked before each dilation's sum: distinct shifts
    and coefficients nonzero in the module, each coefficient tested once
    (nonzero is the memo of those already found nonzero)."""
    gammas = [g for g, _ in pairs]
    if len(set(map(_gamma_key, gammas))) != len(gammas):
        raise InvalidTupleError("shift elements must be pairwise distinct")
    for _, a in pairs:
        if a not in nonzero:
            if system.module.is_zero(a):
                raise InvalidTupleError("tuple coefficient is zero in the module")
            nonzero.add(a)


def ref_verify(system, cert) -> VerificationReport:
    check_certificate(system, cert)
    lines, first_failure, nonzero = [], None, set()
    for n, expected in cert.transcript:
        pairs = ref_merged(cert.family.shape_at(cert.shape, n), cert.coefficients)
        ref_validate(system, pairs, nonzero)
        bit = 1 if ref_sum_vanishes(system.module, pairs) else 0
        status = "ok" if bit == expected == 1 else "FAIL"
        lines.append(f"dilation {n}: correlation {bit} (expected {expected}) {status}")
        if status == "FAIL" and first_failure is None:
            first_failure = n
    separated = cert.family.separated(cert)
    lines.append("separation: pairwise differences distinct over transcript" if separated
                 else "separation: FAILED (differences repeat)")
    reason = cert.family.evidence_reason(system, cert)
    derived = "evidence" if reason else "proof"
    graded = cert.grade in ("evidence", derived)
    if not graded:
        lines.append(f"grade: FAILED (labelled {cert.grade}, but "
                     f"{reason or 'its derived grade is proof'})")
    elif cert.grade == "evidence":
        lines.append("grade: evidence (transcript covers the tested range only)")
    else:
        lines.append(f"grade: {cert.grade}")
    failures = ((first_failure is not None, f"FAIL at dilation {first_failure}"),
                (not separated, "FAIL: separation"), (not graded, "FAIL: grade"))
    verdict = next((v for failed, v in failures if failed), "PASS")
    return VerificationReport(lines, verdict, first_failure)


def outcome(verify, system, cert):
    """The report's parts, or the type and text of the error raised."""
    try:
        report = verify(system, cert)
    except (ValueError, ArithmeticError) as e:
        return ("raised", type(e).__name__, str(e))
    return (report.lines, report.verdict, report.first_failure)


def ref_oracle_calls(system, cert) -> int:
    """The correlations the replay computes.  With constant coefficients on
    a lattice family in characteristic p, a dilation n is given, not
    computed, when an earlier one m with a vanishing sum has n / m a power
    of p."""
    merged = ref_merged(cert.shape, cert.coefficients)
    if not (isinstance(system.module, CharPModule) and isinstance(cert.family, (PrimePower, ExplicitList))
            and all(set(a.terms) <= {(0,) * a.d} for _, a in merged)):
        return len(cert.transcript)
    p = system.module.characteristic
    powers = {p ** j for j in range(64)}
    vanished, calls = [], 0
    for n, _ in cert.transcript:
        if any(n % m == 0 and n // m in powers for m in vanished):
            continue
        calls += 1
        pairs = ref_merged(cert.family.shape_at(cert.shape, n), cert.coefficients)
        if ref_sum_vanishes(system.module, pairs):
            vanished.append(n)
    return calls


def assert_same_replay(system, cert):
    with mock.patch.object(mixing, "character_correlation",
                           wraps=mixing.character_correlation) as oracle:
        got = outcome(verify_certificate, system, cert)
    assert got == outcome(ref_verify, system, cert)
    if got[0] != "raised":
        assert oracle.call_count == ref_oracle_calls(system, cert)
    elif got[1] == "InvalidTupleError":
        # The tuple rules are checked once, before any correlation runs.
        assert oracle.call_count == 0
    return got


# -- the systems --------------------------------------------------------------

def charp_system(p, engine):
    # With no written hint 1 + u1 + u2 is solved for u2 when the ideal is
    # built, so both systems replay through the substitution engine, and
    # ref_sum_vanishes checks them against the Gröbner engine.
    dom = GF(p)
    hint = {1: LaurentPoly.parse(f"{p - 1} + {p - 1}*u1", 2, dom)}
    ideal = IdealPresentation([LaurentPoly.parse("1 + u1 + u2", 2, dom)], p, d=2,
                              substitution=hint if engine == "substitution" else None)
    return AlgebraicSystem(free_abelian(2), CharPModule(ideal))


CHARP = {(p, engine): charp_system(p, engine)
         for p in (2, 3, 5) for engine in ("groebner", "substitution")}
# u1 = 4 and u2 = 9, at level 2: u^(1/2, 0) = 2, so shape points live in (1/2)Z^2.
HALVES = AlgebraicSystem(rational_vector(2), EvaluationModule.make(
    QQ, {0: QQ.from_rational(2), 1: QQ.from_rational(3)}, level=2))

# Coefficients that repeat, cancel in pairs (1 + u1 against 1 + u1 over F_2,
# 1 against 2 over F_3), or are zero in the module (1 + u1 + u2).
CHARP_COEFFICIENTS = ["1", "2", "u1", "1 + u1", "2 + 2*u1", "u2^-1", "1 + u1 + u2"]


def charp_certificate(p, shape, texts, dilations, bits, kind="explicit_list", grade="evidence"):
    coefficients = tuple(LaurentPoly.parse(t, 2, GF(p)) for t in texts)
    family = PrimePower(p) if kind == "prime_power" else ExplicitList(tuple(dilations))
    return NonMixingCertificate(order=len(shape), shape=tuple(shape),
                                coefficients=coefficients, family=family,
                                transcript=tuple(zip(dilations, bits)), grade=grade)


@st.composite
def charp_cases(draw):
    """Random shapes and coefficients, or the terms of b f, f = 1 + u1 + u2,
    for a constant-coefficient b: a sum in the ideal at every dilation, with
    sometimes one term more, so that it is not.  Transcripts repeat, run in
    any order and reach p^2 and p^3 off the powers of p too."""
    p, engine = draw(st.sampled_from(sorted(CHARP)))
    point = st.tuples(st.integers(-1, 2), st.integers(-1, 2))
    if draw(st.booleans()):
        r = draw(st.integers(2, 4))
        shape = draw(st.lists(point, min_size=r, max_size=r))
        texts = draw(st.lists(st.sampled_from(CHARP_COEFFICIENTS), min_size=r, max_size=r))
    else:
        unit = st.integers(1, p - 1)
        b = draw(st.dictionaries(point, unit, min_size=1, max_size=3))
        terms = (LaurentPoly(2, GF(p), b) * LaurentPoly.parse("1 + u1 + u2", 2, GF(p))).terms
        extra = draw(st.lists(st.tuples(point, unit), max_size=1))
        shape = list(terms) + [g for g, _ in extra]
        texts = [str(c) for c in terms.values()] + [str(c) for _, c in extra]
    dilations = draw(st.lists(st.one_of(st.integers(1, 9), st.sampled_from([p * p, p ** 3])),
                              min_size=1, max_size=4))
    bits = draw(st.lists(st.sampled_from([1, 1, 0]), min_size=len(dilations),
                         max_size=len(dilations)))
    kind = draw(st.sampled_from(["explicit_list", "prime_power"]))
    grade = draw(st.sampled_from(["evidence", "proof"]))
    return CHARP[p, engine], charp_certificate(p, shape, texts, dilations, bits, kind, grade)


@st.composite
def halves_cases(draw):
    r = draw(st.integers(2, 4))
    coordinate = st.integers(-4, 4).map(lambda k: Fraction(k, 2))
    shape = draw(st.lists(st.tuples(coordinate, coordinate), min_size=r, max_size=r))
    coefficients = draw(st.lists(st.sampled_from([1, -1, 2, Fraction(1, 2), -6]),
                                 min_size=r, max_size=r))
    dilations = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    return HALVES, NonMixingCertificate(
        order=r, shape=tuple(shape), coefficients=tuple(coefficients),
        family=ExplicitList(tuple(dilations)), transcript=tuple((n, 1) for n in dilations),
        grade="evidence")


class TestReplayMatchesTheReference:
    @given(charp_cases())
    @settings(max_examples=400, deadline=None)
    @example((CHARP[2, "groebner"], charp_certificate(
        2, [(0, 0), (1, 0), (0, 1)], ["1"] * 3, [1, 2, 4], [1, 1, 1], "prime_power", "proof")))
    # Decreasing, with 3 and 6 off the powers of 2: 6 comes from 3, 2 from 1.
    @example((CHARP[2, "substitution"], charp_certificate(
        2, [(0, 0), (1, 0), (0, 1)], ["1"] * 3, [8, 4, 3, 6, 1, 2], [1] * 6)))
    @example((CHARP[3, "substitution"], charp_certificate(
        3, [(0, 0), (1, 0), (0, 1), (0, 0)], ["1", "1", "1", "2"], [1, 3], [1, 1])))
    def test_characteristic_p(self, case):
        assert_same_replay(*case)

    @pytest.mark.parametrize("key", sorted(CHARP))
    def test_a_slot_pair_that_merges_to_zero_is_dropped(self, key):
        # Slots 1 and 3 share a point and their coefficients cancel; what is
        # left is the three-dot relation at (0, 0), (1, 0), (0, 1), which
        # vanishes at every power of p.  The repeated point never separates.
        p = key[0]
        minus = f"{p - 1} + {p - 1}*u1"
        cert = charp_certificate(p, [(0, 0), (2, 2), (1, 0), (2, 2), (0, 1)],
                                 ["1", "1 + u1", "1", minus, "1"], [1, p, p * p], [1, 1, 1])
        lines, verdict, _ = assert_same_replay(CHARP[key], cert)
        assert verdict == "FAIL: separation"
        assert lines[:3] == [f"dilation {n}: correlation 1 (expected 1) ok"
                             for n in (1, p, p * p)]

    @pytest.mark.parametrize("key", sorted(CHARP))
    def test_a_zero_coefficient_raises_the_same_error(self, key):
        cert = charp_certificate(key[0], [(0, 0), (1, 0)], ["1", "1 + u1 + u2"], [1, 2], [1, 1])
        got = assert_same_replay(CHARP[key], cert)
        assert got == ("raised", "InvalidTupleError", "tuple coefficient is zero in the module")

    @pytest.mark.parametrize("slot", range(3))
    def test_a_zero_ratio_coefficient_is_merged_away(self, slot):
        # On the rational dual a coefficient "0" is formally zero, so the
        # merge drops its slot at every dilation and nothing is refused: the
        # replay runs and fails at n = 2, as in the per-dilation reference.
        loaded = load_system(str(SAMPLES / "rational_dual.json"))
        coefficients = ["1", "-1", "1"]
        coefficients[slot] = "0"
        cert = certificate_from_dict({
            "schema": 1, "kind": "non_mixing_certificate", "system_hash": loaded.hash,
            "order": 3, "grade": "evidence", "family": {"kind": "consecutive_ratio"},
            "shape": ["1", "2", "1"], "coefficients": coefficients,
            "transcript": [[2, 1], [3, 1], [5, 1]]}, loaded.system)
        with mock.patch.object(mixing, "character_correlation",
                               wraps=mixing.character_correlation) as oracle:
            _, verdict, _ = assert_same_replay(loaded.system, cert)
        assert verdict == "FAIL at dilation 2"
        assert all(a != 0 for call in oracle.call_args_list for _, a in call.args[1])

    @given(halves_cases())
    @settings(max_examples=150, deadline=None)
    @example((HALVES, NonMixingCertificate(
        order=3, shape=((0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), 0)),
        coefficients=(4, -1, -1), family=ExplicitList((1,)), transcript=((1, 1),),
        grade="evidence")))
    def test_evaluation_at_level_two(self, case):
        # The parts are well formed on Q^2, so both sides replay every case.
        assert assert_same_replay(*case)[:2] != ("raised", "CertificateError")

    def test_oracle_runs_once_per_transcript_dilation(self):
        # Repeated dilations are replayed, not skipped.  The coefficient u1
        # is not a constant, so no bit comes from the Frobenius identity.
        cert = charp_certificate(2, [(0, 0), (1, 0), (0, 1)], ["u1"] * 3, [1, 2, 2, 4],
                                 [1] * 4)
        with mock.patch.object(mixing, "character_correlation",
                               wraps=mixing.character_correlation) as oracle:
            report = verify_certificate(CHARP[2, "groebner"], cert)
        assert report.verdict == "FAIL: separation"
        assert [c.args[1][1][0] for c in oracle.call_args_list] == [
            (1, 0), (2, 0), (2, 0), (4, 0)]


# -- the unit power budget -----------------------------------------------------

class TestUnitPowerBudget:
    def test_a_huge_dilation_exits_4_at_once(self, tmp_path, capsys):
        # Replayed, this would compute 6^n: 0.36 s at n = 10^6, gigabytes at 10^9.
        presentation = str(SAMPLES / "times2times3.json")
        n = 10 ** 9
        path = tmp_path / "huge.cert.json"
        path.write_text(json.dumps({
            "schema": 1, "kind": "non_mixing_certificate",
            "system_hash": load_system(presentation).hash, "order": 2, "grade": "evidence",
            "family": {"kind": "explicit_list", "dilations": [n]},
            "shape": [["0", "0"], ["1", "1"]], "coefficients": ["1", "-1"],
            "transcript": [[n, 1]]}))
        start = time.perf_counter()
        code = main(["verify", str(path), presentation])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        out, err = capsys.readouterr()
        assert out == ""
        first, region = err.splitlines()
        assert first.startswith("budget exhausted: a unit power at dilation 1000000000 ")
        assert json.loads(region.removeprefix("region: ")) == {
            "dilation": 10 ** 9, "estimated_bits": 4 * 10 ** 9,
            "bit_limit": UNIT_POWER_BIT_LIMIT}

    def test_the_largest_dilation_is_budgeted(self):
        # 2^n 3^n: about 4 bits per unit of n by the estimate, 2.6 in fact.
        system = load_system(str(SAMPLES / "times2times3.json")).system
        cert = NonMixingCertificate(
            order=2, shape=((0, 0), (1, 1)), coefficients=(QQ.one, -QQ.one),
            family=ExplicitList((1,)), transcript=((1, 0),), grade="evidence")
        limit = UNIT_POWER_BIT_LIMIT // 4

        def at(*dilations):
            return replaced(cert, family=ExplicitList(tuple(dilations)),
                            transcript=tuple((n, 0) for n in dilations))

        assert verify_certificate(system, at(limit)).ok is False
        with pytest.raises(BudgetExceededError) as raised:
            verify_certificate(system, at(1, limit + 1))
        assert raised.value.region["dilation"] == limit + 1
