"""Presentation files, canonical hashing, certificate (de)serialization."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from mixlab.mixing import (
    CertificateError,
    frobenius_certificate,
    rational_dual_certificate,
    shape_search,
    verify_certificate,
)
from mixlab.presentation import (
    PresentationError,
    canonical_json,
    certificate_from_dict,
    certificate_to_dict,
    load_system,
    parse_system,
    system_hash,
)
from mixlab.ring import GF, LaurentPoly
from mixlab.systems import CharPModule, EvaluationModule, RationalDualModule

SAMPLES = Path(__file__).resolve().parents[1] / "presentations"
TESTS = Path(__file__).resolve().parent


def sample(name):
    return load_system(str(SAMPLES / name))


class TestSampleFiles:
    def test_all_samples_load(self):
        for path in sorted(SAMPLES.glob("*.json")):
            loaded = load_system(str(path))
            assert loaded.hash
            assert loaded.system.group.rank >= 1

    def test_three_dot_module(self):
        loaded = sample("ledrappier.json")
        module = loaded.system.module
        assert isinstance(module, CharPModule)
        assert module.characteristic == 2
        gen = LaurentPoly.parse("1 + u1 + u2", 2, GF(2))
        assert module.ideal.contains(gen)

    def test_substitution_variant_same_membership(self):
        groebner = sample("ledrappier.json").system.module.ideal
        subst = sample("ledrappier_substitution.json").system.module.ideal
        for text in ("1 + u1 + u2", "u1", "1 + u1^4 + u2^4"):
            f = LaurentPoly.parse(text, 2, GF(2))
            assert groebner.contains_groebner(f) == subst.contains(f)

    def test_evaluation_sample(self):
        loaded = sample("times2times3.json")
        module = loaded.system.module
        assert isinstance(module, EvaluationModule)
        assert dict(module.assignment)[0] == module.field.from_rational(2)

    def test_rational_dual_sample(self):
        loaded = sample("rational_dual.json")
        assert isinstance(loaded.system.module, RationalDualModule)
        # "primes": "all" declares the whole group, free on every prime.
        assert loaded.system.group.primes is None
        assert loaded.system.group.rank == math.inf


class TestHashing:
    def test_hash_ignores_name_and_notes(self):
        base = {
            "schema": 1,
            "group": {"kind": "positive_rationals", "primes": "all"},
            "module": {"type": "rational_dual"},
        }
        a = parse_system({**base, "name": "a", "notes": "x"})
        b = parse_system({**base, "name": "b"})
        assert a.hash == b.hash

    def test_hash_sees_module_changes(self):
        base = {
            "schema": 1,
            "group": {"kind": "free_abelian", "d": 2},
            "module": {
                "type": "char_p",
                "characteristic": 2,
                "generators": ["1 + u1 + u2"],
            },
        }
        other = json.loads(json.dumps(base))
        other["module"]["generators"] = ["1 + u1"]
        assert parse_system(base).hash != parse_system(other).hash

    def test_canonical_json_is_key_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
        assert system_hash({"a": 1}) == system_hash({"a": 1})

    @pytest.mark.parametrize("path", sorted(SAMPLES.glob("*.json")) + sorted(TESTS.glob("*.json")),
                             ids=lambda path: path.name)
    def test_one_dump_hashes_as_the_two_step_normalization(self, path):
        # A load dumps the blocks once; its hash must equal system_hash of
        # the blocks dumped, loaded back and dumped again.
        data = json.loads(path.read_text())
        blocks = {"schema": data["schema"], "group": data["group"], "module": data["module"]}
        normalized = json.loads(canonical_json(blocks))
        loaded = load_system(str(path))
        assert loaded.hash == system_hash(normalized)


class TestErrors:
    def test_wrong_schema(self):
        with pytest.raises(PresentationError):
            parse_system({"schema": 99, "group": {}, "module": {}})

    def test_missing_module(self):
        with pytest.raises(PresentationError):
            parse_system({"schema": 1, "group": {"kind": "free_abelian", "d": 1}})

    def test_unknown_group(self):
        with pytest.raises(PresentationError):
            parse_system(
                {"schema": 1, "group": {"kind": "dihedral"}, "module": {"type": "rational_dual"}}
            )

    def test_bad_generator_text(self):
        with pytest.raises(PresentationError):
            parse_system(
                {
                    "schema": 1,
                    "group": {"kind": "free_abelian", "d": 1},
                    "module": {
                        "type": "char_p",
                        "characteristic": 2,
                        "generators": ["1 + ???"],
                    },
                }
            )

    def test_malformed_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1,,}')
        with pytest.raises(PresentationError) as e:
            load_system(str(bad))
        assert "line 1" in str(e.value)


THREE_DOT_F2 = LaurentPoly.parse("1 + u1 + u2", 2, GF(2))
# A certificate of each dilation family, built on the presentation it names.
FAMILY_CASES = {
    "prime_power": ("ledrappier.json",
                    lambda system: frobenius_certificate(system, THREE_DOT_F2)),
    "explicit_list": ("ledrappier.json", lambda system: shape_search(
        system, 3, [(0, 1)] * 2, [(0, 0)] * 2, (1, 2, 4)).certificates[0]),
    "consecutive_ratio": ("rational_dual.json",
                          lambda system: rational_dual_certificate(system, n_max=20)),
}


class TestCertificateRoundtrip:
    @pytest.mark.parametrize("kind", sorted(FAMILY_CASES))
    def test_every_family_roundtrips(self, kind):
        name, build = FAMILY_CASES[kind]
        loaded = sample(name)
        cert = build(loaded.system)
        data = certificate_to_dict(cert, sys_hash=loaded.hash)
        assert data["family"]["kind"] == kind
        back = certificate_from_dict(json.loads(canonical_json(data)), loaded.system)
        assert back == cert
        again = certificate_to_dict(back, sys_hash=loaded.hash)
        assert canonical_json(again) == canonical_json(data)

    def test_charp_roundtrip(self):
        loaded = sample("ledrappier.json")
        gen = LaurentPoly.parse("1 + u1 + u2", 2, GF(2))
        cert = frobenius_certificate(loaded.system, gen)
        data = certificate_to_dict(cert, sys_hash=loaded.hash)
        back = certificate_from_dict(
            json.loads(json.dumps(data)), loaded.system
        )
        assert back.order == cert.order
        assert back.shape == tuple(tuple(Fraction(x) for x in g) for g in cert.shape)
        assert back.transcript == cert.transcript
        assert verify_certificate(loaded.system, back).ok

    def test_serialization_is_stable(self):
        loaded = sample("ledrappier.json")
        gen = LaurentPoly.parse("1 + u1 + u2", 2, GF(2))
        blob1 = canonical_json(certificate_to_dict(frobenius_certificate(loaded.system, gen)))
        blob2 = canonical_json(certificate_to_dict(frobenius_certificate(loaded.system, gen)))
        assert blob1 == blob2

    @pytest.mark.parametrize("block, value", [
        ("transcript", [[0, 1], [1, 1]]),
        ("transcript", [[-2, 1], [1, 1]]),
        ("family", {"kind": "explicit_list", "dilations": [1, 0]}),
    ])
    def test_dilation_below_one_rejected(self, block, value):
        # At dilation 0 every shift collides and the correlation says
        # nothing about the shape.
        loaded = sample("ledrappier.json")
        gen = LaurentPoly.parse("1 + u1 + u2", 2, GF(2))
        data = certificate_to_dict(frobenius_certificate(loaded.system, gen, kmax=1))
        data[block] = value
        with pytest.raises(CertificateError, match="dilations must be positive"):
            verify_certificate(loaded.system, certificate_from_dict(data, loaded.system))

    def test_empty_transcript_rejected(self):
        # An empty transcript replays nothing, so verify would pass it.
        loaded = sample("ledrappier.json")
        gen = LaurentPoly.parse("1 + u1 + u2", 2, GF(2))
        data = certificate_to_dict(frobenius_certificate(loaded.system, gen, kmax=1))
        data["transcript"] = []
        with pytest.raises(CertificateError, match="transcript is empty"):
            verify_certificate(loaded.system, certificate_from_dict(data, loaded.system))

    @pytest.mark.parametrize("forge", [
        lambda d: d.update(order=2),
        lambda d: d.update(order=4, shape=d["shape"] + [["1", "1"]]),
        lambda d: d["coefficients"].append({"poly": "u1"}),
        lambda d: d.update(order=5),
    ])
    def test_order_shape_and_coefficients_must_agree(self, forge):
        # zip() would drop the unmatched slots, and each of these passed.
        loaded = sample("ledrappier.json")
        gen = LaurentPoly.parse("1 + u1 + u2", 2, GF(2))
        data = certificate_to_dict(frobenius_certificate(loaded.system, gen, kmax=1))
        forge(data)
        with pytest.raises(CertificateError, match="does not match"):
            verify_certificate(loaded.system, certificate_from_dict(data, loaded.system))

    def test_order_below_two_rejected(self):
        # An empty shape sums to zero at every dilation.
        loaded = sample("ledrappier.json")
        gen = LaurentPoly.parse("1 + u1 + u2", 2, GF(2))
        data = certificate_to_dict(frobenius_certificate(loaded.system, gen, kmax=1))
        data.update(order=0, shape=[], coefficients=[])
        with pytest.raises(CertificateError, match="below 2"):
            verify_certificate(loaded.system, certificate_from_dict(data, loaded.system))

    @pytest.mark.parametrize("change, message", [
        ({"transcript": [[1, 1], [2, 1]]}, "at least 2"),
        ({"order": 4, "shape": ["1", "2", "1", "3"], "coefficients": ["1", "-1", "1", "5"]},
         "order 3"),
    ])
    def test_consecutive_ratio_range_and_order(self, change, message):
        # At n = 1 the shift n - 1 is 0, which is not in the positive rationals.
        loaded = sample("rational_dual.json")
        data = {"schema": 1, "kind": "non_mixing_certificate", "order": 3,
                "family": {"kind": "consecutive_ratio"}, "shape": ["1", "2", "1"],
                "coefficients": ["1", "-1", "1"], "transcript": [[2, 1], [3, 1]]}
        verify_certificate(loaded.system, certificate_from_dict(data, loaded.system))
        with pytest.raises(CertificateError, match=message):
            verify_certificate(loaded.system,
                               certificate_from_dict({**data, **change}, loaded.system))

    def test_integral_coefficients_decode_as_ints(self):
        loaded = sample("rational_dual.json")
        data = {"schema": 1, "kind": "non_mixing_certificate", "order": 3,
                "family": {"kind": "consecutive_ratio"}, "shape": ["1", "2", "1"],
                "coefficients": ["2", "1/2", "-4/2"], "transcript": [[2, 1]]}
        cert = certificate_from_dict(data, loaded.system)
        assert cert.coefficients == (2, Fraction(1, 2), -2)
        assert [type(a) for a in cert.coefficients] == [int, Fraction, int]
        assert cert.shape == (1, 2, 1) and all(type(g) is int for g in cert.shape)

    @pytest.mark.parametrize("coefficients, verdict", [
        (["2", "-2", "2"], "PASS"),
        (["1/2", "-1/2", "1/2"], "PASS"),
        (["1", "1", "-3"], "FAIL: grade"),
    ])
    def test_rational_dual_grades_decoded_coefficients(self, coefficients, verdict):
        # (1, 1, -3) vanishes at n = 2 only: 1 + n - 3(n - 1) = 4 - 2n.
        loaded = sample("rational_dual.json")
        data = {"schema": 1, "kind": "non_mixing_certificate", "order": 3, "grade": "proof",
                "family": {"kind": "consecutive_ratio"}, "shape": ["1", "2", "1"],
                "coefficients": coefficients, "transcript": [[2, 1]]}
        report = verify_certificate(loaded.system, certificate_from_dict(data, loaded.system))
        assert report.verdict == verdict
        assert report.lines[0] == "dilation 2: correlation 1 (expected 1) ok"

    @pytest.mark.parametrize("text, value", [("1_0", 10), (" 1", 1), ("1.0", 1), ("-4/2", -2)])
    def test_shape_strings_decode_as_their_rational(self, text, value):
        loaded = sample("ledrappier.json")
        gen = LaurentPoly.parse("1 + u1 + u2", 2, GF(2))
        data = certificate_to_dict(frobenius_certificate(loaded.system, gen, kmax=1))
        data["shape"][0] = [text, "0"]
        shape = certificate_from_dict(data, loaded.system).shape
        assert shape[0] == (value, 0) and type(shape[0][0]) is int
        assert Fraction(text) == value

    def test_wrong_kind_rejected(self):
        loaded = sample("ledrappier.json")
        with pytest.raises(PresentationError):
            certificate_from_dict({"kind": "something-else"}, loaded.system)
