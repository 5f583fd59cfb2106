"""End-to-end command line tests, all run in-process via cli.main."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlab import ideals
from mixlab.cli import main
from mixlab.ideals import IdealPresentation
from mixlab.presentation import load_system
from mixlab.ring import GF, LaurentPoly

SAMPLES = Path(__file__).resolve().parents[1] / "presentations"
THREE_DOT = str(SAMPLES / "ledrappier.json")
SPLIT = str(SAMPLES / "split_ledrappier.json")
TIMES23 = str(SAMPLES / "times2times3.json")
RATIONAL_DUAL = str(SAMPLES / "rational_dual.json")
TRIVIAL = str(SAMPLES / "trivial_unit.json")
# Kept out of presentations/, which the benchmark analyzes file by file.
TESTS = Path(__file__).resolve().parent
F5_FINITE = str(TESTS / "f5_two_generators.json")
F3_SUBST = str(TESTS / "f3_substitution.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_three_dot(self, capsys):
        code, out, _ = run(capsys, "analyze", THREE_DOT)
        assert code == 0
        assert "characteristic: 2" in out
        assert "nontrivial" in out

    def test_trivial_quotient_warns(self, capsys):
        code, out, _ = run(capsys, "analyze", TRIVIAL)
        assert code == 0
        assert "trivial" in out

    def test_trivial_quotient_is_connected_and_scans_nothing(self, capsys):
        # The dual of the zero module is one point: connected, and no box was
        # scanned, so the output names no box.
        code, out, _ = run(capsys, "analyze", TRIVIAL)
        assert code == 0
        assert "connectedness: connected (trivial quotient: one-point group)" in out
        assert "in box" not in out and "disconnected" not in out
        code, out, _ = run(capsys, "analyze", TRIVIAL, "--json")
        data = json.loads(out)
        assert data["connected"].startswith("yes")
        assert data["trivial_quotient"] is True and data["nonmixing_element"] is None

    def test_fractional_generator_exponent_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({
            "schema": 1, "name": "half", "group": {"kind": "rational_vector", "d": 2},
            "module": {"type": "char_p", "characteristic": 2,
                       "generators": ["1 + u1^1/2 + u2"]},
        }))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "non-integral exponent 1/2 (at position 7)" in err
        assert out == ""

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "analyze", THREE_DOT, "--json")
        data = json.loads(out)
        assert code == 0
        assert data["characteristic"] == 2
        assert data["system_hash"]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "no-such-file.json")
        assert code == 2
        assert "error" in err


class TestCertify:
    def test_order3_writes_proof_certificate(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "certify", THREE_DOT, "--order", "3", "--out", str(tmp_path)
        )
        assert code == 0
        files = list(tmp_path.glob("*.cert.json"))
        assert len(files) == 1
        data = json.loads(files[0].read_text())
        assert data["grade"] == "proof"
        assert data["family"] == {"kind": "prime_power", "p": 2}

    def test_order2_exits_empty(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "certify", THREE_DOT, "--order", "2", "--out", str(tmp_path)
        )
        assert code == 3
        assert "no certificates" in out
        assert not list(tmp_path.glob("*.cert.json"))

    def test_prime_power_transcript_at_default_kmax(self, capsys, tmp_path):
        # u1^2 + 3 gives an order-2 prime-power family over F_5; its
        # transcript replays u1^(2 * 5^k) + 3 up to 5^6.
        code, out, _ = run(
            capsys, "certify", F5_FINITE, "--order", "2", "--out", str(tmp_path)
        )
        assert code == 0
        (path,) = tmp_path.glob("*.cert.json")
        data = json.loads(path.read_text())
        assert data["grade"] == "proof"
        assert data["shape"] == [["2", "0"], ["0", "0"]]
        assert data["transcript"] == [[5 ** k, 1] for k in range(7)]
        assert run(capsys, "verify", str(path), F5_FINITE)[0] == 0

    def test_unit_ideal_refused(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "certify", TRIVIAL, "--order", "2", "--out", str(tmp_path)
        )
        assert code == 2
        assert "quotient is trivial (unit ideal)" in err
        assert not list(tmp_path.glob("*.cert.json"))

    def test_evaluation_search_empty(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "certify", TIMES23, "--order", "2", "--box", "4",
            "--out", str(tmp_path),
        )
        assert code == 3
        assert "bounded evidence" in out

    def test_unit_at_the_filter_prime_exits_empty(self, capsys, tmp_path):
        # u1 -> 2^61 - 1 has no inverse modulo the search's filter prime.
        path = tmp_path / "mersenne61.json"
        path.write_text(json.dumps({
            "schema": 1,
            "name": "mersenne61",
            "group": {"kind": "free_abelian", "d": 1},
            "module": {
                "type": "evaluation",
                "modulus": ["-1", "1"],
                "assignment": {"u1": [str((1 << 61) - 1)]},
                "level": 1,
            },
        }))
        out_dir = tmp_path / "certs"
        code, out, _ = run(
            capsys, "certify", str(path), "--order", "2", "--box", "1",
            "--out", str(out_dir),
        )
        assert code == 3
        assert "no certificates" in out
        assert not list(tmp_path.glob("**/*.cert.json"))

    def test_rational_dual_order3(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "certify", RATIONAL_DUAL, "--order", "3", "--out", str(tmp_path)
        )
        assert code == 0
        data = json.loads(next(tmp_path.glob("*.cert.json")).read_text())
        assert data["family"]["kind"] == "consecutive_ratio"

    def test_rational_dual_on_a_finite_list_is_mixing_of_all_orders(self, capsys, tmp_path):
        data = json.loads(Path(RATIONAL_DUAL).read_text())
        data["group"]["primes"] = [2, 3]
        two = tmp_path / "two_primes.json"
        two.write_text(json.dumps(data))
        for order in ("2", "3"):
            code, out, _ = run(capsys, "certify", str(two), "--order", order, "--json",
                               "--out", str(tmp_path / "out"))
            assert code == 3
            assert json.loads(out)["count"] == 0
            assert "Schmidt-Ward" in json.loads(out)["region"]["note"]
        assert not (tmp_path / "out").exists()
        # The shipped file's certificate, bound to the copy, leaves <2, 3>
        # first at n = 5.
        run(capsys, "certify", RATIONAL_DUAL, "--order", "3", "--out", str(tmp_path / "all"))
        cert = next((tmp_path / "all").glob("*.cert.json"))
        forged = json.loads(cert.read_text())
        forged["system_hash"] = load_system(str(two)).hash
        cert.write_text(json.dumps(forged))
        code, out, _ = run(capsys, "verify", str(cert), str(two))
        lines = out.splitlines()
        assert code == 1
        assert lines[:4] == [f"dilation {n}: correlation 1 (expected 1) ok" for n in (2, 3, 4)] + [
            "dilation 5: shift 5 is not in the declared group FAIL"]
        assert lines[-2:] == [
            "grade: FAILED (labelled proof, but a consecutive_ratio certificate off the "
            "whole group of positive rationals is evidence)", "FAIL at dilation 5"]

    def test_rational_dual_order2_answers_by_the_ratio_identity(self, capsys, tmp_path):
        code, out, _ = run(capsys, "certify", RATIONAL_DUAL, "--order", "2", "--json",
                           "--out", str(tmp_path / "out"))
        assert code == 3
        assert json.loads(out) == {"certificates": [], "count": 0, "grades": [], "region": {
            "note": "every vanishing order-2 family has a constant shift ratio, so its "
                    "differences never leave a finite set; no certificate exists",
            "order": 2}}
        assert not (tmp_path / "out").exists()

    def test_rational_dual_higher_order_is_implied(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "certify", RATIONAL_DUAL, "--order", "4", "--json", "--out", str(tmp_path)
        )
        assert code == 3
        assert "implies all higher orders" in json.loads(out)["region"]["note"]

    def test_evaluation_dilations_follow_the_order(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "certify", TIMES23, "--order", "5", "--box", "2", "--json",
            "--out", str(tmp_path),
        )
        assert code == 3
        assert json.loads(out)["region"]["dilations"] == [1, 2, 3, 4, 5, 6]

    def test_evaluation_dilations_pass_through(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "certify", TIMES23, "--order", "2", "--box", "2",
            "--dilations", "1,2,4", "--json", "--out", str(tmp_path),
        )
        assert code == 3
        assert json.loads(out)["region"]["dilations"] == [1, 2, 4]

    def test_evaluation_dilations_missing_part_of_one_to_r_refused(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "certify", TIMES23, "--order", "2", "--box", "2",
            "--dilations", "1,3", "--out", str(tmp_path),
        )
        assert code == 2
        assert "dilations must contain 1..2" in err
        assert not list(tmp_path.iterdir())

    def test_forced_search_lists_proof_before_evidence(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "certify", THREE_DOT, "--order", "3", "--force-search",
            "--box", "2", "--window", "1", "--dilations", "1,2,4", "--out", str(tmp_path),
        )
        assert code == 0
        certs = [json.loads(Path(line.split(": ", 1)[1]).read_text())
                 for line in out.splitlines()]
        grades = [c["grade"] for c in certs]
        assert grades[0] == "proof"
        assert len(grades) > 1 and set(grades[1:]) == {"evidence"}
        # The generator's shape is listed twice: as its prime-power family,
        # support in descending order, and as the search's explicit-list
        # find, box points in ascending order.
        twins = [(c["family"]["kind"], c["shape"]) for c in certs
                 if sorted(map(tuple, c["shape"])) == [("0", "0"), ("0", "1"), ("1", "0")]
                 and c["coefficients"] == [{"poly": "1"}] * 3]
        assert twins == [("prime_power", [["1", "0"], ["0", "1"], ["0", "0"]]),
                         ("explicit_list", [["0", "0"], ["0", "1"], ["1", "0"]])]

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "certify", THREE_DOT, "--order", "1")
        assert code == 2

    @pytest.mark.parametrize("dilations", ["0", "1,-1"])
    def test_dilations_below_one_refused(self, capsys, tmp_path, dilations):
        # At dilation 0 the two shifts collide and 1 + 1 drops out, which
        # made four false certificates for a mixing system.
        code, _, err = run(
            capsys, "certify", THREE_DOT, "--order", "2", "--dilations", dilations,
            "--force-search", "--box", "1", "--window", "0", "--out", str(tmp_path),
        )
        assert code == 2
        assert "dilations must be positive" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("dilations, bad", [
        ("1_0, 2", "1_0"), ("1,2.0", "2.0"), ("1,\u0662", "\u0662"), ("1,,2", ""),
    ])
    def test_dilations_must_be_decimal_integers(self, capsys, tmp_path, dilations, bad):
        # int() read "1_0" as 10 and the Arabic-Indic digit as 2.
        code, out, err = run(
            capsys, "certify", THREE_DOT, "--order", "2", "--dilations", dilations,
            "--force-search", "--box", "1", "--window", "0", "--out", str(tmp_path),
        )
        assert (code, out) == (2, "")
        assert err == f"error: field '--dilations' cannot hold {bad!r}\n"

    def test_dilations_keep_their_spaces_and_signs(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "certify", THREE_DOT, "--order", "2", "--dilations", " 1, +2 ",
            "--force-search", "--box", "1", "--window", "0", "--json", "--out", str(tmp_path),
        )
        assert code == 3
        assert json.loads(out)["region"]["dilations"] == [1, 2]

    def test_negative_kmax_refused(self, capsys, tmp_path):
        # The prime-power certificate it would write has an empty transcript.
        code, _, err = run(
            capsys, "certify", THREE_DOT, "--order", "3", "--kmax", "-1", "--out", str(tmp_path)
        )
        assert code == 2
        assert "--kmax must be nonnegative" in err
        assert not list(tmp_path.iterdir())


class TestVerify:
    @pytest.fixture()
    def cert_path(self, capsys, tmp_path):
        run(capsys, "certify", THREE_DOT, "--order", "3", "--out", str(tmp_path))
        return next(tmp_path.glob("*.cert.json"))

    def test_roundtrip_verifies(self, capsys, cert_path):
        code, out, _ = run(capsys, "verify", str(cert_path), THREE_DOT)
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("name", ["ledrappier.json", "ledrappier_substitution.json"])
    def test_solved_generator_builds_no_groebner_basis(self, capsys, tmp_path, monkeypatch,
                                                       name):
        # 1 + u1 + u2 is solved for u2 when the file loads, and the written
        # hint u2 -> 1 + u1 is that map, so it needs no load-time check.
        presentation = str(SAMPLES / name)
        run(capsys, "certify", presentation, "--order", "3", "--force-search",
            "--out", str(tmp_path))

        def refuse(*_args):
            raise AssertionError("verify used the Gröbner engine")

        monkeypatch.setattr(IdealPresentation, "_contracted_basis", refuse)
        monkeypatch.setattr(IdealPresentation, "contains_groebner", refuse)
        for cert in sorted(tmp_path.glob("*.cert.json"))[:5]:
            code, out, _ = run(capsys, "verify", str(cert), presentation)
            assert (code, out.splitlines()[-1]) == (0, "PASS")

    @pytest.mark.parametrize("name, argv", [
        ("f3_substitution.json", ["--kmax", "12"]),
        ("f3_chained.json", []),
    ])
    def test_frobenius_path_builds_no_groebner_basis(self, capsys, tmp_path, monkeypatch,
                                                     name, argv):
        # Both ideals solve to a substitution map when they load, so 1 is
        # tested through it and a prime-power certificate needs no basis.
        def refuse(*_args):
            raise AssertionError("a Gröbner basis was built")

        monkeypatch.setattr(ideals, "_buchberger", refuse)
        monkeypatch.setattr(IdealPresentation, "_contracted_basis", refuse)
        presentation = str(TESTS / name)
        code, _, _ = run(capsys, "certify", presentation, "--order", "3", *argv,
                         "--out", str(tmp_path))
        assert code == 0
        certs = sorted(tmp_path.glob("*.cert.json"))
        assert certs
        for cert in certs:
            code, out, _ = run(capsys, "verify", str(cert), presentation)
            assert (code, out.splitlines()[-1]) == (0, "PASS")

    def test_hash_mismatch_is_an_input_error(self, capsys, cert_path):
        code, _, err = run(capsys, "verify", str(cert_path), TIMES23)
        assert code == 2
        assert "hash mismatch" in err

    def test_empty_transcript_is_an_input_error(self, capsys, cert_path, tmp_path):
        # The proof certificate with nothing to replay printed "grade: proof"
        # and PASS.
        data = json.loads(cert_path.read_text())
        data["transcript"] = []
        bad = tmp_path / "empty.cert.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(bad), THREE_DOT)
        assert code == 2
        assert "transcript is empty" in err
        assert "PASS" not in out

    def test_forged_order_is_an_input_error(self, capsys, cert_path, tmp_path):
        # With order 2 the third slot was dropped and the certificate passed.
        data = json.loads(cert_path.read_text())
        data["order"] = 2
        bad = tmp_path / "forged.cert.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(bad), THREE_DOT)
        assert code == 2
        assert "does not match" in err
        assert "PASS" not in out

    def test_consecutive_ratio_at_one_is_an_input_error(self, capsys, tmp_path):
        # The shift n - 1 is 0 at n = 1; the separation check divided by it.
        run(capsys, "certify", RATIONAL_DUAL, "--order", "3", "--out", str(tmp_path))
        cert = next(tmp_path.glob("*.cert.json"))
        data = json.loads(cert.read_text())
        data["transcript"] = [[1, 1]]
        cert.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(cert), RATIONAL_DUAL)
        assert code == 2
        assert err == "error: consecutive_ratio dilations must be at least 2\n"

    @pytest.mark.parametrize("family, shape, coefficients, presentation, message", [
        # Each of these crashed with a TypeError traceback.
        ({"kind": "explicit_list", "dilations": [2, 3]}, ["1", "2", "3"], ["1", "-1", "1"],
         RATIONAL_DUAL, "takes consecutive_ratio certificates, not explicit_list"),
        ({"kind": "explicit_list", "dilations": [2, 3]}, [["1"], ["2"], ["3"]],
         ["1", "-1", "1"], RATIONAL_DUAL,
         "takes consecutive_ratio certificates, not explicit_list"),
        ({"kind": "consecutive_ratio"}, ["1", "2", "1"], [{"poly": "1"}] * 3, THREE_DOT,
         "shifts by rationals, not exponent vectors"),
        # With u1 -> 2 this printed PASS at proof grade: 2 * 2 - 2^2 = 0 at n = 2.
        ({"kind": "consecutive_ratio"}, ["1", "2", "1"], ["1", "-1", "1"], TIMES23,
         "shifts by rationals, not exponent vectors"),
        ({"kind": "prime_power", "p": 2}, ["0", "1", "2"], [{"poly": "1"}] * 3, THREE_DOT,
         "needs exponent-vector shape points"),
        # These printed PASS: (1, n, n-1) never reads the stored shape.
        ({"kind": "consecutive_ratio"}, ["5", "7", "9"], ["1", "-1", "1"], RATIONAL_DUAL,
         "shape must be (1, 2, 1)"),
        ({"kind": "consecutive_ratio"}, [["1"], ["2"], ["3"]], ["1", "-1", "1"],
         RATIONAL_DUAL, "shape must be (1, 2, 1)"),
        # Laurent polynomials over F_p have integer exponents only.
        ({"kind": "prime_power", "p": 2}, [["1/2", "0"], ["1", "0"], ["0", "1"]],
         [{"poly": "1"}] * 3, THREE_DOT, "needs integer shape points"),
    ], ids=["dual-scalar-list", "dual-vector-list", "charp-ratio", "evaluation-ratio",
            "charp-scalar-prime-power",
            "ratio-forged-scalars", "ratio-forged-vectors", "charp-fractional-point"])
    def test_shape_the_system_cannot_take_is_an_input_error(
            self, capsys, tmp_path, family, shape, coefficients, presentation, message):
        cert = tmp_path / "shape.cert.json"
        cert.write_text(json.dumps({
            "schema": 1, "kind": "non_mixing_certificate", "order": 3, "grade": "evidence",
            "family": family, "shape": shape, "coefficients": coefficients,
            "transcript": [[2, 1], [3, 1]], "system_hash": load_system(presentation).hash,
        }))
        code, out, err = run(capsys, "verify", str(cert), presentation)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("stored", [None, "", 5])
    def test_missing_system_hash_is_an_input_error(self, capsys, cert_path, tmp_path, stored):
        # A certificate with no hash printed PASS against any presentation;
        # a number in its place crashed the mismatch message.
        data = json.loads(cert_path.read_text())
        if stored is None:
            del data["system_hash"]
        else:
            data["system_hash"] = stored
        bad = tmp_path / "nohash.cert.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(bad), THREE_DOT)
        assert code == 2
        assert err == "error: certificate carries no system_hash\n"
        assert out == ""

    def test_explicit_list_labelled_proof_fails(self, capsys, tmp_path):
        # An explicit list samples finitely many dilations: evidence at most.
        # Relabelled proof, it printed "grade: proof" and PASS.
        run(capsys, "certify", THREE_DOT, "--order", "3", "--force-search", "--box", "1",
            "--window", "0", "--out", str(tmp_path))
        cert = next(p for p in sorted(tmp_path.glob("*.cert.json"))
                    if json.loads(p.read_text())["family"]["kind"] == "explicit_list")
        data = json.loads(cert.read_text())
        code, out, _ = run(capsys, "verify", str(cert), THREE_DOT)
        assert code == 0 and out.splitlines()[-1] == "PASS"
        data["grade"] = "proof"
        cert.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(cert), THREE_DOT)
        assert code == 1
        lines = out.splitlines()
        assert "grade: FAILED (labelled proof, but an explicit_list certificate is evidence)" \
            in lines
        assert lines[-1] == "FAIL: grade"
        code, out, _ = run(capsys, "verify", str(cert), THREE_DOT, "--json")
        assert code == 1 and json.loads(out)["first_failure"] is None

    def test_separation_failure_is_named(self, capsys, cert_path, tmp_path):
        # Every bit passes, so there is no failing dilation to name.
        data = json.loads(cert_path.read_text())
        data["transcript"] = [[2, 1], [2, 1]]
        bad = tmp_path / "repeated.cert.json"
        bad.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(bad), THREE_DOT)
        assert code == 1
        assert out.splitlines()[-1] == "FAIL: separation"
        code, out, _ = run(capsys, "verify", str(bad), THREE_DOT, "--json")
        assert code == 1
        assert json.loads(out)["first_failure"] is None

    def test_tampered_transcript_fails(self, capsys, cert_path, tmp_path):
        data = json.loads(cert_path.read_text())
        data["shape"][1] = ["1", "1"]
        bad = tmp_path / "tampered.cert.json"
        bad.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(bad), THREE_DOT)
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("forge, grade_line", [
        # 1 + u1^3 + u2^3 is not in (1 + u1 + u2) over F_2.
        (lambda d: d.update(family={"kind": "prime_power", "p": 3}, transcript=[[1, 1]]),
         "grade: FAILED (labelled proof, but a prime_power certificate with p = 3 in "
         "characteristic 2 is evidence)"),
        # (1 + u1 + u2)^2 is in the ideal, but the sum at dilation 2 is not.
        (lambda d: d.update(shape=[["0", "0"], ["1", "0"], ["0", "1"]],
                            coefficients=[{"poly": "1"}, {"poly": "u1"}, {"poly": "u2"}],
                            transcript=[[1, 1]]),
         "grade: FAILED (labelled proof, but a prime_power certificate with a non-constant "
         "coefficient is evidence)"),
        # The Frobenius argument starts from the sum at dilation 1.
        (lambda d: d.update(transcript=[[2, 1], [4, 1]]),
         "grade: FAILED (labelled proof, but a prime_power certificate whose transcript "
         "lacks dilation 1 is evidence)"),
        (lambda d: d.update(grade="certain"),
         "grade: FAILED (labelled certain, but its derived grade is proof)"),
    ], ids=["p-is-not-the-characteristic", "non-constant-coefficients", "no-dilation-one",
            "unknown-label"])
    def test_prime_power_grade_is_derived(self, capsys, cert_path, tmp_path, forge, grade_line):
        # Each printed its label as the grade, then PASS.
        data = json.loads(cert_path.read_text())
        forge(data)
        bad = tmp_path / "forged.cert.json"
        bad.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(bad), THREE_DOT)
        assert code == 1
        assert out.splitlines()[-2:] == [grade_line, "FAIL: grade"]
        bad.write_text(json.dumps({**data, "grade": "evidence"}))
        code, out, _ = run(capsys, "verify", str(bad), THREE_DOT)
        assert code == 0 and out.splitlines()[-1] == "PASS"

    def test_repeated_shape_point_is_evidence(self, capsys, tmp_path):
        # Over F_3 the coefficients 2 and 2 at the repeated origin merge to 1,
        # so every dilation by 3^k sums to a multiple of 1 + u1 + u2, but the
        # two slots at the origin never separate.  This printed PASS.
        cert = tmp_path / "repeated.cert.json"
        cert.write_text(json.dumps({
            "schema": 1, "kind": "non_mixing_certificate", "order": 4, "grade": "proof",
            "family": {"kind": "prime_power", "p": 3},
            "shape": [["0", "0"], ["0", "0"], ["1", "0"], ["0", "1"]],
            "coefficients": [{"poly": "2"}, {"poly": "2"}, {"poly": "1"}, {"poly": "1"}],
            "transcript": [[1, 1]], "system_hash": load_system(F3_SUBST).hash,
        }))
        code, out, _ = run(capsys, "verify", str(cert), F3_SUBST)
        assert code == 1
        assert out.splitlines()[-2:] == [
            "grade: FAILED (labelled proof, but a prime_power certificate with a repeated "
            "shape point is evidence)", "FAIL: grade"]

    def test_a_failing_dilation_comes_before_the_grade(self, capsys, cert_path, tmp_path):
        data = json.loads(cert_path.read_text())
        data.update(shape=[["0", "0"], ["1", "0"], ["0", "1"]],
                    coefficients=[{"poly": "1"}, {"poly": "u1"}, {"poly": "u2"}],
                    transcript=[[1, 1], [2, 1]])
        bad = tmp_path / "tampered.cert.json"
        bad.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(bad), THREE_DOT)
        lines = out.splitlines()
        assert code == 1
        assert lines[1] == "dilation 2: correlation 0 (expected 1) FAIL"
        assert lines[-2].startswith("grade: FAILED (labelled proof")
        assert lines[-1] == "FAIL at dilation 2"

    def test_ratio_coefficients_off_the_identities_fail_on_grade(self, capsys, tmp_path):
        # At n = 2 the shifts 1 and 1 merge: (1 - 3) * 1 + 1 * 2 = 0, yet the
        # family fails at every other n.
        run(capsys, "certify", RATIONAL_DUAL, "--order", "3", "--out", str(tmp_path))
        cert = next(tmp_path.glob("*.cert.json"))
        data = json.loads(cert.read_text())
        data.update(coefficients=["1", "1", "-3"], transcript=[[2, 1]])
        cert.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(cert), RATIONAL_DUAL)
        assert code == 1
        assert out.splitlines()[-2:] == [
            "grade: FAILED (labelled proof, but a consecutive_ratio certificate whose "
            "coefficients are not (a, -a, a) is evidence)", "FAIL: grade"]

def _without(path):
    def edit(data):
        block, key = path.split(".")
        del data[block][key]
    return edit


class TestMalformedFiles:
    """A file that is not what its command reads is an input error naming
    the field, never a traceback."""

    @pytest.mark.parametrize("edit, message", [
        (lambda d: [], "a certificate must be a JSON object"),
        (lambda d: {k: d[k] for k in ("kind", "schema", "system_hash")},
         "missing field 'family'"),
        (lambda d: {**d, "family": {"kind": "prime_power"}}, "missing field 'family.p'"),
        (lambda d: {**d, "order": None}, "field 'order' cannot hold None"),
        (lambda d: {**d, "transcript": [1, 2]}, "field 'transcript' cannot hold 1"),
        (lambda d: {**d, "coefficients": ["1", "1", "1"]},
         "field 'coefficients' cannot hold '1'"),
        (lambda d: {**d, "family": {"kind": "prime_power", "p": 2.9},
                    "transcript": [[1, 1], [2.7, 1]]}, "field 'family.p' cannot hold 2.9"),
        (lambda d: {**d, "family": {"kind": "prime_power", "p": True}},
         "field 'family.p' cannot hold True"),
        (lambda d: {**d, "transcript": [[1, 1], [2.7, 1]]},
         "field 'transcript' cannot hold 2.7"),
        (lambda d: {**d, "transcript": [[1, 1], [2, 1.0]]},
         "field 'transcript' cannot hold 1.0"),
        (lambda d: {**d, "order": 3.0}, "field 'order' cannot hold 3.0"),
        (lambda d: {**d, "order": True}, "field 'order' cannot hold True"),
        (lambda d: {**d, "family": {"kind": "explicit_list", "dilations": [1, 2.0]}},
         "field 'family.dilations' cannot hold 2.0"),
        (lambda d: {**d, "schema": True}, "field 'schema' cannot hold True"),
        (lambda d: {**d, "shape": "123"}, "field 'shape' cannot hold '123'"),
        (lambda d: {**d, "transcript": "11"}, "field 'transcript' cannot hold '11'"),
        (lambda d: {**d, "family": {"kind": "explicit_list", "dilations": "1"}},
         "field 'family.dilations' cannot hold '1'"),
    ], ids=["list", "no-family", "no-p", "order-null", "scalar-entry", "plain-coefficient",
            "float-p-and-dilation", "bool-p", "float-dilation", "float-bit", "float-order",
            "bool-order", "float-family-dilation", "bool-schema", "string-shape",
            "string-transcript", "string-family-dilations"])
    def test_certificate(self, capsys, tmp_path, edit, message):
        # The first two crashed with an AttributeError and a KeyError.
        run(capsys, "certify", THREE_DOT, "--order", "3", "--out", str(tmp_path))
        cert = next(tmp_path.glob("*.cert.json"))
        cert.write_text(json.dumps(edit(json.loads(cert.read_text()))))
        code, out, err = run(capsys, "verify", str(cert), THREE_DOT)
        assert code == 2
        assert err.startswith("error: ") and err.endswith(f"{message}\n")
        assert out == ""

    @pytest.mark.parametrize("source, edit, message", [
        (THREE_DOT, _without("group.d"), "missing field 'group.d'"),
        (THREE_DOT, _without("module.characteristic"),
         "missing field 'module.characteristic'"),
        (TIMES23, _without("module.assignment"), "missing field 'module.assignment'"),
        (THREE_DOT, lambda d: d.update(group=[{"kind": "free_abelian", "d": 2}]),
         "group must be a JSON object"),
        (THREE_DOT, lambda d: d["module"].update(characteristic=2.9),
         "field 'module.characteristic' cannot hold 2.9"),
        (THREE_DOT, lambda d: d["module"].update(characteristic=2.0),
         "field 'module.characteristic' cannot hold 2.0"),
        (THREE_DOT, lambda d: d["group"].update(d=2.0), "field 'group.d' cannot hold 2.0"),
        (THREE_DOT, lambda d: d["group"].update(d=True), "field 'group.d' cannot hold True"),
        (RATIONAL_DUAL, lambda d: d["group"].update(primes=[2, 3.5]),
         "field 'group.primes' cannot hold 3.5"),
        (TIMES23, lambda d: d["module"].update(level=1.5), "field 'module.level' cannot hold 1.5"),
        (TIMES23, lambda d: d["module"].update(level=True),
         "field 'module.level' cannot hold True"),
        # list() would read a string character by character, and True == 1.
        (RATIONAL_DUAL, lambda d: d.update(schema=True) or d["group"].update(primes="23"),
         "field 'schema' cannot hold True"),
        (THREE_DOT, lambda d: d.update(schema=1.0), "field 'schema' cannot hold 1.0"),
        (RATIONAL_DUAL, lambda d: d["group"].update(primes="23"),
         "field 'group.primes' cannot hold '23'"),
        # An entry sharing a factor with an earlier one names no new free
        # generator, and <2, 6> holds 3 though 3 is not a product of 2 and 6.
        (RATIONAL_DUAL, lambda d: d["group"].update(primes=[2, 6]),
         "field 'group.primes' cannot hold 6"),
        (RATIONAL_DUAL, lambda d: d["group"].update(primes=[3, 2, 3]),
         "field 'group.primes' cannot hold 3"),
        (RATIONAL_DUAL, lambda d: d["group"].update(primes=[1]),
         "field 'group.primes' cannot hold 1"),
        (THREE_DOT, lambda d: d["module"].update(generators="1"),
         "field 'module.generators' cannot hold '1'"),
        (TIMES23, lambda d: d["module"].update(modulus="-11"),
         "field 'module.modulus' cannot hold '-11'"),
        (TIMES23, lambda d: d["module"]["assignment"].update(u1="2"),
         "field 'module.assignment.u1' cannot hold '2'"),
        (THREE_DOT, lambda d: d.update(group={"kind": "positive_rationals", "primes": "all"}),
         "field 'group.primes' cannot hold 'all' here: only the rational dual takes the "
         "whole group"),
        # The rational dual is Q acted on by multiplication by positive rationals.
        (RATIONAL_DUAL, lambda d: d.update(group={"kind": "rational_vector", "d": 2}),
         "field 'group.kind' cannot hold 'rational_vector' here: the rational dual takes "
         "only a positive_rationals group"),
        (RATIONAL_DUAL, lambda d: d.update(group={"kind": "free_abelian", "d": 1}),
         "field 'group.kind' cannot hold 'free_abelian' here: the rational dual takes "
         "only a positive_rationals group"),
        # An evaluation assigns one unit to each variable of its group, at a
        # level of at least 1: a missing unit shrank the analyze box to one
        # dimension, a stray one failed later, and level 0 sent every unit to 1.
        (TIMES23, lambda d: d["module"]["assignment"].pop("u2"),
         "field 'module.assignment' cannot hold (u1) here: a group of rank 2 takes one "
         "unit for each of its variables"),
        (TIMES23, lambda d: d.update(group={"kind": "free_abelian", "d": 1})
         or d["module"].update(assignment={"u2": ["3"]}),
         "field 'module.assignment' cannot hold (u2) here: a group of rank 1 takes one "
         "unit for each of its variables"),
        (TIMES23, lambda d: d["module"].update(level=0),
         "field 'module.level' cannot hold 0: it must be at least 1"),
    ], ids=["no-d", "no-characteristic", "no-assignment", "group-list", "float-characteristic",
            "integral-float-characteristic", "float-d", "bool-d", "float-prime", "float-level",
            "bool-level", "bool-schema", "float-schema", "string-primes", "shared-factor-prime", "repeated-prime", "prime-one", "string-generators",
            "string-modulus", "string-assignment", "whole-group-char-p",
            "rational-dual-on-rational-vector", "rational-dual-on-free-abelian",
            "evaluation-missing-unit", "evaluation-stray-unit", "evaluation-level-zero"])
    def test_presentation(self, capsys, tmp_path, source, edit, message):
        data = json.loads(Path(source).read_text())
        edit(data)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("kind, level, dilations, code, message", [
        ("free_abelian", 2, [2, 4, 6], 2, "a free_abelian group holds only integer shape points"),
        # This read "exponent 1/2 not supported at level 1; raise the level".
        ("free_abelian", 1, [1, 2], 2, "a free_abelian group holds only integer shape points"),
        ("rational_vector", 2, [2, 4, 6], 0, None),
    ], ids=["free-abelian-level-2", "free-abelian-level-1", "rational-vector"])
    def test_shape_point_outside_the_group(self, capsys, tmp_path, kind, level, dilations, code,
                                           message):
        # u1 -> -1 at level 2 sends u1^(n/2) to (-1)^n, so the shape (0, 1/2)
        # vanishes at even n; 1/2 lies in Q but not in Z.
        pres = tmp_path / "half.json"
        pres.write_text(json.dumps({"schema": 1, "group": {"kind": kind, "d": 1}, "module": {
            "type": "evaluation", "modulus": ["-1", "1"], "assignment": {"u1": ["-1"]},
            "level": level}}))
        cert = tmp_path / "half.cert.json"
        cert.write_text(json.dumps({
            "schema": 1, "kind": "non_mixing_certificate",
            "system_hash": load_system(str(pres)).hash, "order": 2, "grade": "evidence",
            "family": {"kind": "explicit_list", "dilations": dilations},
            "shape": [["0"], ["1/2"]], "coefficients": ["1", "-1"],
            "transcript": [[n, 1] for n in dilations]}))
        result, out, err = run(capsys, "verify", str(cert), str(pres))
        assert result == code
        assert (err, out.splitlines()[-1:]) == ((f"error: {message}\n", []) if message
                                                else ("", ["PASS"]))

    def test_zero_unit(self, capsys, tmp_path):
        # NumberField.inv raised ZeroDivisionError through analyze.
        path = tmp_path / "zero_unit.json"
        path.write_text(json.dumps({"schema": 1, "group": {"kind": "free_abelian", "d": 1},
                                    "module": {"type": "evaluation", "modulus": ["-1", "1"],
                                               "assignment": {"u1": ["0"]}}}))
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err == "error: field 'module.assignment' cannot hold 0 for u1: a unit is nonzero\n"

    @pytest.mark.parametrize("shape, message", [
        ([["0"], ["1"]], "exponent vector (0,) has length 1, expected 2"),
        ([["0", "0", "0"], ["1", "0", "0"]], "exponent vector (0, 0, 0) has length 3, expected 2"),
    ], ids=["one-entry", "three-entries"])
    def test_shape_point_of_the_wrong_length(self, capsys, tmp_path, shape, message):
        # Both printed PASS: a unit power read a short point as padded with
        # zeros and ignored a zero entry past the rank.
        cert = tmp_path / "short.cert.json"
        cert.write_text(json.dumps({
            "schema": 1, "kind": "non_mixing_certificate",
            "system_hash": load_system(TIMES23).hash, "order": 2, "grade": "evidence",
            "family": {"kind": "explicit_list", "dilations": [1]},
            "shape": shape, "coefficients": ["2", "-1"], "transcript": [[1, 1]]}))
        assert run(capsys, "verify", str(cert), TIMES23) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("engine, message", [
        ("substitution", "substitution engine requires a substitution map"),
        ({"substitution": {}}, "substitution engine requires a substitution map"),
        ("foo", "unknown engine 'foo'"),
        ({"hint": {"u2": "1 + u1"}}, "engine object must carry a substitution map"),
    ], ids=["string-no-map", "empty-map", "unknown", "no-substitution-key"])
    def test_engine_field(self, capsys, tmp_path, engine, message):
        # A file naming the substitution engine writes its hint map with it;
        # the map is then a claim checked at load, and picks no engine.
        data = json.loads(Path(THREE_DOT).read_text())
        data["module"]["engine"] = engine
        path = tmp_path / "engine.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Certificates as `certify` writes them, with their presentations:
    ledrappier at order 3 (prime power), one explicit list from its forced
    search, and the rational dual at order 3."""
    out = tmp_path_factory.mktemp("written")
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in (("proof", [THREE_DOT]), ("forced", [THREE_DOT, "--force-search"]),
                           ("dual", [RATIONAL_DUAL])):
            assert main(["certify", *argv, "--order", "3", "--out", str(out / name)]) == 0
    first = [json.loads(p.read_text()) for p in sorted((out / "forced").glob("*.cert.json"))
             if '"explicit_list"' in p.read_text()][0]
    return out, [(json.loads(next((out / name).glob("*.cert.json")).read_text()), pres)
                 for name, pres in (("proof", THREE_DOT), ("dual", RATIONAL_DUAL))] + [
                     (first, THREE_DOT)]


def _in_three_dot_ideal(terms) -> bool:
    """Membership in (1 + u1 + u2) over F_2, apart from the engines: the
    quotient is F_2[x][1/x, 1/(1 + x)] by u1 -> x, u2 -> 1 + x, so clear the
    denominators and test the image, a polynomial packed into an int."""
    low = [min((m[i] for m in terms), default=0) for i in (0, 1)]
    image = 0
    for (a, b), c in terms.items():
        power = 1
        for _ in range(b - low[1]):
            power ^= power << 1  # times 1 + x
        image ^= (c % 2) * power << (a - low[0])
    return image == 0


def _proof_holds(data) -> bool:
    """The derived proof conditions, read off the file independently."""
    family = data["family"]
    if family["kind"] == "prime_power":
        coefficients = [LaurentPoly.parse(c["poly"], 2, GF(2)) for c in data["coefficients"]]
        shape = [tuple(int(Fraction(x)) for x in q) for q in data["shape"]]

        def dilated_sum(n):
            terms = {}
            for q, a in zip(shape, coefficients):
                for m, c in a.terms.items():
                    key = (m[0] + n * q[0], m[1] + n * q[1])
                    terms[key] = terms.get(key, 0) + c
            return terms

        return (int(family["p"]) == 2 and all(set(a.terms) <= {(0, 0)} for a in coefficients)
                and 1 in [int(n) for n, _ in data["transcript"]] and len(set(shape)) == len(shape)
                and all(_in_three_dot_ideal(dilated_sum(n)) for n in (1, 2, 4)))
    if family["kind"] == "consecutive_ratio":
        a1, a2, a3 = (Fraction(c) for c in data["coefficients"])
        return a1 == a3 == -a2 != 0 and [Fraction(g) for g in data["shape"]] == [1, 2, 1]
    return False


_POLYS = ["0", "1", "u1", "u2", "1 + u1", "u1 + u2", "1 + u1 + u2", "u1^-1", "1 + u1 + u1^2"]
_EDITS = {
    "order": st.one_of(st.integers(0, 5), st.sampled_from([None, "3", "x"])),
    "family.kind": st.sampled_from(["prime_power", "explicit_list", "consecutive_ratio",
                                    "lattice"]),
    "family.p": st.one_of(st.integers(0, 7), st.sampled_from([None, "2"])),
    "family.dilations": st.one_of(st.lists(st.integers(0, 9), max_size=4), st.just("1")),
    "shape": st.one_of(
        st.lists(st.sampled_from(["-1", "0", "1", "2", "1/2"]), min_size=1, max_size=3),
        st.sampled_from(["0", "1", "2", "3", "1/2", None])),
    "coefficients": st.one_of(st.sampled_from(_POLYS).map(lambda t: {"poly": t}),
                              st.sampled_from(["1", "-1", "2", "-3", "1/2", "0", None,
                                               {"field": ["1"]}])),
    "transcript": st.one_of(st.tuples(st.integers(-1, 20), st.integers(0, 2)).map(list),
                            st.sampled_from([1, [1], None, [1, 1, 1]])),
    "grade": st.sampled_from(["proof", "evidence", "Proof", "", None, 1]),
}


class TestVerifyMutations:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_field_edits(self, written, data):
        # Every edit ends in a verdict or an input error, and a PASS at proof
        # grade needs the derived conditions, whatever the label says.
        out, certificates = written
        cert, presentation = certificates[data.draw(st.integers(0, 2))]
        cert = json.loads(json.dumps(cert))
        field = data.draw(st.sampled_from(sorted(_EDITS) + ["drop"]))
        if field == "drop":
            del cert[data.draw(st.sampled_from(sorted(cert)))]
        elif field.startswith("family."):
            cert["family"][field.split(".")[1]] = data.draw(_EDITS[field])
        elif field in ("shape", "coefficients", "transcript"):
            index = data.draw(st.integers(0, len(cert[field]) - 1))
            cert[field][index] = data.draw(_EDITS[field])
        else:
            cert[field] = data.draw(_EDITS[field])
        path = out / "edited.cert.json"
        path.write_text(json.dumps(cert))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", str(path), presentation])
        lines = stdout.getvalue().splitlines()
        assert code in (0, 1, 2)
        if code == 0 and "grade: proof" in lines:
            assert lines[-1] == "PASS" and _proof_holds(cert), cert

    @pytest.mark.parametrize("dilations, transcript", [
        ([1, 2, 4, 8, 16, 32, 64], [[1, 1]]),
        ([4, 2, 1], [[1, 1], [2, 1], [4, 1]]),
        ([], [[1, 1]]),
    ], ids=["longer-family", "reordered", "empty-family"])
    def test_explicit_list_family_is_its_transcript(self, written, capsys, dilations,
                                                   transcript):
        # Only the transcript is replayed, so a family listing other
        # dilations than it would claim dilations nothing checked.
        out, certificates = written
        cert, presentation = certificates[2]
        path = out / "family.cert.json"
        path.write_text(json.dumps(cert))
        assert run(capsys, "verify", str(path), presentation)[0] == 0
        path.write_text(json.dumps({**cert, "transcript": transcript, "family": {
            "kind": "explicit_list", "dilations": dilations}}))
        code, stdout, err = run(capsys, "verify", str(path), presentation)
        assert (code, stdout) == (2, "")
        assert err == (f"error: explicit_list family dilations {dilations} differ from "
                       f"the transcript's dilations {[n for n, _ in transcript]}\n")


class TestSimulate:
    def test_exact_gap(self, capsys):
        code, out, _ = run(
            capsys, "simulate", THREE_DOT,
            "--sets", '[{"0,0": 0}, {"0,0": 0}, {"0,0": 0}]',
            "--shifts", "[[0,0],[4,0],[0,4]]",
        )
        assert code == 0
        assert "1/4" in out
        assert "1/8" in out

    def test_monte_carlo_reported(self, capsys):
        code, out, _ = run(
            capsys, "simulate", THREE_DOT,
            "--sets", '[{"0,0": 0}]', "--shifts", "[[0,0]]",
            "--samples", "20000", "--seed", "4", "--json",
        )
        data = json.loads(out)
        assert code == 0
        assert abs(data["estimate"] - 0.5) < 0.02

    def test_shift_of_the_wrong_length_refused(self, capsys):
        code, _, err = run(
            capsys, "simulate", THREE_DOT, "--sets", '[{"0,0": 0}]', "--shifts", "[[1,0,5]]",
            "--window", "7",
        )
        assert code == 2
        assert "does not match the window dimension" in err

    def test_exact_at_any_window_estimate_within_the_site_limit(self, capsys):
        argv = ["simulate", THREE_DOT, "--sets", '[{"0,0": 0}, {"0,0": 0}, {"0,0": 0}]',
                "--shifts", "[[0,0],[1099511627776,0],[0,1099511627776]]"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["exact"] == "1/4"
        code, _, err = run(capsys, *argv, "--window", "1099511627777", "--samples", "10")
        assert code == 4
        sites = (2 ** 40 + 1) ** 2
        lines = err.splitlines()
        assert lines[0] == f"budget exhausted: a window of {sites} sites exceeds the site limit"
        assert json.loads(lines[1].removeprefix("region: ")) == {
            "site_limit": 16384, "sites": sites, "window": [[0, 2 ** 40]] * 2}

    def test_sample_count(self, capsys):
        argv = ["simulate", THREE_DOT, "--sets", '[{"0,0": 0}]', "--shifts", "[[1,0]]",
                "--window", "7", "--json"]
        code, _, err = run(capsys, *argv, "--samples", "-5")
        assert code == 2
        assert "at least one sample" in err
        # 0 samples means no Monte Carlo at all.
        code, out, _ = run(capsys, *argv, "--samples", "0")
        assert code == 0
        assert "estimate" not in json.loads(out)

    def test_threads_option_reaches_the_estimate(self, capsys, monkeypatch):
        import mixlab.simulate as simulate

        seen = []
        real = simulate.correlation_estimate

        def spy(*args, threads, **kwargs):
            seen.append(threads)
            return real(*args, threads=threads, **kwargs)

        monkeypatch.setattr(simulate, "correlation_estimate", spy)
        argv = ["simulate", THREE_DOT, "--sets", '[{"0,0": 0}]', "--shifts", "[[0,0]]",
                "--window", "3", "--samples", "100"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code, threaded, _ = run(capsys, "--threads", "3", *argv)
        assert code == 0
        assert seen == [1, 3]
        assert threaded == out

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_fewer_than_one_thread_refused(self, capsys, threads):
        # Below 1 the estimate ran serially without saying so.
        code, out, err = run(capsys, "--threads", threads, "simulate", THREE_DOT, "--sets",
                             '[{"0,0": 0}]', "--shifts", "[[0,0]]", "--samples", "100")
        assert (code, out, err) == (2, "", "error: --threads must be at least 1\n")

    def test_rational_dual_not_simulable(self, capsys):
        code, _, err = run(
            capsys, "simulate", RATIONAL_DUAL,
            "--sets", '[{"0": 0}]', "--shifts", "[[0]]",
        )
        assert code == 2

    def test_bad_sets_json(self, capsys):
        code, _, err = run(
            capsys, "simulate", THREE_DOT, "--sets", "not-json", "--shifts", "[[0,0]]"
        )
        assert code == 2

    @pytest.mark.parametrize("sets, shifts, message", [
        ("[1]", "[[0,0]]", "--sets must be a JSON list of pin maps"),
        ('{"0,0": 0}', "[[0,0]]", "--sets must be a JSON list of pin maps"),
        ('[{"0,0": 1.5}]', "[[0,0]]", "the symbol pinned at '0,0' must be an integer, not 1.5"),
        ('[{"0,0": "1"}]', "[[0,0]]", "the symbol pinned at '0,0' must be an integer"),
        ('[{"0,0": true}]', "[[0,0]]", "the symbol pinned at '0,0' must be an integer"),
        ('[{"0.5,0": 0}]', "[[0,0]]", "pinned site '0.5,0' is not a comma-separated list"),
        ('[{"1_0,0": 0}]', "[[0,0]]", "pinned site '1_0,0' is not a comma-separated list"),
        ('[{"\u0661,0": 0}]', "[[0,0]]", "pinned site '\u0661,0' is not a comma-separated list"),
        ('[{"0,0": 0}]', "[5]", "--shifts must be a JSON list of integer vectors"),
        ('[{"0,0": 0}]', '{"0": [0, 0]}', "--shifts must be a JSON list of integer vectors"),
        ('[{"0,0": 0}]', "[[0.5,0]]", "a shift coordinate must be an integer, not 0.5"),
        ('[{"0,0": 1.0}]', "[[0.0, 2.0]]", "the symbol pinned at '0,0' must be an integer, not 1.0"),
        ('[{"0,0": 1}]', "[[0, 2.0]]", "a shift coordinate must be an integer, not 2.0"),
        ("not-json", "[[0,0]]", "field '--sets' cannot hold 'not-json'"),
        ('[{"0,0": 0}]', "[[0,0]", "field '--shifts' cannot hold '[[0,0]'"),
    ])
    def test_malformed_sets_and_shifts_refused(self, capsys, sets, shifts, message):
        # These crashed with a traceback, were truncated by int() to the
        # answer 1/2, were read by int() as another site ("1_0" as 10, the
        # Arabic-Indic one as 1), (an object as --sets) were read as no set
        # at all, or (an integral float) were read as an integer, which no
        # other integer field takes.  Text that is not JSON got the decoder's
        # message, naming no flag.
        code, out, err = run(capsys, "simulate", THREE_DOT, "--sets", sets, "--shifts", shifts)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")

    def test_integral_numbers_are_still_read(self, capsys):
        argv = ["simulate", THREE_DOT, "--sets", '[{"0,0": 1}, {"1, 0": -1}]']
        code, out, _ = run(capsys, *argv, "--shifts", "[[0,0],[0,2]]")
        assert code == 0
        assert out.splitlines()[0] == "exact correlation:  1/4"


@pytest.mark.parametrize("argv, flag", [
    (["certify", THREE_DOT, "--order", "2", "--box", "-1"], "--box"),
    (["certify", THREE_DOT, "--order", "3", "--window", "-1"], "--window"),
    (["certify", TIMES23, "--order", "2", "--box", "-2"], "--box"),
    (["analyze", THREE_DOT, "--box", "-1"], "--box"),
    (["uniteq", "--coeffs", "1,1", "--gens", "2,3", "--box", "-1"], "--box"),
    (["uniteq", "--coeffs", "1,1", "--gens", "2,3", "--budget", "-1"], "--budget"),
    (["simulate", THREE_DOT, "--sets", '[{"0,0": 0}]', "--shifts", "[[0,0]]", "--window", "-3",
      "--json"], "--window"),
])
def test_negative_budgets_are_input_errors(capsys, tmp_path, argv, flag):
    # A negative box or window named an empty "exhausted region" (exit 3),
    # uniteq asserted its bound over no box at all, and simulate printed the
    # negative window as if it had been used.
    out_dir = ["--out", str(tmp_path)] if argv[0] == "certify" else []
    code, out, err = run(capsys, *argv, *out_dir)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be nonnegative\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text", ["1_0", "\u0662", "2.0", "0x5"])
@pytest.mark.parametrize("argv, flag", [
    (["analyze", THREE_DOT, "--box", "TEXT"], "--box"),
    (["certify", THREE_DOT, "--order", "TEXT", "--out", "OUT"], "--order"),
    (["certify", THREE_DOT, "--order", "3", "--window", "TEXT", "--out", "OUT"], "--window"),
    (["certify", THREE_DOT, "--order", "3", "--kmax", "TEXT", "--out", "OUT"], "--kmax"),
    (["simulate", THREE_DOT, "--sets", "[]", "--shifts", "[]", "--seed", "TEXT"], "--seed"),
    (["simulate", THREE_DOT, "--sets", "[]", "--shifts", "[]", "--samples", "TEXT"], "--samples"),
    (["uniteq", "--coeffs", "1,1", "--budget", "TEXT"], "--budget"),
    (["--threads", "TEXT", "analyze", THREE_DOT], "--threads"),
])
def test_integer_flags_take_ascii_digits_only(capsys, tmp_path, argv, flag, text):
    # int() read 1_0 as 10 and the Arabic-Indic two as 2; every integer flag
    # now reads its text as each --dilations entry is read.
    argv = [text if a == "TEXT" else str(tmp_path) if a == "OUT" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(f"argument {flag}: invalid decimal value: {text!r}")
    assert not list(tmp_path.iterdir())


def test_zero_box_and_window_stay_legal(capsys, tmp_path):
    code, out, _ = run(capsys, "certify", THREE_DOT, "--order", "2", "--box", "0",
                       "--window", "0", "--out", str(tmp_path))
    assert code == 3 and "exhausted region" in out
    code, out, _ = run(capsys, "analyze", THREE_DOT, "--box", "0")
    assert code == 0 and "none in box |gamma| <= 0" in out
    assert run(capsys, "uniteq", "--coeffs", "1,1", "--gens", "2", "--box", "0")[0] == 3


class TestUniteq:
    def test_x_plus_y(self, capsys):
        code, out, _ = run(capsys, "uniteq", "--coeffs", "1,1", "--gens", "2", "--box", "5")
        assert code == 0
        assert "1/2" in out
        assert "pass" in out

    def test_no_solutions(self, capsys):
        code, out, _ = run(capsys, "uniteq", "--coeffs", "1,3", "--gens", "3", "--box", "3")
        assert code == 3

    def test_budget_exhaustion(self, capsys):
        code, _, err = run(
            capsys, "uniteq", "--coeffs", "1,1", "--gens", "2,3",
            "--box", "6", "--budget", "100",
        )
        assert code == 4
        assert "budget" in err

    def test_box_alone_refuses_before_any_product(self, capsys):
        # 2 alone has 2 * 10^11 + 1 powers in this box; the refusal once came
        # only after every product of 2 and 3 was built.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "uniteq", "--coeffs", "1,1", "--gens", "2,3",
                             "--box", "100000000000", "--budget", "1")
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (4, "")
        assert err.splitlines() == [
            "budget exhausted: at least 200000000001 combinations exceed the budget 1",
            'region: {"box": 100000000000, "generators": 2, "terms": 2}']

    @pytest.mark.parametrize("argv, message", [
        (["--coeffs", "1/0,1"], "field '--coeffs' cannot hold '1/0'"),
        (["--coeffs", "1,1", "--gens", "2/0"], "field '--gens' cannot hold '2/0'"),
        (["--coeffs", "1,1", "--gens", "2", "--modulus", "1/0,1"],
         "field '--modulus' cannot hold '1/0'"),
        (["--coeffs", "abc"], "field '--coeffs' cannot hold 'abc'"),
        (["--coeffs", "1,1", "--gens", "2,x"], "field '--gens' cannot hold 'x'"),
        (["--coeffs", "1,1", "--modulus", "abc"], "field '--modulus' cannot hold 'abc'"),
    ])
    def test_zero_denominators_are_input_errors(self, capsys, argv, message):
        # Each ended in a ZeroDivisionError traceback (exit 1); an entry that
        # is not a rational printed "Invalid literal for Fraction", naming no flag.
        assert run(capsys, "uniteq", *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag, value, rest", [
        ("--gens", "-1,2", ["--coeffs", "1,1", "--box", "3"]),
        ("--coeffs", "-1,2", ["--gens", "2", "--box", "3"]),
        ("--coeffs", "-.5,3", ["--gens", "2", "--box", "3"]),
        ("--modulus", "-2,0,1", ["--coeffs", "1,1", "--gens", "2", "--box", "2"]),
    ])
    def test_leading_minus_lists_are_values(self, capsys, flag, value, rest):
        # argparse read "-1,2" as a flag: "--gens: expected one argument".
        spaced = run(capsys, "uniteq", flag, value, *rest)
        assert spaced == run(capsys, "uniteq", f"{flag}={value}", *rest)
        assert spaced[0] in (0, 3) and spaced[2] == ""

    def test_a_flag_is_still_not_a_value(self, capsys):
        code, _, err = run(capsys, "uniteq", "--coeffs", "1,1", "--gens", "--box", "3")
        assert code == 2
        assert "argument --gens: expected one argument" in err

    @pytest.mark.parametrize("coeffs, n", [("", 0), (",".join(["1"] * 21), 21)])
    @pytest.mark.parametrize("budget", ["0", "500000"])
    def test_term_count_is_an_input_error(self, capsys, coeffs, n, budget):
        # No terms ended in "not enough values to unpack" (exit 2), or with
        # --budget 0 in "at least 0.0909... combinations" (exit 4).
        assert run(capsys, "uniteq", "--coeffs", coeffs, "--gens", "2",
                   "--budget", budget) == (
            2, "", f"error: a unit equation takes 1 to 20 terms, not {n}\n")

    @pytest.mark.parametrize("argv", [
        ["--coeffs", "1,1", "--gens", "2", "--box", "5"],  # flushed at exit
        ["--coeffs", "1,1,1", "--gens=-1,2,3", "--box", "3"],  # past one buffer
    ])
    def test_closed_pipe_ends_quietly(self, argv):
        # The reader leaves before the first write, as `| head -1` may.
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        child = subprocess.Popen([sys.executable, "-m", "mixlab.cli", "uniteq", *argv],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(), err) == (1, b"")


def test_unit_equation_demo_takes_a_leading_minus():
    # `--gens -1,2` read -1,2 as a flag, in the demo's own parser and in the
    # uniteq it runs: both spellings now print the same, and a missing value
    # is still refused.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def demo(*argv):
        return subprocess.run([sys.executable, str(root / "scripts" / "unit_equation_demo.py"),
                               *argv], env=env, capture_output=True, text=True)

    joined = demo("--coeffs=1,1", "--gens=-1,2", "--box", "3")
    assert (joined.returncode, joined.stderr) == (0, "")
    assert "nondegenerate solutions: 3" in joined.stdout.splitlines()
    split = demo("--coeffs", "1,1", "--gens", "-1,2", "--box", "3")
    assert (split.returncode, split.stdout, split.stderr) == (0, joined.stdout, "")
    missing = demo("--gens", "--box", "3")
    assert missing.returncode == 2
    assert missing.stderr.splitlines()[-1].endswith("argument --gens: expected one argument")


@pytest.mark.parametrize("window, site", [("3", "(4, 0)"), ("-2", "(0, 0)")])
def test_three_dot_report_refuses_a_window_missing_a_pin(window, site):
    # As `mixlab simulate` does: one error line and exit 2, no traceback.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, str(root / "scripts" / "three_dot_report.py"),
                           "--window", window, "--samples", "10"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr == f"error: shifted pin {site} outside the window; enlarge it\n"


def test_exact_commands_do_not_load_numpy(tmp_path):
    # Only `simulate` needs dense arrays; the exact commands stay pure Python.
    # They load no dataclasses either: with its inspect import it cost more
    # than half of `import mixlab.cli`.
    script = f"""
import sys
import mixlab.cli as cli
def loaded():
    return [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
assert not loaded(), ("import", loaded())
for argv in (["analyze", {THREE_DOT!r}],
             ["certify", {THREE_DOT!r}, "--order", "3", "--out", {str(tmp_path)!r}],
             ["verify", {str(tmp_path / "ledrappier-order3-0.cert.json")!r}, {THREE_DOT!r}],
             ["uniteq", "--coeffs", "1,1", "--gens", "2,3", "--box", "2"]):
    assert cli.main(argv) == 0, argv
    assert not loaded(), (argv[0], loaded())
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
