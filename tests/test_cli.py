"""End-to-end command line tests, all run in-process via cli.main."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixlab.cli import main
from mixlab.presentation import load_system

SAMPLES = Path(__file__).resolve().parents[1] / "presentations"
THREE_DOT = str(SAMPLES / "ledrappier.json")
SPLIT = str(SAMPLES / "split_ledrappier.json")
TIMES23 = str(SAMPLES / "times2times3.json")
RATIONAL_DUAL = str(SAMPLES / "rational_dual.json")
TRIVIAL = str(SAMPLES / "trivial_unit.json")
# Kept out of presentations/, which the benchmark analyzes file by file.
F5_FINITE = str(Path(__file__).resolve().parent / "f5_two_generators.json")


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

    def test_rational_dual_order2_counts_constant_ratio_families(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "certify", RATIONAL_DUAL, "--order", "2", "--json", "--out", str(tmp_path)
        )
        assert code == 3
        data = json.loads(out)
        assert data["count"] == 0
        assert data["region"]["constant_ratio_families"] == 254

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
        grades = [json.loads(Path(line.split(": ", 1)[1]).read_text())["grade"]
                  for line in out.splitlines()]
        assert grades[0] == "proof"
        assert len(grades) > 1 and set(grades[1:]) == {"evidence"}

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
    ], ids=["dual-scalar-list", "dual-vector-list", "charp-ratio", "charp-scalar-prime-power",
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

    def test_threads_read_from_environment_at_each_call(self, capsys, monkeypatch):
        # The parser is built once per process, so MIXLAB_THREADS must be
        # read when a command runs, not when the parser is built.
        import mixlab.simulate as simulate

        seen = []
        real = simulate.correlation_estimate

        def spy(*args, threads, **kwargs):
            seen.append(threads)
            return real(*args, threads=threads, **kwargs)

        monkeypatch.setattr(simulate, "correlation_estimate", spy)
        argv = ["simulate", THREE_DOT, "--sets", '[{"0,0": 0}]', "--shifts", "[[0,0]]",
                "--window", "3", "--samples", "100"]
        outputs = []
        for value in ("1", "2"):
            monkeypatch.setenv("MIXLAB_THREADS", value)
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outputs.append(out)
        monkeypatch.delenv("MIXLAB_THREADS")
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, "--threads", "3", *argv)[0] == 0
        assert seen == [1, 2, 1, 3]
        assert outputs[0] == outputs[1]

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


def test_exact_commands_do_not_load_numpy(tmp_path):
    # Only `simulate` needs dense arrays; the exact commands stay pure Python.
    script = f"""
import sys
import mixlab.cli as cli
assert "numpy" not in sys.modules, "import"
for argv in (["analyze", {THREE_DOT!r}],
             ["certify", {THREE_DOT!r}, "--order", "3", "--out", {str(tmp_path)!r}],
             ["verify", {str(tmp_path / "ledrappier-order3-0.cert.json")!r}, {THREE_DOT!r}],
             ["uniteq", "--coeffs", "1,1", "--gens", "2,3", "--box", "2"]):
    assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv[0]
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
