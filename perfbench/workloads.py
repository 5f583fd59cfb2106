"""The three benchmark workloads: `search`, `replay` and `measure`.

Each workload is one closed-loop caller in one process with no extra
threads: it runs an operation, waits for it, checks its output, then runs
the next.  User commands go through `mixlab.cli.main`, so each loads its
system from file with a cold Groebner basis and normal-form cache, as a
user's command would; `measure` calls the `simulate` functions directly so
that the exact and Monte Carlo phases are timed apart.  Outputs are
checked against the oracles in `oracles.py` or against properties the
method must have, never against saved output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from mixlab import cli, presentation, simulate

import oracles
from inputs import LEDRAPPIER_F3, make_inputs, system_hash

LEDRAPPIER = "presentations/ledrappier.json"
TIMES2TIMES3 = "presentations/times2times3.json"


@dataclass
class Op:
    group: str          # the named metric this operation's time counts toward
    start: float
    end: float
    failed: bool = False
    samples: int = 0    # Monte Carlo samples drawn, for throughput
    seconds: float = 0.0  # end - start at nominal host speed, set after the run


class Workload:
    """Set-up, one round of operations, and the checks on their outputs."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.problems = []

    def check(self, cond: bool, what: str):
        if not cond:
            self.problems.append(what)

    def generate(self, out: Path) -> dict:
        """This workload's inputs under out, as {path: text} (the timed part
        of set-up; the caller writes the files)."""
        raise NotImplementedError

    def prepare(self):
        """Checks and oracle references computed before the timed phase."""

    def round(self, tracer) -> list:
        raise NotImplementedError

    def named_metrics(self, rounds) -> list:
        """(name, value, unit, note) for the workload's own end-to-end readings."""
        raise NotImplementedError

    # -- running one command ---------------------------------------------------

    def command(self, group: str, argv, tracer, known_fault=None):
        """Run `mixlab argv` in-process; returns (Op, exit code, stdout).

        A command that crashes or exits 2 (input error) has failed.  When
        known_fault names the error it is expected to print today, that
        failure is counted and its output is not checked further.
        """
        out, err = io.StringIO(), io.StringIO()
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                with _maybe(tracer, "cli"):
                    rc = cli.main(argv)
            except Exception:
                err.write(traceback.format_exc())
            end = time.perf_counter()
        text = out.getvalue()
        if tracer is not None:
            tracer.counts["cli.bytes_written"] += len(text.encode())
        failed = rc is None or rc == cli.EXIT_INPUT
        if failed and not (known_fault and known_fault in err.getvalue()):
            self.problems.append(f"{' '.join(argv)}: exit {rc}: {err.getvalue().strip()[-300:]}")
        return Op(group, start, end, failed), rc, text


def _median_round(rounds, group: str) -> float:
    return statistics.median(sum(op.seconds for op in r if op.group == group) for r in rounds)


# -- search ---------------------------------------------------------------------

class Search(Workload):
    """Certificate searches over characteristic p and evaluation systems,
    and the unit-equation enumerator.  No `simulate` work."""

    name = "search"

    def generate(self, out: Path):
        self.f3 = str(out / "ledrappier_f3.json")
        self.m61 = str(out / "mersenne61.json")
        return make_inputs(self.root, out, self.seed, with_certificates=False)[0]

    def prepare(self):
        root = self.root
        self.hashes = {
            str(root / LEDRAPPIER): system_hash(json.loads((root / LEDRAPPIER).read_text())),
            self.f3: system_hash(LEDRAPPIER_F3),
        }
        self.independent_units = oracles.distinct_unit_values((2, 3), 12)
        self.check(self.independent_units, "2^a 3^b repeats over the box: oracle fault")
        self.uniteq_reference = oracles.unit_solutions((2, 3, 5), 3)
        ledrappier = str(root / LEDRAPPIER)
        t23 = str(root / TIMES2TIMES3)
        # (group, argv before --out, check) -- the seed fixes the order of a round.
        self.ops = [
            ("certify_charp", ["certify", ledrappier, "--order", "2"], self.check_order2),
            ("certify_charp", ["certify", ledrappier, "--order", "3", "--force-search"],
             lambda *a: self.check_charp_certs(*a, p=2)),
            ("certify_charp", ["certify", self.f3, "--order", "3"],
             lambda *a: self.check_charp_certs(*a, p=3, dilations=[3 ** k for k in range(7)])),
            ("certify_eval", ["certify", t23, "--order", "2", "--box", "12"],
             lambda *a: self.check_times2times3(*a, order=2)),
            ("certify_eval", ["certify", t23, "--order", "3", "--box", "12"],
             lambda *a: self.check_times2times3(*a, order=3)),
            ("certify_eval", ["certify", self.m61, "--order", "2", "--box", "1"],
             self.check_single_unit),
            ("uniteq", ["uniteq", "--coeffs", "1,1", "--gens", "2,3,5", "--box", "3"],
             self.check_uniteq),
        ]
        random.Random(self.seed).shuffle(self.ops)
        self.oracles = {2: oracles.PrincipalOracle(2), 3: oracles.PrincipalOracle(3)}

    def round(self, tracer):
        done = []
        for i, (group, argv, check) in enumerate(self.ops):
            outdir = self.work / "out" / str(i)
            full = argv + ["--json"] + (["--out", str(outdir)] if argv[0] == "certify" else [])
            fault = "base is not invertible" if "mersenne61" in argv[1] else None
            op, rc, text = self.command(group, full, tracer, known_fault=fault)
            if not op.failed:
                check(argv, rc, json.loads(text), outdir)
            shutil.rmtree(outdir, ignore_errors=True)
            done.append(op)
        return done

    def _written(self, outdir: Path, payload) -> list:
        files = sorted(outdir.glob("*.cert.json")) if outdir.exists() else []
        self.check(sorted(payload["certificates"]) == [str(f) for f in files],
                   f"{outdir}: payload and written files differ")
        return files

    def check_order2(self, argv, rc, payload, outdir):
        self.check(rc == cli.EXIT_EMPTY and payload["count"] == 0
                   and not self._written(outdir, payload),
                   "ledrappier order 2 is mixing: the search must come back empty")
        region = payload["region"] or {}
        self.check(region.get("order") == 2 and region.get("shape_box") == [[0, 4], [0, 4]],
                   f"order-2 region does not name the searched box: {region}")

    def check_charp_certs(self, argv, rc, payload, outdir, p, dilations=None):
        files = self._written(outdir, payload)
        self.check(rc == cli.EXIT_OK and files, f"{' '.join(argv)}: no certificate")
        oracle = self.oracles[p]
        expected_hash = self.hashes[argv[1]]
        for path in files:
            cert = json.loads(path.read_text())
            bits = oracles.charp_transcript(cert, p, oracle)
            self.check(cert["system_hash"] == expected_hash, f"{path.name}: wrong hash")
            self.check(cert["order"] == 3 and len(cert["shape"]) == 3, f"{path.name}: order")
            self.check(all(b == 1 for _, b in bits) and bits,
                       f"{path.name}: transcript sum outside the ideal {bits}")
            self.check(not any(oracle.is_member(oracles.parse_poly(c["poly"], p))
                               for c in cert["coefficients"]),
                       f"{path.name}: a coefficient is zero in the module")
            if dilations is not None:
                self.check([n for n, _ in cert["transcript"]] == dilations,
                           f"{path.name}: transcript {cert['transcript']}")

    def check_times2times3(self, argv, rc, payload, outdir, order):
        self.check(rc == cli.EXIT_EMPTY and payload["count"] == 0
                   and not self._written(outdir, payload),
                   f"times2times3 order {order}: 2 and 3 are independent, expected no certificate")
        region = payload["region"] or {}
        self.check(region.get("shape_box") == [[-12, 12], [-12, 12]]
                   and region.get("dilations") == list(range(1, order + 2)),
                   f"times2times3 order {order}: region {region}")

    def check_single_unit(self, argv, rc, payload, outdir):
        # Powers of one unit of infinite order are distinct: nothing vanishes.
        self.check(rc == cli.EXIT_EMPTY and payload["count"] == 0
                   and not self._written(outdir, payload),
                   "single unit 2^61 - 1: expected an empty search")

    def check_uniteq(self, argv, rc, payload, outdir):
        found = set()
        for sol in payload["solutions"]:
            values = tuple(Fraction(v) for v in sol["values"])
            found.add(values)
            for value, exps in zip(values, sol["exponents"]):
                power = Fraction(1)
                for g, k in zip((2, 3, 5), exps):
                    power *= Fraction(g) ** k
                self.check(power == value, f"uniteq: exponents {exps} do not give {value}")
        self.check(rc == cli.EXIT_OK and payload["bound_ok"] is True,
                   "uniteq: bound assertion")
        self.check(found == self.uniteq_reference,
                   f"uniteq: {len(found)} solutions, reference has {len(self.uniteq_reference)}")

    def named_metrics(self, rounds):
        return [(name, _median_round(rounds, group), "s", "median over rounds")
                for name, group in (("certify_charp_s", "certify_charp"),
                                    ("certify_eval_s", "certify_eval"),
                                    ("uniteq_s", "uniteq"))]


# -- replay ---------------------------------------------------------------------

_DILATION_LINE = re.compile(r"dilation (\d+): correlation (\d) \(expected 1\) (ok|FAIL)")


class Replay(Workload):
    """Many short `verify` commands over a seeded certificate set, then
    `analyze` on every shipped presentation.  No `linalg` or `simulate` work."""

    name = "replay"

    def generate(self, out: Path):
        files, self.manifest = make_inputs(self.root, out, self.seed)
        return files

    def prepare(self):
        charp = {2: oracles.PrincipalOracle(2), 3: oracles.PrincipalOracle(3)}
        for entry in self.manifest:
            cert, key = entry["data"], entry["key"]
            if key == "rational_dual":
                bits = oracles.rational_dual_transcript(cert)
            elif key == "times2times3":
                bits = oracles.evaluation_transcript(cert)
            else:
                bits = oracles.charp_transcript(cert, key[0], charp[key[0]])
            entry["bits"] = bits
            status = "PASS" if all(b for _, b in bits) else "FAIL"
            self.check(status == entry["status"],
                       f"{entry['certificate']}: oracle says {status}, built as {entry['status']}")
            del entry["data"]
        self.analyze = []
        for path in sorted((self.root / "presentations").glob("*.json")):
            box = ["--box", "2"] if path.name == "split_ledrappier.json" else []
            expected_hash = system_hash(json.loads(path.read_text()))
            self.analyze.append((["analyze", str(path), "--json"] + box, path.stem, expected_hash))

    def round(self, tracer):
        done = []
        for entry in self.manifest:
            op, rc, text = self.command(
                "verify", ["verify", entry["certificate"], entry["presentation"]], tracer)
            done.append(op)
            if not op.failed:
                self.check_verify(entry, rc, text)
        for argv, stem, expected_hash in self.analyze:
            op, rc, text = self.command("analyze", argv, tracer)
            done.append(op)
            if not op.failed:
                self.check_analyze(stem, expected_hash, rc, json.loads(text))
        return done

    def check_verify(self, entry, rc, text):
        lines = text.splitlines()
        bits = [(int(m.group(1)), int(m.group(2))) for m in map(_DILATION_LINE.match, lines) if m]
        failures = [n for n, b in entry["bits"] if not b]
        last = "PASS" if not failures else f"FAIL at dilation {failures[0]}"
        self.check(bits == entry["bits"] and lines and lines[-1] == last
                   and rc == (cli.EXIT_OK if not failures else 1),
                   f"{entry['certificate']}: exit {rc}, '{lines[-1] if lines else ''}', "
                   f"expected {last}")

    def check_analyze(self, stem, expected_hash, rc, payload):
        self.check(rc == cli.EXIT_OK and payload["system_hash"] == expected_hash,
                   f"analyze {stem}: exit {rc}, hash {payload.get('system_hash')}")
        self.check(payload.get("trivial_quotient") == (stem == "trivial_unit"),
                   f"analyze {stem}: trivial_quotient {payload.get('trivial_quotient')}")
        if stem.startswith("ledrappier"):
            # 1 + u1 + u2 is irreducible and u1^a (1 + u1)^b != 1 for (a, b) != 0.
            self.check(payload.get("nonmixing_element") is None,
                       f"analyze {stem}: non-mixing element {payload.get('nonmixing_element')}")

    def named_metrics(self, rounds):
        latencies = sorted(op.seconds * 1000 for r in rounds for op in r
                           if op.group == "verify" and not op.failed)
        out = [("verify_p50_ms", statistics.median(latencies), "ms",
                f"{len(latencies)} samples")]
        if len(latencies) >= 400:
            p90 = statistics.quantiles(latencies, n=10)[-1]
            out.append(("verify_p90_ms", p90, "ms",
                        f"{len(latencies)} samples, {sum(x > p90 for x in latencies)} beyond"))
        out.append(("analyze_s", _median_round(rounds, "analyze"), "s", "median over rounds"))
        return out


# -- measure --------------------------------------------------------------------

MC_SAMPLES = 100_000


class Measure(Workload):
    """Exact cylinder measures and Monte Carlo estimates on window
    configuration spaces, over F_2 and F_3.  No Groebner basis is built."""

    name = "measure"

    def generate(self, out: Path):
        ledrappier = str(self.root / LEDRAPPIER)
        f3 = str(out / "ledrappier_f3.json")
        rng = random.Random(self.seed)
        k = rng.choice([4, 8, 16])
        self.mc_seed = rng.randrange(1 << 32)
        # (label, presentation, p, window, dilation, exact joint measure or None
        # when the window-7 enumeration supplies it)
        self.cases = [
            (f"ledrappier w20 x{k}", ledrappier, 2, 20, k, Fraction(1, 4)),
            ("ledrappier w12 x3", ledrappier, 2, 12, 3, Fraction(1, 8)),
            ("ledrappier-f3 w10 x3", f3, 3, 10, 3, Fraction(1, 9)),
            ("ledrappier w7 x2", ledrappier, 2, 7, 2, None),
            ("ledrappier w7 x3", ledrappier, 2, 7, 3, None),
        ]
        return make_inputs(self.root, out, self.seed, with_certificates=False)[0]

    def prepare(self):
        grids = oracles.ledrappier_window7()
        self.enumerated = {}
        for label, _, _, window, n, _ in self.cases:
            if window == 7:
                pins = [((0, 0), 0), ((n, 0), 0), ((0, n), 0)]
                self.enumerated[label] = (oracles.enumerated_measure(grids, pins),
                                          oracles.enumerated_measure(grids, pins[:1]))
        # The estimate must not depend on the thread count.
        system = presentation.load_system(str(self.root / LEDRAPPIER)).system
        sets = [simulate.CylinderSet.make({(0, 0): 0})] * 3
        args = (system, sets, [(0, 0), (4, 0), (0, 4)], [(0, 6)] * 2, MC_SAMPLES, self.mc_seed)
        one = simulate.correlation_estimate(*args, threads=1)
        two = simulate.correlation_estimate(*args, threads=2)
        self.check((one.estimate, one.stderr) == (two.estimate, two.stderr),
                   f"Monte Carlo differs between 1 and 2 threads: {one} vs {two}")

    def round(self, tracer):
        done = []
        for index, (label, path, p, window, n, joint) in enumerate(self.cases):
            box = [(0, window - 1)] * 2
            sets = [simulate.CylinderSet.make({(0, 0): 0})] * 3
            shifts = [(0, 0), (n, 0), (0, n)]
            start = time.perf_counter()
            with _maybe(tracer, "simulate.exact"):
                system = presentation.load_system(path).system
                exact = simulate.correlation_exact(system, sets, shifts, box)
                measures = [simulate.cylinder_measure(system, c, box) for c in sets]
            done.append(Op("simulate_exact", start, time.perf_counter()))
            start = time.perf_counter()
            with _maybe(tracer, "simulate.mc"):
                system = presentation.load_system(path).system
                est = simulate.correlation_estimate(system, sets, shifts, box, MC_SAMPLES,
                                                    self.mc_seed + index, threads=1)
            done.append(Op("mc", start, time.perf_counter(), samples=MC_SAMPLES))
            if tracer is not None:
                tracer.counts["simulate.mc_samples"] += MC_SAMPLES
            single = Fraction(1, p)
            if joint is None:
                joint, single = self.enumerated[label]
            self.check(exact == joint, f"{label}: exact joint measure {exact}, expected {joint}")
            self.check(all(m.value == single and m.stable for m in measures),
                       f"{label}: single-pin measures {[str(m.value) for m in measures]}, "
                       f"stable {[m.stable for m in measures]}, expected {single}")
            sigma = (float(joint) * (1 - float(joint)) / MC_SAMPLES) ** 0.5
            self.check(abs(est.estimate - float(joint)) <= 5 * sigma,
                       f"{label}: estimate {est.estimate} beyond 5 sigma of {joint}")
        return done

    def named_metrics(self, rounds):
        rates = [sum(op.samples for op in r) / sum(op.seconds for op in r if op.group == "mc")
                 for r in rounds]
        return [("simulate_exact_s", _median_round(rounds, "simulate_exact"), "s",
                 "median over rounds"),
                ("mc_samples_per_s", statistics.median(rates), "samples/s",
                 f"{MC_SAMPLES} samples per case, threads 1")]


def _maybe(tracer, name):
    return tracer.operation(name) if tracer is not None else contextlib.nullcontext()


WORKLOADS = {w.name: w for w in (Search, Replay, Measure)}
