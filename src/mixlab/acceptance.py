"""The acceptance checklist: eight end-to-end checks with pinned expectations.

Each criterion exercises a full vertical slice (presentation -> engine ->
certificate or measure) against values computed by an independent route
where one exists.  Results carry a pass/fail bit and a short detail string;
`mixlab suite` and the test suite both print one line per criterion.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Callable, List

from .cli import main as cli_main
from .ideals import IdealPresentation, _normal_form, _prepared
from .mixing import (
    enumerate_unit_solutions,
    ess_bound_exponent,
    evaluation_shape_search,
    frobenius_certificate,
    PrimePower,
    rational_dual_certificate,
    verify_certificate,
)
from .numfield import NumberField
from .presentation import certificate_to_dict, parse_system
from .ring import GF, LaurentPoly
from .simulate import (
    CylinderSet,
    correlation_estimate,
    correlation_exact,
    cylinder_measure,
)
from .systems import character_correlation


class CriterionResult:
    __slots__ = ("number", "name", "passed", "detail")

    def __init__(self, number: int, name: str, passed: bool, detail: str):
        self.number, self.name, self.passed, self.detail = number, name, passed, detail


_THREE_DOT = {
    "schema": 1,
    "name": "three-dot",
    "group": {"kind": "free_abelian", "d": 2},
    "module": {
        "type": "char_p",
        "characteristic": 2,
        "generators": ["1 + u1 + u2"],
        "engine": "groebner",
    },
}

_RATIONAL_DUAL = {
    "schema": 1,
    "name": "rational-dual",
    "group": {"kind": "positive_rationals", "primes": "all"},
    "module": {"type": "rational_dual"},
}

_SPLIT = {
    "schema": 1,
    "name": "split-three-dot",
    "group": {"kind": "positive_rationals", "primes": [2, 3, 5, 7]},
    "module": {
        "type": "char_p",
        "characteristic": 2,
        "generators": ["1 + u2 + u3"],
        "engine": "groebner",
    },
}

_TIMES_2_3 = {
    "schema": 1,
    "name": "times2-times3",
    "group": {"kind": "free_abelian", "d": 2},
    "module": {
        "type": "evaluation",
        "modulus": ["-1", "1"],
        "assignment": {"u1": ["2"], "u2": ["3"]},
        "level": 1,
    },
}


def _run_certify(presentation: dict, order: int, tmp: str) -> int:
    pres = Path(tmp) / "system.json"
    pres.write_text(json.dumps(presentation))
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(
            ["certify", str(pres), "--order", str(order), "--out", tmp]
        )


def _criterion_1() -> CriterionResult:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        rc = _run_certify(_THREE_DOT, 3, tmp)
        files = sorted(Path(tmp).glob("*.cert.json"))
        data = json.loads(files[0].read_text()) if files else {}
    dt = time.perf_counter() - t0
    shape = {tuple(int(Fraction(x)) for x in g) for g in data.get("shape", [])}
    checks = [
        rc == 0,
        len(files) == 1,
        data.get("grade") == "proof",
        data.get("family") == PrimePower(2).to_json(),
        shape == {(0, 0), (1, 0), (0, 1)},
        all(c == {"poly": "1"} for c in data.get("coefficients", [])),
        data.get("transcript") == [[2 ** k, 1] for k in range(7)],
        dt < 1.0,
    ]
    detail = f"exit {rc}, {len(files)} certificate(s), {dt:.3f}s"
    if not all(checks):
        detail += f"; failed checks at positions {[i for i, c in enumerate(checks) if not c]}"
    return CriterionResult(1, "prime-power certificate at order 3", all(checks), detail)


def _criterion_2() -> CriterionResult:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        rc = _run_certify(_THREE_DOT, 2, tmp)
        files = sorted(Path(tmp).glob("*.cert.json"))
    dt = time.perf_counter() - t0
    ok = rc == 3 and not files and dt < 60.0
    detail = f"exit {rc}, {len(files)} certificate(s), {dt:.1f}s"
    return CriterionResult(2, "order-2 exhaustive search comes back empty", ok, detail)


def _brute_force_window7():
    """Independent enumeration of the three-dot configurations on [0,6]^2.

    Free cells: the bottom row and the right edge; everything else follows
    from x(a) + x(a+e1) + x(a+e2) = 0.  Returns the full list of grids.
    """
    grids = []
    for bits in range(1 << 13):
        grid = [[0] * 7 for _ in range(7)]  # grid[x][y]
        for x in range(7):
            grid[x][0] = (bits >> x) & 1
        for y in range(1, 7):
            grid[6][y] = (bits >> (6 + y)) & 1
            for x in range(6):
                grid[x][y] = grid[x][y - 1] ^ grid[x + 1][y - 1]
        grids.append(grid)
    return grids


def _criterion_3() -> CriterionResult:
    system = parse_system(_THREE_DOT).system
    cyl = CylinderSet.make({(0, 0): 0})
    window = [(0, 6), (0, 6)]
    exact4 = correlation_exact(system, [cyl] * 3, [(0, 0), (4, 0), (0, 4)], window)
    # The exact measure builds no window space, so it also answers at n = 2^40.
    far = 1 << 40
    exact_far = correlation_exact(system, [cyl] * 3, [(0, 0), (far, 0), (0, far)],
                                  [(0, far)] * 2)
    single = cylinder_measure(system, cyl, window)
    product_measure = single.value ** 3
    est = correlation_estimate(
        system, [cyl] * 3, [(0, 0), (4, 0), (0, 4)], window,
        samples=100_000, seed=20260824,
    )
    within = est.within_sigma(Fraction(1, 4), sigma=4.0)

    # Independent oracle for the dilation-2 case: brute-force enumeration.
    grids = _brute_force_window7()
    joint2 = sum(
        1 for g in grids if g[0][0] == 0 and g[2][0] == 0 and g[0][2] == 0
    )
    one_pin = sum(1 for g in grids if g[0][0] == 0)
    exact2 = correlation_exact(system, [cyl] * 3, [(0, 0), (2, 0), (0, 2)], window)
    oracle_ok = (
        Fraction(joint2, len(grids)) == exact2
        and Fraction(one_pin, len(grids)) == single.value
    )
    ok = (
        exact4 == Fraction(1, 4)
        and exact_far == Fraction(1, 4)
        and product_measure == Fraction(1, 8)
        and single.stable
        and within
        and oracle_ok
    )
    detail = (
        f"exact {exact4} vs product {product_measure}, "
        f"mc {est.estimate:.4f}+/-{est.stderr:.4f}, "
        f"brute force {Fraction(joint2, len(grids))} == {exact2}"
    )
    return CriterionResult(3, "measure gap 1/4 vs 1/8 with independent oracle", ok, detail)


def _criterion_4() -> CriterionResult:
    t0 = time.perf_counter()
    system = parse_system(_RATIONAL_DUAL).system
    cert = rational_dual_certificate(system, n_max=1000)
    a1, a2, a3 = cert.coefficients
    coeffs_ok = (a1 - a3 == 0) and (a2 + a3 == 0) and a1 != 0
    transcript_ok = (
        len(cert.transcript) == 999
        and all(bit == 1 for _, bit in cert.transcript)
        and cert.grade == "proof"
    )
    with tempfile.TemporaryDirectory() as tmp:
        rc = _run_certify(_RATIONAL_DUAL, 2, tmp)
        files = sorted(Path(tmp).glob("*.cert.json"))
    dt = time.perf_counter() - t0
    ok = coeffs_ok and transcript_ok and rc == 3 and not files and dt < 10.0
    detail = (
        f"coefficients ({a1}, {a2}, {a3}), family holds for n=2..1000, "
        f"order 2: exit {rc}, {len(files)} certificate(s), {dt:.1f}s"
    )
    return CriterionResult(4, "order-3 family on the rational dual, no order-2", ok, detail)


def _criterion_5() -> CriterionResult:
    system = parse_system(_SPLIT).system
    ideal = system.module.ideal
    dom = GF(2)
    # The reference route: the Buchberger basis with the saturation variable
    # over all four variables, and one division of the cleared sum.  It takes
    # no principal shortcut, memo, ladder or factoring of free variables.
    full_basis = _prepared(ideal._full_basis(), 2)

    def reference(pairs) -> int:
        total = LaurentPoly.zero(4, dom)
        for gamma, a in pairs:
            total = total + LaurentPoly.monomial(4, dom, gamma) * a
        cleared = {m + (0,): c for m, c in ideal._cleared(total).items()}
        return int(not _normal_form(cleared, full_basis, 2))

    coeff_pool = [
        LaurentPoly.parse(text, 4, dom)
        for text in ("1", "u2", "u3", "u2 * u3", "1 + u2", "1 + u3", "u2 + u3")
    ]
    shift_parts = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
    inner_parts = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    gammas = [
        (s[0], a[0], a[1], s[1]) for s in shift_parts for a in inner_parts
    ]
    total = agree = vanishing = 0
    for g1, g2 in combinations(gammas, 2):
        for c1, c2 in product(coeff_pool[:3], repeat=2):
            pairs = [(g1, c1), (g2, c2)]
            direct = character_correlation(system, pairs)
            total += 1
            agree += direct == reference(pairs)
            vanishing += direct
    # Triples sharing a shift fiber reproduce the generator relation exactly.
    one = coeff_pool[0]
    for s in shift_parts:
        for base in inner_parts:
            triple = [
                ((s[0], base[0] + dx, base[1] + dy, s[1]), one)
                for dx, dy in ((0, 0), (1, 0), (0, 1))
            ]
            direct = character_correlation(system, triple)
            total += 1
            agree += direct == reference(triple)
            vanishing += direct

    # The order-3 certificate of the generator, shape {0, e2, e3}.
    lift_ok = verify_certificate(system, frobenius_certificate(system, ideal.generators[0])).ok
    ok = total >= 1000 and agree == total and vanishing > 0 and lift_ok
    detail = (
        f"{agree}/{total} tuples agree ({vanishing} vanishing), "
        f"order-3 lift {'verifies' if lift_ok else 'FAILS'}"
    )
    return CriterionResult(5, "split correlations match the direct oracle", ok, detail)


def _criterion_6() -> CriterionResult:
    values_ok = (
        ess_bound_exponent(1, 0) == 216
        and ess_bound_exponent(2, 1) == 5_971_968
        and ess_bound_exponent(1, 1) == 432
    )
    K = NumberField([Fraction(-1), Fraction(1)])
    # At most one solution per lookup, far below exp(216): the bound passes.
    found = enumerate_unit_solutions(K, [1, 1], [2], box=5)
    values = [tuple(Fraction(v.coeffs[0]) for v in sol.values) for sol in found]
    solutions_ok = values == [(Fraction(1, 2), Fraction(1, 2))]
    ok = values_ok and solutions_ok
    detail = (
        f"exponents 216/5971968/432 {'ok' if values_ok else 'WRONG'}, "
        f"x+y=1 over <2>: {values}, bound assertion passes"
    )
    return CriterionResult(6, "uniform bound values and the x+y=1 enumeration", ok, detail)


def _criterion_7() -> CriterionResult:
    t0 = time.perf_counter()
    system = parse_system(_TIMES_2_3).system
    box = [(-12, 12)] * 2
    out2 = evaluation_shape_search(system, 2, box)
    out3 = evaluation_shape_search(system, 3, box)
    dt = time.perf_counter() - t0
    labeled = "bounded evidence" in out2.region.get("note", "")
    ok = len(out2) == 0 and len(out3) == 0 and labeled
    detail = (
        f"r=2: {out2.region['shapes_examined']} shapes, r=3: "
        f"{out3.region['shapes_examined']} shapes, all empty "
        f"(bounded evidence), {dt:.1f}s"
    )
    return CriterionResult(7, "no vanishing sums for the times-2-times-3 system", ok, detail)


def _criterion_8() -> CriterionResult:
    dom = GF(2)
    gen = LaurentPoly.parse("1 + u1 + u2", 2, dom)
    groebner = IdealPresentation([gen], 2)
    subst = IdealPresentation([gen], 2, substitution={1: LaurentPoly.parse("1 + u1", 2, dom)})
    rng = random.Random(7)
    agree = 0
    trials = 200
    for i in range(trials):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            m = (rng.randint(-3, 3), rng.randint(-3, 3))
            terms[m] = 1
        f = LaurentPoly(2, dom, terms)
        if i % 3 == 0:
            f = f * gen  # guarantee a healthy share of actual members
        if groebner.contains_groebner(f) == subst.contains(f):
            agree += 1

    def replay() -> bytes:
        system = parse_system(_THREE_DOT)
        cert = frobenius_certificate(system.system, gen)
        data = certificate_to_dict(cert, sys_hash=system.hash)
        report = verify_certificate(system.system, cert)
        blob = json.dumps(
            {"certificate": data, "report": report.lines},
            sort_keys=True, separators=(",", ":"),
        )
        return blob.encode()

    stable = replay() == replay()
    ok = agree == trials and stable
    detail = (
        f"{agree}/{trials} membership calls agree, replay "
        f"{'byte-stable' if stable else 'UNSTABLE'}"
    )
    return CriterionResult(8, "engine agreement and byte-stable replays", ok, detail)


_CRITERIA: List[Callable[[], CriterionResult]] = [
    _criterion_1,
    _criterion_2,
    _criterion_3,
    _criterion_4,
    _criterion_5,
    _criterion_6,
    _criterion_7,
    _criterion_8,
]


def run_all() -> List[CriterionResult]:
    results = []
    for number, fn in enumerate(_CRITERIA, start=1):
        try:
            results.append(fn())
        except Exception as e:  # a crash is a failure, not a skip
            results.append(
                CriterionResult(number, fn.__name__.lstrip("_"), False, f"exception: {e!r}")
            )
    return results
