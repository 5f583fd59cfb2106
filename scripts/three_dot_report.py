#!/usr/bin/env python3
"""Walk through the three-dot system end to end.

Runs `mixlab analyze` and `mixlab certify` at orders 2 and 3 on
presentations/ledrappier.json, shows the measure-level gap between the
triple correlation at a power-of-two dilation and the product of measures,
and backs the exact numbers with a Monte Carlo estimate.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from mixlab import cli
from mixlab.mixing import BudgetExceededError
from mixlab.presentation import load_system
from mixlab.ring import DomainError
from mixlab.simulate import (
    CylinderSet,
    WindowConfigSpace,
    WindowError,
    correlation_estimate,
    correlation_exact,
    cylinder_measure,
)

from inprocess import mixlab_json

PRESENTATION = str(Path(__file__).resolve().parents[1] / "presentations" / "ledrappier.json")
# The certify search region: shapes in [0, 3]^2, coefficients in [0, 2]^2.
REGION = ["--box", "3", "--window", "2", "--dilations", "1,2,4"]


def order_report() -> None:
    info = mixlab_json("analyze", PRESENTATION)
    print(f"system: {info['name']}")
    print(f"non-mixing element: {info['nonmixing_element'] or 'none in the analyzed box'}")
    least = None
    with tempfile.TemporaryDirectory() as out:
        for order, extra in ((2, []), (3, ["--force-search"])):
            res = mixlab_json("certify", PRESENTATION, "--order", str(order),
                              *REGION, *extra, "--out", out)
            if res["count"]:
                least = least or order
                print(f"r={order}: {res['count']} certificate(s) "
                      f"({', '.join(res['grades'])})")
            else:
                print(f"r={order}: no certificate in the exhausted region")
            if "proof" in res["grades"]:
                print("  prime-power family: non-mixing holds for every dilation")
            print(f"  region: {json.dumps(res['region'], sort_keys=True)}")
    if least:
        print(f"least certified order: {least}")
    print("desk-scale evidence except where a prime-power family certifies "
          "non-mixing for every dilation")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--window", type=int, default=7, help="window side length")
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("== mixing-order report ==")
    order_report()

    system = load_system(PRESENTATION).system
    window = [(0, args.window - 1)] * 2
    cyl = CylinderSet.make({(0, 0): 0})
    single = cylinder_measure(system, cyl, window)
    print("\n== measure-level gap at dilation 4 ==")
    print(f"mu(x_0 = 0) = {single.value} (stable: {single.stable})")
    for shifts, label in [
        ([(0, 0), (4, 0), (0, 4)], "power-of-two dilation"),
        ([(0, 0), (3, 0), (0, 3)], "generic dilation"),
    ]:
        exact = correlation_exact(system, [cyl] * 3, shifts, window)
        print(f"mu(triple at {shifts}) = {exact}  [{label}]")
    print(f"product of measures   = {single.value ** 3}")

    try:
        est = correlation_estimate(
            system, [cyl] * 3, [(0, 0), (4, 0), (0, 4)], window,
            samples=args.samples, seed=args.seed,
        )
    except (DomainError, WindowError) as e:
        # A seed outside [0, 2^64), no samples, or a pin outside the window.
        print(f"error: {e}", file=sys.stderr)
        sys.exit(cli.EXIT_INPUT)
    except BudgetExceededError as e:  # a window of more sites than the sampler lists
        print(f"budget exhausted: {e}", file=sys.stderr)
        print(f"region: {json.dumps(e.region, sort_keys=True)}", file=sys.stderr)
        sys.exit(cli.EXIT_BUDGET)
    print(
        f"monte carlo           = {est.estimate:.5f} +/- {est.stderr:.5f} "
        f"(N={est.samples}, seed={est.seed})"
    )
    band = 4 * est.stderr
    print(f"within 4 sigma of 1/4: {abs(est.estimate - 0.25) <= band}")

    print("\n== a sampled configuration ==")
    space = WindowConfigSpace(system, window)
    print(space.grid_text(space.sample_uniform(1, seed=args.seed)[0]))


if __name__ == "__main__":
    main()
