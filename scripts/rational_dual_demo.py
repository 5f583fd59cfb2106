#!/usr/bin/env python3
"""The rational-dual system: mixing on 2 sets but not on 3.

Checks the coefficient vector of the shape (1, n, n-1) family, replays the
transcript, and runs the exhaustive order-2 search that comes back empty.
"""

import argparse

from mixlab.mixing import (
    rational_dual_certificate,
    rational_dual_order2_search,
    verify_certificate,
)
from mixlab.systems import AlgebraicSystem, RationalDualModule, positive_rationals


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=1000)
    parser.add_argument("--coeff-height", type=int, default=20)
    parser.add_argument("--shape-height", type=int, default=50)
    args = parser.parse_args()

    system = AlgebraicSystem(
        positive_rationals(None), RationalDualModule(), name="rational-dual"
    )

    cert = rational_dual_certificate(system, n_max=args.nmax)
    a = cert.coefficients
    # a1 + n a2 + (n - 1) a3 = (a1 - a3) + n (a2 + a3) vanishes for every n.
    print(f"coefficients for (1, n, n-1): ({', '.join(map(str, a))})")
    identities = a[0] - a[2] == 0 and a[1] + a[2] == 0 and a[0] != 0
    print(f"  a1 - a3 = {a[0] - a[2]}, a2 + a3 = {a[1] + a[2]}")
    print(f"  check at n=5: {a[0] * 1 + a[1] * 5 + a[2] * 4}")

    report = verify_certificate(system, cert)
    bits = [bit for _, bit in cert.transcript]
    status = "ok" if report.ok and identities else "FAIL"
    print(
        f"order-3 family verified for n=2..{args.nmax}: "
        f"{sum(bits)}/{len(bits)} transcript bits are 1, report {status}"
    )

    outcome = rational_dual_order2_search(
        system, coeff_height=args.coeff_height, shape_height=args.shape_height
    )
    print(
        f"order-2 exhaustive search: {len(outcome)} certificates over "
        f"{outcome.region['constant_ratio_families']} constant-ratio families"
    )
    print(outcome.region["note"])


if __name__ == "__main__":
    main()
