#!/usr/bin/env python3
"""The rational-dual system: mixing on 2 sets but not on 3.

Runs `mixlab certify` on presentations/rational_dual.json at order 3, checks
the coefficient vector of the shape (1, n, n-1) family, replays the
certificate with `mixlab verify`, and shows that order 2 has no certificate.
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from inprocess import mixlab_json

PRESENTATION = str(Path(__file__).resolve().parents[1] / "presentations" / "rational_dual.json")


def main() -> None:
    with tempfile.TemporaryDirectory() as out:
        path = mixlab_json("certify", PRESENTATION, "--order", "3", "--out", out)["certificates"][0]
        cert = json.loads(Path(path).read_text())
        # A failed replay exits 1, which ends the script.
        mixlab_json("verify", path, PRESENTATION)
        order2 = mixlab_json("certify", PRESENTATION, "--order", "2", "--out", out)

    a = [Fraction(x) for x in cert["coefficients"]]
    # a1 + n a2 + (n - 1) a3 = (a1 - a3) + n (a2 + a3) vanishes for every n.
    print(f"coefficients for (1, n, n-1): ({', '.join(map(str, a))})")
    identities = a[0] - a[2] == 0 and a[1] + a[2] == 0 and a[0] != 0
    print(f"  a1 - a3 = {a[0] - a[2]}, a2 + a3 = {a[1] + a[2]}")
    print(f"  check at n=5: {a[0] * 1 + a[1] * 5 + a[2] * 4}")

    bits = [bit for _, bit in cert["transcript"]]
    print(
        f"order-3 family verified for n=2..{cert['transcript'][-1][0]}: "
        f"{sum(bits)}/{len(bits)} transcript bits are 1, "
        f"report {'ok' if identities else 'FAIL'}"
    )
    print(f"order 2: {order2['count']} certificates")
    print(order2["region"]["note"])


if __name__ == "__main__":
    main()
