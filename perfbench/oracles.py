"""Independent oracles the benchmark checks the program's answers against.

None of these import the program.  Each computes the mathematical fact a
command's output asserts by a route of its own:

* membership in the principal ideal (1 + u1 + u2) of F_p[u1^+-1, u2^+-1]:
  substitute u2 = -1 - u1, multiply through by the powers of u1 and
  (1 + u1) that clear negative exponents, and test the univariate result
  for zero.  The quotient is the localisation F_p[u1][1/u1, 1/(1 + u1)],
  a domain, so the cleared polynomial vanishes iff the element does;
* plain `Fraction` sums for the evaluation system u -> (2, 3) and for the
  rational dual with its (1, n, n - 1) family;
* the solutions of x + y = 1 over a group of rational units, by solving
  y = 1 - x and looking y up in the unit table;
* exhaustive enumeration of the three-dot configurations on the 7 x 7
  window: the bottom row and right edge are free, every other cell follows
  from x(a) + x(a + e1) + x(a + e2) = 0.

`python3 perfbench/oracles.py` runs the self-test: every oracle must reject
a planted wrong answer, and the membership oracle must agree with sympy's
Groebner bases over F_2 and F_3 on small random cases.
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction
from math import comb

# -- membership in (1 + u1 + u2) over F_p ------------------------------------


class PrincipalOracle:
    """Membership in (1 + u1 + u2) over F_p, apart from any Groebner basis."""

    def __init__(self, p: int):
        self.p = p
        self._rows = {}

    def _binomials(self, k: int):
        row = self._rows.get(k)
        if row is None:
            row = [comb(k, i) % self.p for i in range(k + 1)]
            self._rows[k] = row
        return row

    def cleared(self, f: dict) -> dict:
        """The univariate image u1^A (1 + u1)^B f(u1, -1 - u1), as {degree: c}."""
        if not f:
            return {}
        A = max(0, -min(a for a, _ in f))
        B = max(0, -min(b for _, b in f))
        p = self.p
        out: dict = {}
        for (a, b), c in f.items():
            sign = -1 if b % 2 else 1
            k = b + B
            base = a + A
            for i, binom in enumerate(self._binomials(k)):
                if binom:
                    out[base + i] = (out.get(base + i, 0) + sign * c * binom) % p
        return {e: c for e, c in out.items() if c}

    def is_member(self, f: dict) -> bool:
        return not self.cleared(f)


_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse_poly(text: str, p: int) -> dict:
    """A polynomial in u1, u2 written as the program writes it, over F_p."""
    out: dict = {}
    for sign, body in _TERM.findall(text.replace("^-", "^~")):
        coeff = -1 if sign == "-" else 1
        exps = [0, 0]
        for factor in body.split("*"):
            factor = factor.strip().replace("^~", "^-")
            if factor.startswith("u"):
                var, _, power = factor.partition("^")
                exps[int(var[1:]) - 1] += int(power) if power else 1
            else:
                coeff *= int(factor)
        key = tuple(exps)
        out[key] = (out.get(key, 0) + coeff) % p
    return {m: c for m, c in out.items() if c}


def dilated_sum(shape, coefficients, n: int, p: int) -> dict:
    """sum_s u^(n q_s) a_s for integer shape points q_s and polynomials a_s."""
    out: dict = {}
    for (q1, q2), a in zip(shape, coefficients):
        for (e1, e2), c in a.items():
            key = (n * q1 + e1, n * q2 + e2)
            out[key] = (out.get(key, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def charp_transcript(cert: dict, p: int, oracle: PrincipalOracle):
    """The correlation bit at each transcript dilation of a char-p certificate."""
    shape = [tuple(int(Fraction(x)) for x in g) for g in cert["shape"]]
    coefficients = [parse_poly(c["poly"], p) for c in cert["coefficients"]]
    return [(n, int(oracle.is_member(dilated_sum(shape, coefficients, n, p))))
            for n, _ in cert["transcript"]]


# -- Fraction sums -------------------------------------------------------------

def rational_dual_transcript(cert: dict):
    """Bits of the (1, n, n - 1) family: sum_s shape_s(n) a_s == 0."""
    a = [Fraction(x) for x in cert["coefficients"]]
    return [(n, int(a[0] + n * a[1] + (n - 1) * a[2] == 0))
            for n, _ in cert["transcript"]]


def evaluation_transcript(cert: dict, units=(2, 3)):
    """Bits of sum_s u^(n q_s) a_s == 0 with u_i evaluated at the given rationals."""
    bits = []
    for n, _ in cert["transcript"]:
        total = Fraction(0)
        for g, a in zip(cert["shape"], cert["coefficients"]):
            value = Fraction(a)
            for u, q in zip(units, g):
                value *= Fraction(u) ** (n * int(Fraction(q)))
            total += value
        bits.append((n, int(total == 0)))
    return bits


def distinct_unit_values(units, box: int) -> bool:
    """True iff u^q is distinct over the box [-box, box]^d.

    Then every dilation matrix (u^(n q_s)) over n = 1..r is a Vandermonde
    matrix in distinct nonzero values, so no shape has a kernel vector and
    an empty search result is a true statement about its region.
    """
    seen = set()
    for q1 in range(-box, box + 1):
        for q2 in range(-box, box + 1):
            seen.add(Fraction(units[0]) ** q1 * Fraction(units[1]) ** q2)
    return len(seen) == (2 * box + 1) ** 2


# -- unit equation -------------------------------------------------------------

def unit_solutions(gens, box: int):
    """All (x, y) with x + y = 1, x and y in the unit box, by solving for y."""
    table = {}
    exps = [()]
    for _ in gens:
        exps = [e + (k,) for e in exps for k in range(-box, box + 1)]
    for e in exps:
        value = Fraction(1)
        for g, k in zip(gens, e):
            value *= Fraction(g) ** k
        table.setdefault(value, e)
    return {(x, 1 - x) for x in table if (1 - x) in table}


# -- window-7 enumeration of the three-dot system -----------------------------

def ledrappier_window7():
    """Every valid F_2 configuration of [0, 6]^2, as a dict site -> symbol."""
    grids = []
    for bits in range(1 << 13):
        g = {}
        for x in range(7):
            g[(x, 0)] = (bits >> x) & 1
        for y in range(1, 7):
            g[(6, y)] = (bits >> (6 + y)) & 1
            for x in range(6):
                g[(x, y)] = g[(x, y - 1)] ^ g[(x + 1, y - 1)]
        grids.append(g)
    return grids


def enumerated_measure(grids, pins) -> Fraction:
    hits = sum(1 for g in grids if all(g[s] == v for s, v in pins))
    return Fraction(hits, len(grids))


# -- self-test -----------------------------------------------------------------

def _sympy_member(f: dict, p: int) -> bool:
    import sympy

    t, u1, u2 = sympy.symbols("t u1 u2")
    A = max(0, -min(a for a, _ in f))
    B = max(0, -min(b for _, b in f))
    poly = sum(c * u1 ** (a + A) * u2 ** (b + B) for (a, b), c in f.items())
    basis = sympy.groebner([1 + u1 + u2, t * u1 * u2 - 1], t, u1, u2,
                           modulus=p, order="lex")
    return basis.contains(sympy.expand(poly))


def self_test() -> list:
    """Run every oracle on a known answer and on a planted wrong one."""
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    rng = random.Random(20260824)
    three_dot = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    for p in (2, 3):
        oracle = PrincipalOracle(p)
        expect(oracle.is_member(three_dot), f"F_{p}: generator is a member")
        frob = {(0, 0): 1, (p ** 5, 0): 1, (0, p ** 5): 1}
        expect(oracle.is_member(frob), f"F_{p}: Frobenius dilate is a member")
        expect(not oracle.is_member({(0, 0): 1, (3, 0): 1, (0, 3): 1}) or p == 3,
               "F_2: dilation 3 is not a member")
        expect(not oracle.is_member({(1, 0): 1, (0, 0): 1}), f"F_{p}: planted 1 + u1")
        expect(not oracle.is_member({(-1, 2): 1}), f"F_{p}: planted unit")
        cases = []
        for _ in range(6):
            b = {(rng.randint(-1, 2), rng.randint(-1, 2)): rng.randrange(1, p)
                 for _ in range(rng.randint(1, 3))}
            f = {}
            for (a1, b1), c1 in b.items():
                for (a2, b2), c2 in three_dot.items():
                    k = (a1 + a2, b1 + b2)
                    f[k] = (f.get(k, 0) + c1 * c2) % p
            f = {m: c for m, c in f.items() if c}
            expect(oracle.is_member(f), f"F_{p}: multiple of the generator")
            bad = dict(f)
            k = (rng.randint(0, 2), rng.randint(0, 2))
            bad[k] = (bad.get(k, 0) + 1) % p
            bad = {m: c for m, c in bad.items() if c}
            expect(not oracle.is_member(bad), f"F_{p}: planted non-member")
            cases += [(f, True), (bad, False)]
        for f, member in cases[:6]:
            expect(_sympy_member(f, p) == member, f"F_{p}: sympy agrees")
        expect(parse_poly("u1^3 * u2^-2 + 2 * u1 + 1", 3)
               == {(3, -2): 1, (1, 0): 2, (0, 0): 1}, "parse_poly")
    good = {"coefficients": ["2", "-2", "2"], "transcript": [[2, 1], [9, 1]]}
    expect(all(b for _, b in rational_dual_transcript(good)), "rational dual family")
    bad = {"coefficients": ["2", "-2", "3"], "transcript": [[2, 1]]}
    expect(not any(b for _, b in rational_dual_transcript(bad)), "planted rational dual")
    good = {"shape": [["0", "0"], ["1", "0"], ["0", "1"]],
            "coefficients": ["1", "1", "-1"], "transcript": [[1, 1]]}
    expect(evaluation_transcript(good) == [(1, 1)], "evaluation 1 + 2 - 3")
    planted = dict(good, transcript=[[2, 1]])
    expect(evaluation_transcript(planted) == [(2, 0)], "planted evaluation dilation")
    expect(distinct_unit_values((2, 3), 4), "2 and 3 independent")
    expect(not distinct_unit_values((2, 4), 2), "planted dependent units 2, 4")
    sols = unit_solutions((2, 3), 2)
    expect((Fraction(1, 4), Fraction(3, 4)) in sols, "1/4 + 3/4 = 1 over <2, 3>")
    expect((Fraction(2, 5), Fraction(3, 5)) not in sols, "planted 2/5 + 3/5 over <2, 3>")
    grids = ledrappier_window7()
    expect(enumerated_measure(grids, [((0, 0), 0)]) == Fraction(1, 2), "window 7 single pin")
    pins2 = [((0, 0), 0), ((2, 0), 0), ((0, 2), 0)]
    expect(enumerated_measure(grids, pins2) == Fraction(1, 4), "window 7 dilation 2")
    expect(enumerated_measure(grids, pins2) != Fraction(1, 8), "planted product measure")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(f"oracle self-test FAILED: {line}")
    print("oracle self-test: ok" if not problems else f"{len(problems)} failure(s)")
    sys.exit(1 if problems else 0)
