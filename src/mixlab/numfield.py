"""Exact arithmetic in number fields Q[x]/(m(x)).

Elements are kept in power-basis coordinates with exact rationals; zero
testing is therefore exact.  Irreducibility of the modulus is an input
contract, screened only by a rational-root check; a non-invertible unit is
reported as a presentation error rather than silently tolerated.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Dict, List, Sequence, Tuple

from .ring import DomainError


class FieldPresentationError(ValueError):
    """Bad modulus or an assignment that is not a unit."""


def _poly_trim(c: List[Fraction]) -> List[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    a = _poly_trim(list(a))
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        factor = a[-1] * inv_lead
        q[shift] = factor
        for i, y in enumerate(b):
            a[shift + i] -= factor * y
        a.pop()
    return _poly_trim(q), _poly_trim(a)


def _poly_xgcd(a: Sequence[Fraction], b: Sequence[Fraction]):
    """Extended Euclid in Q[x]: returns (g, s) with s*a = g mod b."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    while _poly_trim(r1):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim([x - y for x, y in _zip_pad(s0, _poly_mul(q, s1))])
    return r0, s0


def _zip_pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return zip(a, b)


def _divisors(n: int) -> List[int]:
    """The positive divisors of n >= 1, increasing, from the pairs (k, n // k)
    with k <= sqrt(n)."""
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


def _has_rational_root(coeffs: Sequence[Fraction]) -> bool:
    # Clear denominators, then run the rational root theorem.
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    if ints[0] == 0:
        return True  # root at 0
    c0, cn = abs(ints[0]), abs(ints[-1])
    if c0 > 10 ** 9 or cn > 10 ** 9:
        return False  # screen only; large constants are the caller's contract
    qs = _divisors(cn)
    for p in _divisors(c0):
        for q in qs:
            for r in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * r ** i for i, c in enumerate(ints)) == 0:
                    return True
    return False


class NumberField:
    """Q[x]/(m(x)) with m monic; degree 1 presents Q itself."""

    def __init__(self, modulus: Sequence):
        coeffs = [Fraction(c) for c in modulus]
        coeffs = _poly_trim(list(coeffs))
        if len(coeffs) < 2:
            raise FieldPresentationError("modulus must have degree >= 1")
        if coeffs[-1] != 1:
            raise FieldPresentationError("modulus must be monic")
        self.modulus = tuple(coeffs)
        self.degree = len(coeffs) - 1
        if self.degree > 1 and _has_rational_root(coeffs):
            raise FieldPresentationError("modulus has a rational root, hence is reducible")

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"NumberField(modulus={[str(c) for c in self.modulus]})"

    # -- element constructors ----------------------------------------------

    def element(self, coeffs: Sequence) -> "FieldElement":
        c = [Fraction(x) for x in coeffs]
        if len(c) > self.degree:
            _, c = _poly_divmod(c, list(self.modulus))
        c += [Fraction(0)] * (self.degree - len(c))
        return FieldElement(self, tuple(c))

    def from_rational(self, q) -> "FieldElement":
        return self.element([Fraction(q)])

    @property
    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    @property
    def one(self) -> "FieldElement":
        return self.from_rational(1)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, a: "FieldElement"):
        if a.field != self:
            raise DomainError("element belongs to a different field presentation")

    def mul(self, a: "FieldElement", b: "FieldElement") -> "FieldElement":
        self._check(a)
        self._check(b)
        prod = _poly_mul(list(a.coeffs), list(b.coeffs))
        _, rem = _poly_divmod(prod, list(self.modulus))
        return self.element(rem)

    def inv(self, a: "FieldElement") -> "FieldElement":
        self._check(a)
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero")
        g, s = _poly_xgcd(_poly_trim(list(a.coeffs)), list(self.modulus))
        if len(g) != 1:
            raise FieldPresentationError(
                "element has no inverse: the modulus is reducible"
            )
        return self.element([c / g[0] for c in s])


class FieldElement:
    """A field element in power-basis coordinates."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self.field._check(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return self.field.mul(self, other)

    def inv(self) -> "FieldElement":
        return self.field.inv(self)

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inv() ** (-k)
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __repr__(self) -> str:
        return f"FieldElement({[str(c) for c in self.coeffs]})"


def power_products(field: NumberField, units: Sequence[FieldElement],
                   box: Sequence[Tuple[int, int]]) -> Dict[Tuple[int, ...], FieldElement]:
    """u_1^e_1 ... u_k^e_k for every integer point e of the box of (lo, hi)
    ranges, one range per unit, in lexicographic order.  Each unit's run
    starts at a^lo with one `**` and steps up to a^hi by successive products,
    so a far range costs its length, not its distance from 0; field
    arithmetic is exact and canonical, so each entry equals the product of
    `**` powers."""
    if len(box) != len(units):
        raise DomainError(f"a box of {len(box)} ranges for {len(units)} units")
    rows = {(): field.one}
    for a, (lo, hi) in zip(units, box):
        run = {}
        for k in range(lo, hi + 1):
            run[k] = run[k - 1] * a if run else a ** lo
        rows = {e + (k,): x * y for e, x in rows.items() for k, y in run.items()}
    return rows
