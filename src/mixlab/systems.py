"""Algebraic systems: acting group + module presentation, and the exact
character-correlation oracle.

A system pairs a group descriptor (free abelian, rational vector, or the
positive rationals indexed by primes) with one of three module presentations:

* CharPModule      -- a characteristic-p quotient, membership via `ideals`;
* EvaluationModule -- a number-field evaluation of the variables at units,
                      with a level L so that u_i^(1/L) has a home;
* RationalDualModule -- the module Q with a positive rational acting by
                      multiplication (the dual of the rationals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import add, mul, neg, sub
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from .ideals import IdealPresentation
from .numfield import FieldElement, NumberField, power_table
from .ring import GF, DomainError, LaurentPoly, expvec, rational


class InvalidTupleError(ValueError):
    """A certificate tuple with a coefficient that is zero in the module."""


class UnsupportedOperationError(ValueError):
    """Operation not available for this module presentation."""


@dataclass(frozen=True)
class GroupDescriptor:
    """The acting group.  The positive rationals are generated by a finite
    list of primes, or by every prime when `primes` is None: the whole
    group, free abelian of infinite rank."""

    kind: str  # "free_abelian" | "rational_vector" | "positive_rationals"
    d: int = 0
    primes: Optional[Tuple[int, ...]] = ()

    def __post_init__(self):
        if self.kind not in ("free_abelian", "rational_vector", "positive_rationals"):
            raise DomainError(f"unknown group kind {self.kind!r}")

    @property
    def rank(self) -> Union[int, float]:
        if self.kind != "positive_rationals":
            return self.d
        return math.inf if self.primes is None else len(self.primes)

    def holds_ratio(self, q) -> bool:
        """Whether the positive rational q lies in a positive-rationals
        group: always in the whole group, and on a list of primes (pairwise
        coprime entries above 1 suffice) exactly when the numerator and
        denominator of q factor over the list."""
        if self.primes is None:
            return True
        q = rational(q)
        return q > 0 and _smooth(q.numerator, self.primes) and _smooth(q.denominator, self.primes)


def _smooth(n: int, primes: Sequence[int]) -> bool:
    """Whether the positive integer n is a product of powers of the listed
    entries."""
    for p in primes:
        while p > 1 and n % p == 0:
            n //= p
    return n == 1


def free_abelian(d: int) -> GroupDescriptor:
    return GroupDescriptor("free_abelian", d=d)


def rational_vector(d: int) -> GroupDescriptor:
    return GroupDescriptor("rational_vector", d=d)


def positive_rationals(primes: Optional[Sequence[int]]) -> GroupDescriptor:
    """The positive rationals generated by the listed primes, or the whole
    group when primes is None."""
    return GroupDescriptor("positive_rationals",
                           primes=None if primes is None else tuple(primes))


@dataclass(frozen=True)
class CharPModule:
    ideal: IdealPresentation

    @property
    def characteristic(self) -> int:
        return self.ideal.characteristic


@dataclass(frozen=True)
class EvaluationModule:
    field: NumberField
    assignment: Tuple[Tuple[int, FieldElement], ...]  # (variable index, unit at level L)
    level: int = 1

    @staticmethod
    def make(field: NumberField, assignment: Mapping[int, FieldElement], level: int = 1):
        return EvaluationModule(field, tuple(sorted(assignment.items())), level)

    @property
    def assignment_map(self) -> Dict[int, FieldElement]:
        return dict(self.assignment)


@dataclass(frozen=True)
class RationalDualModule:
    pass


@dataclass(frozen=True)
class AlgebraicSystem:
    group: GroupDescriptor
    module: object
    name: str = ""

    def __post_init__(self):
        if isinstance(self.module, RationalDualModule) and self.group.kind != "positive_rationals":
            raise DomainError("the rational dual takes only a positive_rationals group")
        if isinstance(self.module, EvaluationModule):
            K = self.module.field
            for _, v in self.module.assignment:
                K.inv(v)  # invertibility is part of the presentation contract

    def is_nonzero(self, a) -> bool:
        m = self.module
        if isinstance(m, CharPModule):
            return not m.ideal.contains(a)
        if isinstance(m, EvaluationModule):
            return not _as_field(m, a).is_zero()
        if isinstance(m, RationalDualModule):
            return rational(a) != 0
        raise UnsupportedOperationError("unknown module type")


def _gamma_key(g):
    return expvec(g) if isinstance(g, (tuple, list)) else rational(g)


def _as_field(module: EvaluationModule, a) -> FieldElement:
    if isinstance(a, FieldElement):
        return a
    return module.field.from_rational(a)


def _unit_power(module: EvaluationModule, gamma) -> FieldElement:
    """The unit u^gamma: with assignment at level L, u_i^(q) = w_i^(qL)."""
    K = module.field
    out = K.one
    amap = module.assignment_map
    key = _gamma_key(gamma)
    if not isinstance(key, tuple):
        key = (key,)
    for i, q in enumerate(key):
        if q == 0:
            continue
        e = q * module.level
        if e.denominator != 1:
            raise UnsupportedOperationError(
                f"exponent {q} not supported at level {module.level}; raise the level"
            )
        if i not in amap:
            raise DomainError(f"no unit assigned to variable u{i + 1}")
        out = out * amap[i] ** int(e)
    return out


def unit_powers(module: EvaluationModule, box: Sequence[Tuple[int, int]]
                ) -> Dict[Tuple[int, ...], FieldElement]:
    """The unit u^e for every integer point e of the box and for the origin.

    One power table w_i^(Lk) per variable, so a point costs d - 1 products;
    each value equals `_unit_power` at that point."""
    amap = module.assignment_map
    one = module.field.one
    tables = []
    for i, (lo, hi) in enumerate(box):
        if not any(range(lo, hi + 1)):  # the exponent 0 alone
            tables.append({0: one})
            continue
        if i not in amap:
            raise DomainError(f"no unit assigned to variable u{i + 1}")
        tables.append(power_table(amap[i] ** module.level, lo, hi))
    origin = tuple(0 for _ in box)
    value = {}
    for e in [origin, *product(*(range(lo, hi + 1) for lo, hi in box))]:
        value[e] = reduce(mul, [t[k] for t, k in zip(tables, e)] or [one])
    return value


def character_correlation(system: AlgebraicSystem, pairs) -> int:
    """1 iff the sum of gamma . a over the pairs (gamma, a) is zero in the
    module, else 0.

    By the orthogonality relations this bit is the Haar integral of the
    product of the shifted characters, for any finite list of pairs: the
    pairs are not checked.  Which tuples count (distinct shifts, coefficients
    nonzero in the module) is `mixing.verify_certificate`'s rule.  Each module
    kind builds its shifts only here.  In characteristic p a shift is an
    exponent vector of ints, and the terms c u^(gamma + m) of every u^gamma a
    (a's terms c u^m) go into one dict, reduced mod p once, for one
    membership test."""
    module = system.module
    if isinstance(module, CharPModule):
        ideal, p = module.ideal, module.characteristic
        d, dom = ideal.d, GF(p)
        acc: Dict[Tuple[int, ...], int] = {}
        for gamma, a in pairs:
            if len(gamma) != d:
                raise DomainError(
                    f"exponent vector {expvec(gamma)} has length {len(gamma)}, expected {d}")
            ideal.check_ring(a)
            for m, c in a.terms.items():
                k = tuple(map(add, gamma, m))
                acc[k] = acc.get(k, 0) + c
        return int(ideal.contains(
            LaurentPoly._trusted(d, dom, {m: c % p for m, c in acc.items() if c % p})))
    if isinstance(module, EvaluationModule):
        total = module.field.zero
        for gamma, a in pairs:
            total = total + _unit_power(module, gamma) * _as_field(module, a)
        return int(total.is_zero())
    if isinstance(module, RationalDualModule):
        return int(sum(rational(gamma) * rational(a) for gamma, a in pairs) == 0)
    raise UnsupportedOperationError("unknown module type")


def find_nonmixing_element(system: AlgebraicSystem, box: Sequence[Tuple[int, int]]):
    """A nonidentity gamma in the box fixing some nonzero module element, or None.

    In characteristic p the scan asks whether gamma fixes the element 1, that
    is whether u^gamma - 1 is in the ideal.  Any monomial u^e gives the same
    answer: monomials are units of the Laurent ring and both engines decide
    membership up to units, so (u^gamma - 1) * u^e is in the ideal iff
    u^gamma - 1 is.  Both engines decide the same ideal (a hint is solved
    from the generator, or a written one is checked at load), so the scan
    asks the normal form: with s = min(gamma, 0) componentwise,
    u^(gamma - s) - u^(-s) is the cleared lift of u^gamma - 1, and it lies in
    the ideal iff NF(u^(gamma - s)) = NF(u^(-s)).
    """
    m = system.module
    ranges = [range(lo, hi + 1) for lo, hi in box]
    if isinstance(m, CharPModule):
        ideal = m.ideal
        if ideal.constant_in_ideal():
            return None  # trivial quotient: no nonzero element to fix
        nf = ideal.normal_form_monomial
        for gamma in product(*ranges):
            if any(gamma):
                low = tuple(min(g, 0) for g in gamma)
                if nf(tuple(map(sub, gamma, low))) == nf(tuple(map(neg, low))):
                    return gamma
        return None
    if isinstance(m, EvaluationModule):
        value = unit_powers(m, box)
        for gamma in product(*ranges):
            if any(gamma) and value[gamma] == m.field.one:
                return gamma
        return None
    if isinstance(m, RationalDualModule):
        # gamma*a = a in Q forces gamma = 1: multiplication is injective.
        return None
    raise UnsupportedOperationError("unknown module type")

