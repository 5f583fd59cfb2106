"""Algebraic systems: acting group + module presentation, and the exact
character-correlation oracle.

A system pairs a group descriptor (free abelian, rational vector, or the
positive rationals indexed by primes) with one of three module classes, and
each class holds its module's rules: its zero test, its shifted sum (the
correlation bit), its fixed-shift scan and the coefficients it reads.

* CharPModule      -- a characteristic-p quotient, membership via `ideals`;
* EvaluationModule -- a number-field evaluation of the variables at units,
                      with a level L so that u_i^(1/L) has a home;
* RationalDualModule -- the module Q with a positive rational acting by
                      multiplication (the dual of the rationals).
"""

from __future__ import annotations

import math
from itertools import product
from operator import add, neg, sub
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .ideals import IdealPresentation
from .numfield import FieldElement, NumberField, power_products
from .ring import GF, DomainError, LaurentPoly, expvec, rational


class InvalidTupleError(ValueError):
    """A certificate tuple with a coefficient that is zero in the module."""


class UnsupportedOperationError(ValueError):
    """Operation not available for this module presentation."""


class GroupDescriptor:
    """The acting group.  The positive rationals are generated by a finite
    list of primes, or by every prime when `primes` is None: the whole
    group, free abelian of infinite rank."""

    __slots__ = ("kind", "d", "primes")

    def __init__(self, kind: str, d: int = 0, primes: Optional[Tuple[int, ...]] = ()):
        if kind not in ("free_abelian", "rational_vector", "positive_rationals"):
            raise DomainError(f"unknown group kind {kind!r}")
        self.kind, self.d, self.primes = kind, d, primes

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


class Module:
    """A module presentation; each subclass holds its module's rules.  The
    defaults are those of rationals or field elements, zero when formally so."""

    __slots__ = ()
    characteristic = 0
    coefficient_forms = ("rational",)  # or a "polynomial" text, a "power_basis" list
    shifts_by_ratio = False  # shifts are positive rationals, not exponent vectors

    def check(self, group: GroupDescriptor) -> None:
        """Raise `DomainError`, naming the system's field at fault, unless well formed."""

    @staticmethod
    def is_zero(a) -> bool:
        """Formal zero: the zero test of rationals and field elements."""
        return a.is_zero() if isinstance(a, (LaurentPoly, FieldElement)) else rational(a) == 0

    def unit_power_bits(self, shape) -> float:
        """The estimated bits of the widest unit power u^q, q a shape point."""
        return 0

    def element(self, value):
        """The element a certificate coefficient in one of `coefficient_forms` names."""
        return value


class CharPModule(Module):
    __slots__ = ("ideal",)
    coefficient_forms = ("polynomial",)

    def __init__(self, ideal: IdealPresentation):
        self.ideal = ideal

    @property
    def characteristic(self) -> int:
        return self.ideal.characteristic

    def is_zero(self, a) -> bool:
        return self.ideal.contains(a)

    def vanishes(self, pairs) -> bool:
        """A shift is an exponent vector of ints, and the terms c u^(gamma + m)
        of every u^gamma a (a's terms c u^m) go into one dict, reduced mod p
        once, for one membership test."""
        ideal, p = self.ideal, self.characteristic
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
        return ideal.contains(
            LaurentPoly._trusted(d, dom, {m: c % p for m, c in acc.items() if c % p}))

    def fixed_shift(self, box: Sequence[Tuple[int, int]]):
        """The scan asks whether gamma fixes the element 1, that is whether
        u^gamma - 1 is in the ideal.  Any monomial u^e gives the same answer:
        monomials are units of the Laurent ring and both engines decide
        membership up to units, so (u^gamma - 1) * u^e is in the ideal iff
        u^gamma - 1 is.  Both engines decide the same ideal (the map is solved
        from the generators, a written hint checked at load), so the scan
        asks the normal form: with s = min(gamma, 0) componentwise,
        u^(gamma - s) - u^(-s) is the cleared lift of u^gamma - 1, and it lies
        in the ideal iff NF(u^(gamma - s)) = NF(u^(-s))."""
        if self.ideal.constant_in_ideal():
            return None  # trivial quotient: no nonzero element to fix
        nf = self.ideal.normal_form_monomial
        for gamma in box_points(box):
            if any(gamma):
                low = tuple(min(g, 0) for g in gamma)
                if nf(tuple(map(sub, gamma, low))) == nf(tuple(map(neg, low))):
                    return gamma
        return None

    def element(self, text: str) -> LaurentPoly:
        return LaurentPoly.parse(text, self.ideal.d, GF(self.characteristic))


class EvaluationModule(Module):
    __slots__ = ("field", "assignment", "level")
    coefficient_forms = ("power_basis", "rational")

    def __init__(self, field: NumberField, assignment: Tuple[Tuple[int, FieldElement], ...],
                 level: int = 1):
        self.field = field
        self.assignment = assignment  # (variable index, unit at level L) pairs
        self.level = level

    @staticmethod
    def make(field: NumberField, assignment: Mapping[int, FieldElement], level: int = 1):
        return EvaluationModule(field, tuple(sorted(assignment.items())), level)

    def check(self, group: GroupDescriptor) -> None:
        """Units invertible, one per variable u1..u_d of the group, level at least 1."""
        for i, v in self.assignment:
            if v.is_zero():
                raise DomainError(f"field 'module.assignment' cannot hold 0 for u{i + 1}: "
                                  "a unit is nonzero")
            self.field.inv(v)
        variables = [i for i, _ in self.assignment]
        if len(variables) != group.rank or variables != list(range(len(variables))):
            names = ", ".join(f"u{i + 1}" for i in variables)
            raise DomainError(f"field 'module.assignment' cannot hold ({names}) here: a group "
                              f"of rank {group.rank} takes one unit for each of its variables")
        if self.level < 1:
            raise DomainError(
                f"field 'module.level' cannot hold {self.level}: it must be at least 1")

    def vanishes(self, pairs) -> bool:
        total = sum((_unit_power(self, g) * self.element(a) for g, a in pairs), self.field.zero)
        return total.is_zero()

    def fixed_shift(self, box: Sequence[Tuple[int, int]]):
        """A nonzero gamma with u^gamma = 1, which fixes every element."""
        value = unit_powers(self, box)
        return next((g for g in box_points(box) if any(g) and value[g] == self.field.one), None)

    def unit_power_bits(self, shape) -> float:
        """u_i^(q_i) = w_i^(q_i L) takes about |q_i L| times the longest
        numerator or denominator in w_i and 1/w_i."""
        width = {i: max(max(c.numerator.bit_length(), c.denominator.bit_length())
                        for v in (w, w.inv()) for c in v.coeffs) for i, w in self.assignment}
        return max((sum(abs(q * self.level) * width.get(i, 0) for i, q in enumerate(g))
                    for g in shape), default=0)

    def element(self, value) -> FieldElement:
        """A list of power-basis rationals, a rational or a field element."""
        if isinstance(value, list):
            return self.field.element(value)
        return value if isinstance(value, FieldElement) else self.field.from_rational(value)


class RationalDualModule(Module):
    __slots__ = ()
    shifts_by_ratio = True

    def check(self, group: GroupDescriptor) -> None:
        if group.kind != "positive_rationals":
            raise DomainError(f"field 'group.kind' cannot hold {group.kind!r} here: the rational "
                              "dual takes only a positive_rationals group")

    def vanishes(self, pairs) -> bool:
        return sum(rational(gamma) * rational(a) for gamma, a in pairs) == 0

    def fixed_shift(self, box: Sequence[Tuple[int, int]]):
        return None  # gamma*a = a in Q forces gamma = 1: multiplication is injective.


class AlgebraicSystem:
    """A group acting on a module; the module checks that it fits the group."""

    __slots__ = ("group", "module", "name")

    def __init__(self, group: GroupDescriptor, module: Module, name: str = ""):
        module.check(group)
        self.group, self.module, self.name = group, module, name


def _gamma_key(g):
    return expvec(g) if isinstance(g, (tuple, list)) else rational(g)


def box_points(box: Sequence[Tuple[int, int]]) -> Iterator[Tuple[int, ...]]:
    """The integer points of a box of (lo, hi) ranges, in lexicographic order."""
    return product(*[range(lo, hi + 1) for lo, hi in box])


def _unit_power(module: EvaluationModule, gamma) -> FieldElement:
    """The unit u^gamma: with assignment at level L, u_i^(q) = w_i^(qL)."""
    out, amap, key = module.field.one, dict(module.assignment), _gamma_key(gamma)
    for i, q in enumerate(key if isinstance(key, tuple) else (key,)):
        if q == 0:
            continue
        e = q * module.level
        if e.denominator != 1:
            raise UnsupportedOperationError(
                f"exponent {q} not supported at level {module.level}; raise the level")
        if i not in amap:
            raise DomainError(f"no unit assigned to variable u{i + 1}")
        out = out * amap[i] ** int(e)
    return out


def unit_powers(module: EvaluationModule, box: Sequence[Tuple[int, int]]
                ) -> Dict[Tuple[int, ...], FieldElement]:
    """The unit u^e for every integer point e of the box and for the origin:
    the products of u_i = w_i^L, one range per unit.  Each value equals
    `_unit_power` at that point."""
    units = [w ** module.level for _, w in module.assignment]
    return {tuple(0 for _ in box): module.field.one,
            **power_products(module.field, units, box)}


def character_correlation(system: AlgebraicSystem, pairs) -> int:
    """1 iff the sum of gamma . a over the pairs (gamma, a) is zero in the
    module (its `vanishes`), else 0: by the orthogonality relations, the Haar
    integral of the product of the shifted characters, for any finite list
    of pairs.  Which tuples count is `mixing.verify_certificate`'s rule."""
    return int(system.module.vanishes(pairs))


def find_nonmixing_element(system: AlgebraicSystem, box: Sequence[Tuple[int, int]]):
    """A nonidentity gamma in the box fixing some nonzero module element, or
    None: the module's `fixed_shift`."""
    return system.module.fixed_shift(box)
