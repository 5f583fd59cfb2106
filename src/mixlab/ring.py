"""Sparse Laurent polynomials over a prime field F_p with integer exponents.

Every membership question mixlab asks is asked in F_p[u1^(+-1), ..., ud^(+-1)];
a rational group action enters through a level L that clears denominators
before any polynomial is built.  So an exponent vector is a tuple of Python
ints, and the constructor and the parser refuse any other exponent.  Group
elements (shape points, shifts) stay exact rationals: `expvec` normalizes
those.  Coefficients are ints reduced mod p; no floating point anywhere.
"""

from __future__ import annotations

import re
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union


class DomainError(ValueError):
    """Raised on coefficient-field, exponent or dimension mismatches."""


class Domain:
    """The prime field F_p, equal to any other Domain with the same p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.p == other.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p,))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def coerce(self, c) -> int:
        if isinstance(c, Fraction):
            if c.denominator % self.p == 0:
                raise DomainError(f"denominator not invertible mod {self.p}")
            return c.numerator * pow(c.denominator, -1, self.p) % self.p
        return int(c) % self.p


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=None)
def GF(p: int) -> Domain:
    if not _is_prime(p):
        raise DomainError(f"{p} is not prime")
    return Domain(p)


def rational(e) -> Union[int, Fraction]:
    """e as an exact rational: an ``int`` when integral, else a ``Fraction``.
    A string goes to ``int`` first, which agrees with ``Fraction`` on every
    string it accepts and skips the ``Fraction`` parser."""
    if type(e) is str:
        try:
            return int(e)
        except ValueError:
            pass
    if type(e) is not int:
        e = Fraction(e)
        e = e.numerator if e.denominator == 1 else e
    return e


def expvec(entries: Iterable) -> Tuple[Union[int, Fraction], ...]:
    """Normalize a group element's ints/fractions/strings into a tuple of
    exact rationals (see `rational`)."""
    return tuple([e if type(e) is int else rational(e) for e in entries])


class LaurentPoly:
    """Immutable sparse Laurent polynomial over F_p.

    Terms map exponent vectors (length d, Python ints) to nonzero
    coefficients in 1..p-1; the zero polynomial has no terms.  The sorted
    canonical key behind ``==`` and ``hash`` is built on first use.
    """

    __slots__ = ("d", "domain", "terms", "_key")

    def __init__(self, d: int, domain: Domain, terms: Mapping = ()):
        self.d = int(d)
        self.domain = domain
        clean = {}
        for exps, c in dict(terms).items():
            v = expvec(exps)
            if len(v) != self.d:
                raise DomainError(f"exponent vector {v} has length {len(v)}, expected {self.d}")
            for e in v:
                if type(e) is not int:
                    raise DomainError(f"non-integral exponent {e}")
            cc = domain.coerce(c)
            if cc != 0:
                if v in clean:
                    raise DomainError(f"duplicate exponent vector {v}")
                clean[v] = cc
        self.terms = clean
        self._key = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, d: int, domain: Domain, terms: dict) -> "LaurentPoly":
        """A polynomial on terms already in the form the constructor makes:
        int exponent vectors of length d and coefficients in 1..p-1.  The
        dict is kept, not copied or checked."""
        f = object.__new__(cls)
        f.d, f.domain, f.terms, f._key = d, domain, terms, None
        return f

    @classmethod
    def zero(cls, d: int, domain: Domain) -> "LaurentPoly":
        return cls(d, domain, {})

    @classmethod
    def constant(cls, d: int, domain: Domain, c) -> "LaurentPoly":
        return cls(d, domain, {(0,) * d: c})

    @classmethod
    def one(cls, d: int, domain: Domain) -> "LaurentPoly":
        return cls.constant(d, domain, 1)

    @classmethod
    def monomial(cls, d: int, domain: Domain, exps, c=1) -> "LaurentPoly":
        return cls(d, domain, {tuple(exps): c})

    @classmethod
    def variable(cls, i: int, d: int, domain: Domain) -> "LaurentPoly":
        if not 0 <= i < d:
            raise DomainError(f"variable index {i} out of range for d={d}")
        e = [0] * d
        e[i] = 1
        return cls.monomial(d, domain, e)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        """Exponent vectors in canonical (descending lex) order."""
        return sorted(self.terms, reverse=True)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _canonical_key(self):
        if self._key is None:
            self._key = (self.d, self.domain, tuple(sorted(self.terms.items())))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._canonical_key() == other._canonical_key()

    def __hash__(self) -> int:
        return hash(self._canonical_key())

    def _check_compatible(self, other: "LaurentPoly"):
        if self.d != other.d:
            raise DomainError(f"dimension mismatch: {self.d} vs {other.d}")
        if self.domain != other.domain:
            raise DomainError(f"domain mismatch: {self.domain} vs {other.domain}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        # Both operands' terms are already normal: only the summed
        # coefficients need reducing mod p and zeros dropping.
        self._check_compatible(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        p = self.domain.p
        return LaurentPoly._trusted(
            self.d, self.domain, {m: c % p for m, c in acc.items() if c % p})

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.d, self.domain, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                acc[m] = acc.get(m, 0) + c1 * c2
        return LaurentPoly(self.d, self.domain, acc)

    # -- text form ----------------------------------------------------------

    def to_text(self) -> str:
        parts = []
        for m in self.support():
            c = self.terms[m]
            factors = [f"u{i + 1}" if e == 1 else f"u{i + 1}^{e}"
                       for i, e in enumerate(m) if e != 0]
            if c != 1 or not factors:
                factors.insert(0, str(c))
            parts.append(" * ".join(factors))
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()!r}, d={self.d}, domain={self.domain!r})"

    @classmethod
    def parse(cls, text: str, d: int, domain: Domain) -> "LaurentPoly":
        return _parse_poly(text, d, domain)


_TOKEN = re.compile(r"\s*(u\d+|\d+/\d+|\d+|[\^\*\+\-])")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:]
            if rest.strip():
                at = pos + len(rest) - len(rest.lstrip())
                raise ParseError(f"unexpected character {text[at]!r}", at)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def _parse_poly(text: str, d: int, domain: Domain) -> LaurentPoly:
    if not isinstance(text, str):
        raise ParseError(f"expected polynomial text, not {text!r}", 0)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    acc: dict = {}
    i = 0

    def parse_rational(i, allow_sign=False):
        sign = 1
        if allow_sign and i < len(tokens) and tokens[i][0] == "-":
            sign = -1
            i += 1
        if i >= len(tokens) or not tokens[i][0][0].isdigit():
            raise ParseError("expected number", tokens[i - 1][1] if i else 0)
        tok = tokens[i][0]
        val = Fraction(tok) if "/" in tok else int(tok)
        return sign * val, i + 1

    while i < len(tokens):
        sign = 1
        if tokens[i][0] in "+-":
            if tokens[i][0] == "-":
                sign = -1
            i += 1
            if i >= len(tokens):
                raise ParseError("dangling sign", tokens[i - 1][1])
        coeff = 1
        exps = [0] * d
        saw_factor = False
        while True:
            tok, pos = tokens[i]
            if tok[0].isdigit():
                val, i = parse_rational(i)
                coeff *= val
                saw_factor = True
            elif tok[0] == "u":
                idx = int(tok[1:]) - 1
                if not 0 <= idx < d:
                    raise ParseError(f"variable {tok} out of range for d={d}", pos)
                i += 1
                e = 1
                if i < len(tokens) and tokens[i][0] == "^":
                    i += 1
                    e, i = parse_rational(i, allow_sign=True)
                    if e.denominator != 1:
                        raise ParseError(f"non-integral exponent {e}", tokens[i - 1][1])
                exps[idx] += int(e)
                saw_factor = True
            else:
                raise ParseError(f"unexpected token {tok!r}", pos)
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
                if i >= len(tokens):
                    raise ParseError("dangling '*'", tokens[i - 1][1])
                continue
            break
        if not saw_factor:
            raise ParseError("empty term", tokens[i - 1][1])
        m = tuple(exps)
        acc[m] = acc.get(m, 0) + sign * coeff
    return LaurentPoly(d, domain, acc)
