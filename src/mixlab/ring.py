"""Sparse Laurent polynomials with exact rational exponent vectors.

Exponents are tuples of exact rationals so that integer-lattice and
rational-vector group elements share a single representation: an integral
exponent is stored as an ``int`` and any other as a ``Fraction``.  The two
types agree on ``==``, ``hash`` and ordering for equal values, so the choice
is invisible to callers and keeps integer arithmetic on the hot paths.
Coefficients live in Z, Q or a prime field F_p and use
arbitrary precision throughout; no floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Tuple, Union

ExponentVector = Tuple[Union[int, Fraction], ...]


class DomainError(ValueError):
    """Raised on coefficient-domain or dimension mismatches."""


@dataclass(frozen=True)
class Domain:
    """Coefficient domain tag: integers, rationals, or a prime field."""

    kind: str  # "ZZ" | "QQ" | "FP"
    p: Optional[int] = None

    def __repr__(self) -> str:
        if self.kind == "FP":
            return f"GF({self.p})"
        return {"ZZ": "ZZ", "QQ": "QQ"}[self.kind]

    def coerce(self, c):
        if self.kind == "FP":
            if isinstance(c, Fraction):
                if c.denominator % self.p == 0:
                    raise DomainError(f"denominator not invertible mod {self.p}")
                return c.numerator * pow(c.denominator, -1, self.p) % self.p
            return int(c) % self.p
        if self.kind == "ZZ":
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise DomainError(f"non-integer coefficient {c} in ZZ")
                return int(c)
            return int(c)
        return Fraction(c)


ZZ = Domain("ZZ")
QQ = Domain("QQ")


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
    return Domain("FP", p)


def expvec(entries: Iterable) -> ExponentVector:
    """Normalize a sequence of ints/fractions/strings into an exponent vector.

    Integral entries come back as ``int``, the others as ``Fraction``.
    """
    out = []
    for e in entries:
        if type(e) is not int:
            e = Fraction(e)
            if e.denominator == 1:
                e = e.numerator
        out.append(e)
    return tuple(out)


class LaurentPoly:
    """Immutable sparse Laurent polynomial over a fixed domain.

    Terms map exponent vectors (length d, exact rationals) to nonzero
    coefficients; the zero polynomial has no terms.  The sorted canonical key
    behind ``==`` and ``hash`` is built on first use.
    """

    __slots__ = ("d", "domain", "terms", "_key")

    def __init__(self, d: int, domain: Domain, terms: Mapping[ExponentVector, object] = ()):
        self.d = int(d)
        self.domain = domain
        clean = {}
        for exps, c in dict(terms).items():
            v = expvec(exps)
            if len(v) != self.d:
                raise DomainError(f"exponent vector {v} has length {len(v)}, expected {self.d}")
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
        exponent vectors of length d with int or Fraction entries and nonzero
        coefficients of the domain.  The dict is kept, not copied or checked."""
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
        return cls(d, domain, {expvec(exps): c})

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

    def coeff(self, exps):
        return self.terms.get(expvec(exps), 0)

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
        # coefficients need reducing (mod p over F_p) and zeros dropping.
        self._check_compatible(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        p = self.domain.p
        if p is None:
            return LaurentPoly._trusted(self.d, self.domain, {m: c for m, c in acc.items() if c})
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

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise DomainError("negative powers not supported; dilate a monomial instead")
        result = LaurentPoly.one(self.d, self.domain)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def frobenius_pow(self, k: int) -> "LaurentPoly":
        """f^(p^k) over F_p, computed termwise via the Frobenius identity."""
        if self.domain.kind != "FP":
            raise DomainError("frobenius_pow requires a prime-field domain")
        if k < 0:
            raise DomainError("k must be nonnegative")
        p = self.domain.p
        q = p ** k
        return LaurentPoly(
            self.d,
            self.domain,
            {tuple(q * e for e in m): pow(c, q, p) for m, c in self.terms.items()},
        )

    def dilate(self, n) -> "LaurentPoly":
        """Scale every exponent vector by the nonzero rational n."""
        n = Fraction(n)
        if n == 0:
            raise DomainError("dilation factor must be nonzero")
        return LaurentPoly(
            self.d, self.domain, {tuple(n * e for e in m): c for m, c in self.terms.items()}
        )

    def to_domain(self, domain: Domain) -> "LaurentPoly":
        return LaurentPoly(self.d, domain, self.terms)

    # -- text form ----------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in self.support():
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e != 0:
                    if e == 1:
                        factors.append(f"u{i + 1}")
                    else:
                        factors.append(f"u{i + 1}^{e}")
            neg = (self.domain.kind != "FP") and c < 0
            mag = -c if neg else c
            if factors and mag == 1:
                body = " * ".join(factors)
            elif factors:
                body = " * ".join([str(mag)] + factors)
            else:
                body = str(mag)
            parts.append(("- " if neg else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

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
                exps[idx] += e
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
