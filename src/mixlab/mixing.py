"""Non-mixing certificates, shape search and the unit equation enumerator.

A certificate packages an order-r shape, nonzero module coefficients, a
dilation family and a finite verification transcript.  Each family is one
class that holds its own rules: its shifts at dilation n, its part checks,
its separation rule, its grade and its JSON block.  `PrimePower` and
`ExplicitList` scale a base shape of exponent vectors and may give a
Frobenius chain's bits without the oracle; `ConsecutiveRatio` is
(1, n, n - 1) in the positive rationals.  `verify_certificate` is the one
check of a certificate: its parts, its replay, its separation and its
grade, which it derives rather than reads; it keeps only the rules every
family shares.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import ceil, comb
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .numfield import FieldElement, NumberField, power_products
from .ring import GF, DomainError, LaurentPoly, expvec
from .systems import (
    AlgebraicSystem,
    CharPModule,
    EvaluationModule,
    InvalidTupleError,
    Module,
    RationalDualModule,
    _gamma_key,
    box_points,
    character_correlation,
    unit_powers,
)


class CertificateError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    def __init__(self, message: str, region: dict):
        super().__init__(message)
        self.region = region


# -- dilation families -------------------------------------------------------

def _require_positive_dilations(dilations: Sequence[int]) -> None:
    """Dilation families run over positive n: at n = 0 every shift
    collides, so a transcript entry there says nothing about the shape.
    With no dilation at all every vector would pass vacuously."""
    if not dilations:
        raise CertificateError("dilations must not be empty")
    if any(n < 1 for n in dilations):
        raise CertificateError("dilations must be positive integers")


def _merged(shape, coefficients) -> List[Tuple[object, object]]:
    """The pairs (gamma, a) with colliding shifts merged by summing their
    coefficients, in order of first occurrence; a shift whose merged
    coefficient is formally zero is dropped."""
    merged: Dict[object, list] = {}
    for g, a in zip(shape, coefficients):
        k = _gamma_key(g)
        if k in merged:
            merged[k][1] = merged[k][1] + a
        else:
            merged[k] = [g, a]
    return [(g, a) for g, a in merged.values() if not Module.is_zero(a)]


def _is_constant(a) -> bool:
    """Whether a is a Laurent polynomial with no term off exponent 0, that
    is a constant of F_p, which the p-th power map fixes."""
    return isinstance(a, LaurentPoly) and not any(map(any, a.terms))


class _Value:
    """Equal to an object of its own class whose slots are equal, and hashed
    by its slots: the value semantics of families, certificates and unit
    solutions, which callers compare."""

    __slots__ = ()

    def _slot_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._slot_values() == other._slot_values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._slot_values())


class DilationFamily(_Value):
    """The infinite family a certificate's transcript samples, one class per
    family holding its rules: its shifts at dilation n (`shape_at`), its
    part checks, its separation rule, why it proves no more than its
    transcript (`evidence_reason`), the bits it may give without the oracle
    (`bits`) and its JSON block, named by `kind`.  `check_certificate` and
    `verify_certificate` keep only the rules every family shares."""

    __slots__ = ()

    def check_dilations(self, dilations: List[int]) -> None:
        """Raise unless the (positive) transcript dilations are the family's."""

    def check_order(self, cert: NonMixingCertificate) -> None:
        """Raise unless the order and shape, which agree, are the family's."""

    def separated(self, cert: NonMixingCertificate) -> bool:
        """Whether the pairwise shape differences are pairwise distinct over
        the transcript (a finite stand-in for 'they go to infinity'): with two
        or more entries, when the dilations are and `_apart` holds."""
        dilations = cert.dilations()
        return len(dilations) <= 1 or (len(set(dilations)) == len(dilations)
                                        and self._apart(cert.shape))

    def to_json(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, block: dict) -> DilationFamily:
        return cls()


class _Lattice(DilationFamily):
    """A base shape of exponent vectors scaled by n >= 1, its shifts merged
    once, on the base shape, as n q_s = n q_t iff q_s = q_t."""

    __slots__ = ()

    def shape_at(self, shape, n):
        return tuple(expvec(x * n for x in g) for g in shape)

    def check_shape(self, system: AlgebraicSystem, shape) -> None:
        if system.module.shifts_by_ratio:
            raise CertificateError(
                f"the rational dual takes consecutive_ratio certificates, not {self.kind}")
        if not all(isinstance(g, tuple) for g in shape):
            raise CertificateError(f"a {self.kind} certificate needs exponent-vector shape points")
        if system.module.characteristic and any(type(e) is not int for g in shape for e in g):
            # Laurent polynomials over F_p have integer exponents only.
            raise CertificateError("a characteristic-p certificate needs integer shape points")
        kind = system.group.kind
        if kind != "rational_vector" and any(e.denominator != 1 for g in shape for e in g):
            raise CertificateError(f"a {kind} group holds only integer shape points")
        d = system.group.rank
        for g in shape:
            if len(g) != d:
                raise CertificateError(f"exponent vector {g} has length {len(g)}, expected {d}")

    def replay(self, cert: NonMixingCertificate) -> list:
        """(n, expected bit, merged pairs) per transcript entry."""
        base = _merged(cert.shape, cert.coefficients)
        return [(n, expected, [(tuple([n * e for e in g]), a) for g, a in base])
                for n, expected in cert.transcript]

    def _apart(self, shape) -> bool:
        """The difference of slots s and t at n is n (q_s - q_t): constant
        when q_s = q_t, injective in n >= 1 otherwise."""
        return len(set(map(_gamma_key, shape))) == len(shape)

    def bits(self, system: AlgebraicSystem, replay: list) -> Iterator[int]:
        """Each dilation's bit, from the oracle unless the Frobenius gives it:
        with constant coefficients in characteristic p the sum at m p^j is the
        sum at m to the power p^j (c^p = c), in the ideal once the sum at m is,
        so on an increasing transcript each chain m, m p, ... costs one test."""
        p = system.module.characteristic
        chain = p and all(_is_constant(a) for _, a in replay[0][2])
        roots = set()  # dilations on a chain whose sum lies in the ideal
        for n, _, pairs in replay:
            m = n
            while chain and m not in roots and m % p == 0:
                m //= p
            bit = 1 if m in roots else character_correlation(system, pairs)
            if chain and bit:
                roots.add(n)
            yield bit


class PrimePower(_Lattice):
    """Dilate the shape by p^k.  Proof grade when p is the characteristic,
    every coefficient is a constant c in F_p and the transcript holds
    dilation 1: the p-th power map fixes c (c^p = c) and carries the sum at
    n in the ideal to the sum at pn.  Its shape points must be distinct, or
    two slots never separate."""

    __slots__ = ("p",)
    kind = "prime_power"

    def __init__(self, p: int):
        self.p = p

    def evidence_reason(self, system, cert) -> Optional[str]:
        characteristic = system.module.characteristic
        if self.p != characteristic:
            return (f"a prime_power certificate with p = {self.p} in characteristic "
                    f"{characteristic} is evidence")
        if not all(map(_is_constant, cert.coefficients)):
            return "a prime_power certificate with a non-constant coefficient is evidence"
        if 1 not in cert.dilations():
            return "a prime_power certificate whose transcript lacks dilation 1 is evidence"
        if not self._apart(cert.shape):
            return "a prime_power certificate with a repeated shape point is evidence"
        return None

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p}

    @classmethod
    def from_json(cls, block: dict) -> PrimePower:
        from .presentation import _field, integer  # presentation imports this module
        return cls(integer(_field(block, "family.p"), "family.p"))


class ExplicitList(_Lattice):
    """Dilate the shape by the listed n, which must be the transcript's own:
    evidence grade, as the transcript covers a tested range only."""

    __slots__ = ("dilations",)
    kind = "explicit_list"

    def __init__(self, dilations: Tuple[int, ...]):
        self.dilations = dilations

    def check_dilations(self, dilations: List[int]) -> None:
        _require_positive_dilations(list(self.dilations) + dilations)
        if list(self.dilations) != dilations:
            # The transcript is all that is replayed, so a longer family list
            # would claim dilations nothing checked.
            raise CertificateError(
                f"explicit_list family dilations {list(self.dilations)} differ from "
                f"the transcript's dilations {dilations}")

    def evidence_reason(self, system, cert) -> Optional[str]:
        return "an explicit_list certificate is evidence"

    def to_json(self) -> dict:
        return {"kind": self.kind, "dilations": list(self.dilations)}

    @classmethod
    def from_json(cls, block: dict) -> ExplicitList:
        from .presentation import _field, _list, integer  # presentation imports this module
        return cls(tuple(integer(n, "family.dilations")
                         for n in _field(block, "family.dilations", _list)))


class ConsecutiveRatio(DilationFamily):
    """Shape (1, n, n-1) in the positive rationals, over n >= 2, where its
    three shifts are nonzero.  Proof grade with coefficients (a, -a, a), as
    a - an + a(n-1) = 0, on the whole group of positive rationals only: on a
    finitely generated group n and n - 1 both lie in it for finitely many n
    (Størmer)."""

    __slots__ = ()
    kind = "consecutive_ratio"

    def shape_at(self, shape, n):
        return (1, n, n - 1)

    def check_shape(self, system: AlgebraicSystem, shape) -> None:
        if not system.module.shifts_by_ratio:
            raise CertificateError(
                "a consecutive_ratio certificate shifts by rationals, not exponent vectors")

    def check_dilations(self, dilations: List[int]) -> None:
        if min(dilations) < 2:
            raise CertificateError("consecutive_ratio dilations must be at least 2")

    def check_order(self, cert: NonMixingCertificate) -> None:
        """The family ignores its stored shape, so it must be (1, 2, 1), its
        value at n = 2, or a file could show one shape and replay another."""
        if cert.order != 3:
            raise CertificateError("the consecutive_ratio family has order 3")
        if tuple(cert.shape) != self.shape_at((), 2):
            raise CertificateError(
                "a consecutive_ratio certificate's shape must be (1, 2, 1), its value at n = 2")

    def replay(self, cert: NonMixingCertificate) -> list:
        return [(n, expected, _merged(self.shape_at(cert.shape, n), cert.coefficients))
                for n, expected in cert.transcript]

    def _apart(self, shape) -> bool:
        """At n >= 2 the ratios 1/n, 1/(n-1) and n/(n-1) are injective in n."""
        return True

    def evidence_reason(self, system, cert) -> Optional[str]:
        a1, a2, a3 = cert.coefficients
        if not (Module.is_zero(a1 - a3) and Module.is_zero(a2 + a3)):
            return ("a consecutive_ratio certificate whose coefficients are not (a, -a, a) "
                    "is evidence")
        if system.group.primes is not None:
            return ("a consecutive_ratio certificate off the whole group of positive "
                    "rationals is evidence")
        return None

    def bits(self, system: AlgebraicSystem, replay: list) -> Iterator:
        """Each replayed dilation's bit from the oracle, or in its place a
        note naming a shift outside the declared group: (1, n, n-1) on a list
        of primes leaves it unless n and n - 1 factor over the list."""
        for _, _, pairs in replay:
            stray = next((g for g, _ in pairs if not system.group.holds_ratio(g)), None)
            yield (character_correlation(system, pairs) if stray is None
                   else f"shift {stray} is not in the declared group")


# Each family class by the name a certificate file gives it.
FAMILIES = {cls.kind: cls for cls in (PrimePower, ExplicitList, ConsecutiveRatio)}


class NonMixingCertificate(_Value):
    __slots__ = ("order", "shape", "coefficients", "family", "transcript", "grade")

    def __init__(self, order: int, shape: tuple, coefficients: tuple, family: DilationFamily,
                 transcript: Tuple[Tuple[int, int], ...], grade: str):
        self.order = order
        self.shape = shape
        self.coefficients = coefficients
        self.family = family
        self.transcript = transcript
        self.grade = grade  # "proof" | "evidence"

    def dilations(self):
        return [n for n, _ in self.transcript]


class VerificationReport:
    """Verdicts, the first that applies: `FAIL at dilation n`,
    `FAIL: separation`, `FAIL: grade`, else PASS."""

    __slots__ = ("lines", "verdict", "first_failure")

    def __init__(self, lines: List[str], verdict: str, first_failure: Optional[int] = None):
        self.lines, self.verdict, self.first_failure = lines, verdict, first_failure

    @property
    def ok(self) -> bool:
        return self.verdict == "PASS"


def check_certificate(system: AlgebraicSystem, cert: NonMixingCertificate) -> None:
    """Raise `CertificateError` unless the certificate's parts agree with
    each other and with the system: shape points the module takes, a
    nonempty transcript of positive dilations in the family's range, and an
    order of at least 2 (the family's, if it fixes one) with one shape point
    and one coefficient per slot, which `zip` would otherwise drop unseen."""
    family = cert.family
    family.check_shape(system, cert.shape)
    if not cert.transcript:
        # An empty transcript replays nothing, so it would pass at any grade.
        raise CertificateError("certificate transcript is empty")
    _require_positive_dilations(cert.dilations())
    family.check_dilations(cert.dilations())
    if cert.order < 2:
        raise CertificateError(f"certificate order {cert.order} is below 2")
    if not cert.order == len(cert.shape) == len(cert.coefficients):
        raise CertificateError(
            f"certificate order {cert.order} does not match its {len(cert.shape)} "
            f"shape points and {len(cert.coefficients)} coefficients")
    family.check_order(cert)


# The most bits, estimated by `Module.unit_power_bits`, of a unit power u^(n q)
# that `verify_certificate` computes before it stops with `BudgetExceededError`.
UNIT_POWER_BIT_LIMIT = 1 << 20


def verify_certificate(system: AlgebraicSystem, cert: NonMixingCertificate) -> VerificationReport:
    """The one certificate check: parts (`check_certificate`, which raises),
    then the tuple rules, then the replay of every transcript dilation, bit
    for bit, then separation, then the grade, derived from the certificate
    and the system: a label other than evidence must match it.  The family
    gives each dilation's merged shifts (`replay`) and its bit (`bits`): a
    note in place of a bit fails the dilation with no correlation.

    The tuple rules are checked once, before any correlation: merged shifts
    are distinct by construction, so what is left is a widest unit power
    under `UNIT_POWER_BIT_LIMIT` and every coefficient nonzero in the module,
    each distinct one tested once.  Nothing is printed before the report
    returns, so a check per dilation would raise the same errors."""
    check_certificate(system, cert)
    family = cert.family
    replay = family.replay(cert)
    n, _, widest = max(replay, key=lambda entry: entry[0])
    bits = ceil(system.module.unit_power_bits([g for g, _ in widest]))
    if bits > UNIT_POWER_BIT_LIMIT:
        raise BudgetExceededError(
            f"a unit power at dilation {n} takes about {bits} bits, over the limit",
            {"dilation": n, "estimated_bits": bits, "bit_limit": UNIT_POWER_BIT_LIMIT})
    for a in dict.fromkeys(a for _, _, pairs in replay for _, a in pairs):
        if system.module.is_zero(a):
            raise InvalidTupleError("tuple coefficient is zero in the module")
    lines = []
    first_failure = None
    for (n, expected, _), bit in zip(replay, family.bits(system, replay)):
        ok = bit == expected == 1
        lines.append(f"dilation {n}: {bit} FAIL" if isinstance(bit, str) else
                     f"dilation {n}: correlation {bit} (expected {expected}) "
                     f"{'ok' if ok else 'FAIL'}")
        if not ok and first_failure is None:
            first_failure = n
    separated = family.separated(cert)
    lines.append("separation: pairwise differences distinct over transcript" if separated
                 else "separation: FAILED (differences repeat)")
    reason = family.evidence_reason(system, cert)
    derived = "evidence" if reason else "proof"
    graded = cert.grade in ("evidence", derived)
    if not graded:
        lines.append(f"grade: FAILED (labelled {cert.grade}, but "
                     f"{reason or 'its derived grade is proof'})")
    elif cert.grade == "evidence":
        lines.append("grade: evidence (transcript covers the tested range only)")
    else:
        lines.append(f"grade: {cert.grade}")
    failures = ((first_failure is not None, f"FAIL at dilation {first_failure}"),
                (not separated, "FAIL: separation"), (not graded, "FAIL: grade"))
    verdict = next((v for failed, v in failures if failed), "PASS")
    return VerificationReport(lines, verdict, first_failure)


def _verified(system: AlgebraicSystem, cert: NonMixingCertificate) -> NonMixingCertificate:
    report = verify_certificate(system, cert)
    if not report.ok:
        raise CertificateError(f"certificate does not verify: {report.verdict}")
    return cert


# -- Frobenius certificates --------------------------------------------------

def frobenius_certificate(
    system: AlgebraicSystem, f: LaurentPoly, kmax: int = 6
) -> NonMixingCertificate:
    """Turn one ideal element into a non-mixing family via f^(p^k).

    Shape is the support of f, coefficients its (scalar) coefficients; the
    prime-power family is proof grade: the Frobenius identity gives every k.
    The certificate is returned only once `verify_certificate` passes it.
    """
    if not isinstance(system.module, CharPModule):
        raise CertificateError("frobenius_certificate needs a CharP system")
    if kmax < 0:
        raise CertificateError("kmax must be nonnegative")
    ideal = system.module.ideal
    p = ideal.characteristic
    if ideal.constant_in_ideal():
        raise CertificateError("quotient is trivial (unit ideal)")
    support = f.support()
    if len(support) < 2:
        raise CertificateError("support must contain at least 2 terms")
    return _verified(system, NonMixingCertificate(
        order=len(support),
        shape=tuple(tuple(e for e in m) for m in support),
        coefficients=tuple(LaurentPoly.constant(ideal.d, GF(p), f.terms[m]) for m in support),
        family=PrimePower(p),
        transcript=tuple((p ** k, 1) for k in range(kmax + 1)),
        grade="proof",
    ))


# -- exhaustive shape search in characteristic p -----------------------------

class SearchOutcome:
    __slots__ = ("certificates", "region")

    def __init__(self, certificates: List[NonMixingCertificate], region: dict):
        self.certificates, self.region = certificates, region

    def __iter__(self):
        return iter(self.certificates)

    def __len__(self):
        return len(self.certificates)


# The most kernel vectors (p^dim) `shape_search` enumerates for one shape
# before it stops with `BudgetExceededError`.
KERNEL_COMBO_LIMIT = 1 << 16


def _canonical_shapes(points: Sequence[Tuple[int, ...]],
                      r: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """One r-point shape per translation class that fits in a box, sorted,
    yielded as the search reaches it.

    `points` is the box moved to the origin, in `box_points` order.  A
    class's member whose minimum on each axis is the box's lower corner is
    unique; moved with the box, its minimum on each axis is 0.  So the shapes
    are the r-subsets of `points` that meet every coordinate hyperplane, and
    combinations() yields them in sorted order.
    """
    return (c for c in combinations(points, r) if all(0 in axis for axis in zip(*c)))


def _projective_combinations(kernel: Sequence[Sequence[int]], p: int):
    """One combination of the independent basis vectors per projective class,
    scaled so its first nonzero entry is 1.  A class is taken at its weight
    vector whose first nonzero weight is 1, where product() first reaches it."""
    k = len(kernel)
    for lead_at in reversed(range(k)):
        for rest in product(range(p), repeat=k - 1 - lead_at):
            vec = list(kernel[lead_at])
            for wgt, basis_vec in zip(rest, kernel[lead_at + 1:]):
                if wgt:
                    vec = [(a + wgt * b) % p for a, b in zip(vec, basis_vec)]
            inv = pow(next(x for x in vec if x), -1, p)
            yield tuple((x * inv) % p for x in vec)


def shape_search(
    system: AlgebraicSystem,
    r: int,
    shape_box: Sequence[Tuple[int, int]],
    coeff_window: Sequence[Tuple[int, int]],
    dilations: Sequence[int],
) -> SearchOutcome:
    """Exhaustive kernel search for simultaneous vanishing at all dilations.

    For each r-subset of the shape box (canonicalized by translation) the
    coefficients supported on the window form unknowns of a linear system
    over F_p; kernel vectors whose blocks are all nonzero in the module are
    certificates.

    Certificates are read off the kernel without a per-certificate replay.
    Each basis vector is replayed once per dilation through the correlation
    oracle (a basis vector that fails raises `CertificateError`), and every
    combination then vanishes by linearity.  A canonical shape has distinct
    points, so separation holds exactly when the dilations are distinct,
    which is tested once per search.  A block is
    nonzero in the module exactly when it is formally nonzero, because the
    window is column-reduced: its monomials have independent normal forms,
    and both engines decide the same ideal (the map is solved from the
    generators, a written hint checked as a second presentation at load).
    """
    if r < 2:
        raise CertificateError("order must be at least 2")
    if not isinstance(system.module, CharPModule):
        raise CertificateError("shape_search needs a CharP system")
    _require_positive_dilations(dilations)
    ideal = system.module.ideal
    if ideal.constant_in_ideal():
        raise CertificateError("quotient is trivial (unit ideal)")
    p = ideal.characteristic
    dom = GF(p)
    window = list(box_points(coeff_window))
    if any(e < 0 for w in window for e in w):
        raise CertificateError("coefficient window must be nonnegative")
    # Column-reduce the window against the ideal: keep a subset of window
    # monomials whose normal forms are linearly independent.  Dropping the
    # dependent ones removes exactly the coefficient vectors that are zero in
    # the quotient, which could otherwise flood the kernel with degenerate
    # (block-in-ideal) solutions.
    _, pivots = linalg.rref([ideal.normal_form_monomial(w) for w in window], p)
    window = [window[j] for j in pivots]
    points = list(box_points([(0, hi - lo) for lo, hi in shape_box]))
    shapes = _canonical_shapes(points, r)
    region = {
        "shape_box": [list(b) for b in shape_box],
        "coeff_window": [list(b) for b in coeff_window],
        "reduced_window_size": len(window),
        "dilations": list(dilations),
        "shapes_examined": 0,
        "order": r,
    }
    if not window:
        region["shapes_examined"] = sum(1 for _ in shapes)
        return SearchOutcome([], region)
    ncols = r * len(window)
    family = ExplicitList(tuple(dilations))
    transcript = tuple((n, 1) for n in dilations)
    separated = len(set(dilations)) == len(dilations)
    found: List[NonMixingCertificate] = []

    def blocks_of(vec) -> List[LaurentPoly]:
        k = len(window)
        return [LaurentPoly(ideal.d, dom, {w: c for w, c in zip(window, vec[s * k:]) if c})
                for s in range(r)]

    # Column (s, w) of a shape's system stacks the normal forms of
    # u^(n*q_s + w) over the dilations, and row (n, mu) is the coefficient of
    # mu at dilation n.  A column depends on the point q_s alone, so each
    # point's block of columns is built once and a shape's matrix is its
    # points' blocks side by side.  A column is packed into an int.
    row_of: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    nf = ideal.normal_form_monomial

    def column(q, w):
        terms = (((n, mu), c) for n in dilations
                 for mu, c in nf(tuple(n * a + e for a, e in zip(q, w))).items())
        return linalg.pack(terms, p, row_of)

    block = {q: [column(q, w) for w in window] for q in points}

    for shape in shapes:
        region["shapes_examined"] += 1
        kernel = linalg.nullspace([col for q in shape for col in block[q]], ncols, p)
        if not kernel:
            continue
        combos = p ** len(kernel)
        if combos > KERNEL_COMBO_LIMIT:
            raise BudgetExceededError(
                f"kernel dimension {len(kernel)} exceeds the combination budget",
                {**region, "shape": [list(q) for q in shape]},
            )
        # Every combination of the basis vanishes at every dilation by
        # linearity, so replaying the basis covers them all.  The replay goes
        # through the ideal's own engine as a cross-check of the elimination.
        for basis_vec in kernel:
            blocks = blocks_of(basis_vec)
            for n in dilations:
                if not character_correlation(system, zip(family.shape_at(shape, n), blocks)):
                    raise CertificateError(
                        f"kernel vector of shape {list(shape)} does not vanish at "
                        f"dilation {n}: internal elimination fault"
                    )
        if not separated:
            continue
        for vec in _projective_combinations(kernel, p):
            blocks = blocks_of(vec)
            # The kept window monomials have independent normal forms, so a
            # block is in the ideal only when it is formally zero.
            if any(b.is_zero() for b in blocks):
                continue
            found.append(NonMixingCertificate(
                order=r, shape=shape, coefficients=tuple(blocks), family=family,
                transcript=transcript, grade="evidence"))
    return SearchOutcome(found, region)


# -- the uniform bound and the desk-scale enumerator -------------------------

def ess_bound_exponent(n: int, r: int) -> int:
    """The exact exponent (6n)^(3n) * (r+1); the bound itself is its exp."""
    if n < 1 or r < 0:
        raise DomainError("need n >= 1 and r >= 0")
    return (6 * n) ** (3 * n) * (r + 1)


class UnitSolution(_Value):
    __slots__ = ("exponents", "values")

    def __init__(self, exponents: Tuple[Tuple[int, ...], ...], values: Tuple[FieldElement, ...]):
        self.exponents = exponents  # one exponent vector per x_i
        self.values = values


def _order(g: FieldElement) -> Optional[int]:
    """The least k >= 1 with g^k = 1, or None: a root of unity of order k in a
    field of degree D has phi(k) <= D and phi(k) >= sqrt(k/2), so k <= 2 D^2."""
    one, x = g.field.one, g
    for k in range(1, 2 * g.field.degree ** 2 + 1):
        if x == one:
            return k
        x = x * g
    return None


def enumerate_unit_solutions(field: NumberField, coefficients, generators, box: int,
                             budget: int = 500_000) -> List[UnitSolution]:
    """All nondegenerate solutions of a1 x1 + ... + an xn = 1 in the box.

    Coefficients and generators are field elements or rationals.  Each x_i
    ranges over products of the generators with exponents bounded by the box;
    x1..x_{n-1} are enumerated and x_n is solved for and looked up among the
    units.  Solutions with a vanishing proper subsum are discarded.
    """
    n = len(coefficients)
    # The degenerate test below tries up to 2^n subsets.
    if not 1 <= n <= 20:
        raise DomainError(f"a unit equation takes 1 to 20 terms, not {n}")

    def element(x):
        return x if isinstance(x, FieldElement) else field.from_rational(x)

    coefficients, generators = tuple(map(element, coefficients)), tuple(map(element, generators))
    if any(x.is_zero() for x in coefficients + generators):
        raise DomainError("coefficients and generators must be nonzero")
    B = box
    region = {"box": B, "generators": len(generators), "terms": n}
    # A generator of infinite order has 2B + 1 distinct powers, so |U| >= 2B + 1;
    # when that alone breaks the budget, refuse before building any product.
    # g^-1 has the order of g, and a non-invertible generator is refused first.
    orders = [_order(g.inv()) for g in generators]
    least = (2 * B + 1) ** (n - 1)
    if None in orders and least > budget:
        raise BudgetExceededError(
            f"at least {least} combinations exceed the budget {budget}", region)
    # The products over the box, in lexicographic order of the exponent
    # vectors.  A generator of order o needs only the exponents -B..-B + o - 1:
    # a larger one repeats the value of a lexicographically smaller vector.
    ranges = [(-B, B if o is None else min(B, o - 1 - B)) for o in orders]
    units: Dict[FieldElement, Tuple[int, ...]] = {}
    for e, val in power_products(field, generators, ranges).items():
        units.setdefault(val, e)  # keep the first exponent vector per group element
    # One lookup per choice of x1..x_{n-1}.
    total = len(units) ** (n - 1)
    if total > budget:
        raise BudgetExceededError(f"{total} combinations exceed the budget {budget}", region)
    # x_n is fixed by the others: x_n = (1 - a1 x1 - ... - a_{n-1} x_{n-1}) / a_n,
    # so each prefix has at most one completion and the order is unchanged.
    *head, last = coefficients
    inv_last = last.inv()
    solutions = []
    for prefix in product(units.items(), repeat=n - 1):
        rest = field.one
        for a, (x, _) in zip(head, prefix):
            rest = rest - a * x
        x_last = rest * inv_last
        e_last = units.get(x_last)
        if e_last is None:
            continue
        values = tuple(x for x, _ in prefix) + (x_last,)
        # Each term is nonzero and all n sum to 1, so a proper subsum vanishes
        # exactly when some 2..n - 1 of the terms sum to zero.
        terms = [a * x for a, x in zip(coefficients, values)]
        if any(sum(s, field.zero).is_zero()
               for k in range(2, n) for s in combinations(terms, k)):
            continue
        solutions.append(UnitSolution(tuple(e for _, e in prefix) + (e_last,), values))
    return solutions


# -- evaluation-system search (characteristic zero) --------------------------

def evaluation_shape_search(
    system: AlgebraicSystem,
    r: int,
    shape_box: Sequence[Tuple[int, int]],
    dilations: Optional[Sequence[int]] = None,
) -> SearchOutcome:
    """Search an evaluation system for coefficient vectors vanishing at every
    listed dilation (1..r + 1 by default) simultaneously.  Bounded evidence,
    not proof: the region and dilation set are recorded alongside any finding.

    Every shape in the box is decided.  Dilations 1..r make rows 1..r of a
    shape's system a scaled Vandermonde matrix in its unit values x_s, with
    determinant prod x_s * prod (x_t - x_s).  So the kernel is the set of
    vectors summing to zero on each class of equal values, spanned by
    e_f - e_first(class) for every later member f of a class.  An all-nonzero
    kernel vector exists only if every class in the shape has at least 2
    members, and then the sum of that basis is one: the first member of a
    class carries 1 - |class| and every later member carries 1.  Each
    certificate read off this way is still replayed by `verify_certificate`,
    and one that fails it is an internal fault (`CertificateError`).
    """
    if r < 2:
        raise CertificateError("order must be at least 2")
    m = system.module
    if not isinstance(m, EvaluationModule):
        raise CertificateError("evaluation_shape_search needs an Evaluation module")
    if dilations is None:
        dilations = tuple(range(1, r + 2))
    _require_positive_dilations(dilations)
    if not set(range(1, r + 1)) <= set(dilations):
        raise CertificateError(
            f"dilations must contain 1..{r}: the search reads rows 1..r as a "
            "Vandermonde matrix"
        )
    points = [p for p in box_points(shape_box) if any(p)]
    origin = tuple(0 for _ in shape_box)
    region = {
        "shape_box": [list(b) for b in shape_box],
        "dilations": list(dilations),
        "order": r,
        "note": "bounded evidence over the listed region and dilations only",
        "shapes_examined": comb(len(points), r - 1),
    }
    value = unit_powers(m, shape_box)
    class_size = Counter(value.values())
    # Every shape holds the origin, so none survives unless another point
    # has the value 1; a point alone in its class is in no surviving shape.
    if class_size[value[origin]] < 2:
        candidates = []
    else:
        candidates = [q for q in points if class_size[value[q]] >= 2]
    over_q = m.field.degree == 1
    found: List[NonMixingCertificate] = []
    for rest in combinations(candidates, r - 1):
        shape = (origin,) + rest
        members = Counter(value[q] for q in shape)
        if min(members.values()) < 2:
            continue
        coeffs = []
        seen = set()
        for q in shape:
            c = 1 if value[q] in seen else 1 - members[value[q]]
            seen.add(value[q])
            coeffs.append(Fraction(c) if over_q else m.field.from_rational(c))
        cert = NonMixingCertificate(
            order=r,
            shape=tuple(tuple(q) for q in shape),
            coefficients=tuple(coeffs),
            family=ExplicitList(tuple(dilations)),
            transcript=tuple((n, 1) for n in dilations),
            grade="evidence",
        )
        report = verify_certificate(system, cert)
        if not report.ok:
            raise CertificateError(
                f"certificate of shape {list(shape)} does not verify ({report.verdict}): "
                "internal value-class fault")
        found.append(cert)
    return SearchOutcome(found, region)


# -- the rational-dual system ------------------------------------------------

def rational_dual_certificate(
    system: AlgebraicSystem, n_max: int = 1000
) -> NonMixingCertificate:
    """The order-3 family (1, n, n-1) on the rational dual, transcript 2..n_max.

    Its coefficients (1, -1, 1) give 1 - n + (n - 1) = 0 for every n: the
    constant part a1 - a3 and the n-part a2 + a3 both vanish."""
    if not isinstance(system.module, RationalDualModule):
        raise CertificateError("needs a rational-dual system")
    family = ConsecutiveRatio()
    return _verified(system, NonMixingCertificate(
        order=3,
        shape=family.shape_at((), 2),
        coefficients=(Fraction(1), Fraction(-1), Fraction(1)),
        family=family,
        transcript=tuple((n, 1) for n in range(2, n_max + 1)),
        grade="proof",
    ))

