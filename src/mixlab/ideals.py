"""Ideal presentations and exact membership engines in characteristic p.

Laurent membership is reduced to polynomial membership by clearing negative
exponents and saturating by the product of the variables: adjoin t with the
relation t*u1*...*ud = 1 and compute a Groebner basis in an order that
eliminates t.  The t-free part of the reduced basis is then a basis of the
saturated polynomial ideal, so normal forms of ordinary polynomials never
mention t.

Normal forms are linear: the remainder on a reduced basis is unique and a
linear combination of remainders is again one, so NF(f) is the sum of
c_m NF(u^m) over the terms of the cleared lift of f, with no final
reduction.  The ideal keeps one memo of monomial normal forms NF(u^m), and
a miss climbs the Frobenius ladder.  Over F_p the p-th power map sends the
saturated ideal into itself, sends u^q to u^(pq) and fixes every
coefficient, so NF(u^(pq + r)) = NF(NF(u^q)^[p] u^r), where ^[p]
multiplies every exponent by p and r = m mod p componentwise.  A miss thus
reduces one small polynomial per base-p digit of the exponents instead of
walking down from u^m; a monomial whose exponents are all below p is
reduced directly.

A variable u_i that the reduced basis does not mention factors out of every
normal form.  A reduction step by a basis element g with no u_i multiplies
g by lt / lead(g), which carries the whole u_i-exponent of the current lead
lt, so no step changes the exponent of u_i; and the order is multiplicative.
So NF(u^m) = u^(m_F) NF(u^(m_V)), where F are the variables the basis does
not mention and m_V is m with its F-exponents set to 0.  The one condition
is that the basis does not mention u_i; it is read off the basis, whatever
the generators or the group.  A relation on the positive rationals that
names few of the primes thus reduces only the V-part, and the ladder climbs
on V-parts alone.

The substitution engine decides membership when the generators solve
variables in terms of earlier ones (the three-dot ideal via u2 = 1 + u1
over F_2).  It is a ring map: the highest substituted variable goes first,
and each term c u^m becomes c u^m' g_v^(m_v - low), with m' the exponents m
with slot v zeroed and low the lowest m_v (u_v^low is a unit).  The hint
powers g_v^b come from a memo filled by the same ladder, as the hints lie
over F_p: g^(pq + r) = (g^q)^[p] g^r, in the Laurent ring too.

`_solved` derives the map by triangular elimination.  Each round takes the
pending generators' images under the map so far, drops the zero ones and
solves one image c u^a (u_v - g), c u^a a unit and g != 0 in earlier
variables, for the highest such v.  As R/(u_v - g) is R'[1/g], R' the
Laurent ring in the other variables, a map that drops or solves every
generator and sends no g_v to zero (else I is the unit ideal) presents R/I
as a Laurent ring, a domain, with nonzero elements inverted: f is in I iff
its image is zero.  Any other ideal keeps the Gröbner engine.
"""

from __future__ import annotations

import heapq
from operator import add, le, neg, sub
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .ring import GF, DomainError, LaurentPoly

Mono = Tuple[int, ...]
PolyDict = Dict[Mono, int]


class EngineUnavailableError(ValueError):
    """No membership engine supports the requested characteristic."""


# -- internal polynomial arithmetic over F_p ---------------------------------
# Monomials are integer tuples of length nvars; the last slot is the
# saturation variable t.  The order is a block order eliminating t: compare
# the t-exponent first, then graded lex on u1 > u2 > ... > ud.

def _heap_key(m: Mono):
    """Sort key listing monomials from the largest down, so that the lead of
    a polynomial is its minimum and the top of a heap."""
    *u, t = m
    return (-t, -sum(u), tuple(map(neg, u)))


def _lead(f: PolyDict) -> Mono:
    return min(f, key=_heap_key)


def _mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def _mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def _mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def _add_scaled(f: PolyDict, c: int, shift: Mono, g: PolyDict, p: int) -> List[Mono]:
    """f += c * x^shift * g in place; returns the monomials new to f."""
    new = []
    for m, cm in g.items():
        key = _mono_mul(m, shift)
        old = f.get(key)
        val = (c * cm if old is None else old + c * cm) % p
        if val:
            if old is None:
                new.append(key)
            f[key] = val
        elif old is not None:
            del f[key]
    return new


def _mul(f: PolyDict, g: PolyDict, p: int) -> PolyDict:
    out: PolyDict = {}
    for m, c in f.items():
        _add_scaled(out, c, m, g, p)
    return out


def _dilated(f: PolyDict, p: int, shift: Mono) -> PolyDict:
    """f^[p] u^shift, where ^[p] multiplies every exponent by p.  Over F_p
    f^[p] = f^p (the Frobenius identity), in the Laurent ring too."""
    return {tuple(p * e + s for e, s in zip(m, shift)): c for m, c in f.items()}


def _normal_form(f: PolyDict, basis: Sequence[Tuple[Mono, int, PolyDict]], p: int) -> PolyDict:
    """Remainder of f on division by basis (each entry: lead, lead inverse, tail).

    The working terms sit in a heap keyed by the monomial order, so each
    step pops the lead.  A step adds only monomials below the current lead,
    so a popped monomial never returns; an entry whose monomial has left the
    working terms (cancelled, or popped through a duplicate) is skipped.
    """
    rem: PolyDict = {}
    work = dict(f)
    heap = [(_heap_key(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        lt = heapq.heappop(heap)[1]
        c = work.pop(lt, None)
        if c is None:
            continue
        for lm, inv_lc, tail in basis:
            if _mono_divides(lm, lt):
                shift = tuple(map(sub, lt, lm))
                for m in _add_scaled(work, (-c * inv_lc) % p, shift, tail, p):
                    heapq.heappush(heap, (_heap_key(m), m))
                break
        else:
            rem[lt] = c
    return rem


def _prepared(basis: Sequence[PolyDict], p: int):
    """(lead, lead inverse, tail) per basis element: the lead cancels by
    construction in a reduction step, so only the tail is added."""
    out = []
    for g in basis:
        lm = _lead(g)
        tail = {m: c for m, c in g.items() if m != lm}
        out.append((lm, pow(g[lm], -1, p), tail))
    return out


def _buchberger(gens: Sequence[PolyDict], p: int) -> List[PolyDict]:
    basis = [dict(g) for g in gens if g]
    if not basis:
        return []
    queue: List[Tuple[int, int, int, int]] = []
    counter = 0
    for i in range(len(basis)):
        for j in range(i):
            lcm = _mono_lcm(_lead(basis[i]), _lead(basis[j]))
            heapq.heappush(queue, (sum(lcm), counter, j, i))
            counter += 1
    while queue:
        _, _, i, j = heapq.heappop(queue)
        fi, fj = basis[i], basis[j]
        li, lj = _lead(fi), _lead(fj)
        lcm = _mono_lcm(li, lj)
        if lcm == _mono_mul(li, lj):
            continue  # coprime leading monomials: S-polynomial reduces to zero
        shift_i = tuple(a - b for a, b in zip(lcm, li))
        shift_j = tuple(a - b for a, b in zip(lcm, lj))
        ci = pow(fi[li], -1, p)
        cj = pow(fj[lj], -1, p)
        s: PolyDict = {}
        _add_scaled(s, ci, shift_i, fi, p)
        _add_scaled(s, -cj % p, shift_j, fj, p)
        rem = _normal_form(s, _prepared(basis, p), p)
        if rem:
            basis.append(rem)
            k = len(basis) - 1
            for idx in range(k):
                lcm2 = _mono_lcm(_lead(basis[idx]), _lead(rem))
                heapq.heappush(queue, (sum(lcm2), counter, idx, k))
                counter += 1
    return _autoreduce(basis, p)


def _autoreduce(basis: Sequence[PolyDict], p: int) -> List[PolyDict]:
    # Drop members whose lead is divisible by another lead, then fully reduce
    # tails and normalize to monic; sort for determinism.
    leads = [(_lead(g), g) for g in basis if g]
    keep = []
    for idx, (lm, g) in enumerate(leads):
        if any(
            _mono_divides(lm2, lm) and (lm2 != lm or j < idx)
            for j, (lm2, _) in enumerate(leads)
            if j != idx
        ):
            continue
        keep.append(g)
    out = []
    for idx, g in enumerate(keep):
        others = _prepared([h for j, h in enumerate(keep) if j != idx], p)
        rem = _normal_form(g, others, p) if others else dict(g)
        if not rem:
            continue
        lm = _lead(rem)
        inv = pow(rem[lm], -1, p)
        out.append({m: (c * inv) % p for m, c in rem.items()})
    out.sort(key=lambda g: _heap_key(_lead(g)), reverse=True)
    return out


def _primitive_monic(f: PolyDict, p: int) -> PolyDict:
    """f (keys of d exponents) divided by its monomial content, made monic in
    the monomial order; keys gain the saturation slot t = 0."""
    content = [min(e) for e in zip(*f)]
    g = {tuple(map(sub, m, content)) + (0,): c for m, c in f.items()}
    inv = pow(g[_lead(g)], -1, p)
    return {m: c * inv % p for m, c in g.items()}


def _linear(f: PolyDict, p: int) -> Optional[Tuple[int, PolyDict]]:
    """(v, g) when f, less its monomial content, has degree 1 in its highest
    variable u_v with a one-term coefficient c u^a: then f = c u^a (u_v - g)
    with g != 0 in the earlier variables.  Else None."""
    low = [min(e) for e in zip(*f)]
    v = max((i for i, lo in enumerate(low) if any(m[i] != lo for m in f)), default=None)
    if v is None:
        return None  # zero, or a monomial: a unit
    top = [m for m in f if m[v] != low[v]]
    if len(top) != 1 or top[0][v] != low[v] + 1:
        return None
    a = top[0]
    scale = p - pow(f[a], -1, p)
    return v, {tuple(0 if i == v else e - s for i, (e, s) in enumerate(zip(m, a))): c * scale % p
               for m, c in f.items() if m != a}


# -- the presentation --------------------------------------------------------

class IdealPresentation:
    """Generators plus characteristic and an optional written substitution
    hint, all Laurent polynomials over F_p for the prime p = characteristic.

    `substitution` is the map the generators solve (`_solved`), or None;
    `contains` runs the substitution engine on it, or a saturated Gröbner
    basis without one.  A written hint, solving variables by polynomials in
    strictly earlier ones, never picks the engine: one equal to the derived
    map needs no check, and any other is a second presentation
    (u_v - g_v, ...) of the ideal, checked against the generators both ways.
    """

    def __init__(
        self,
        generators: Sequence[LaurentPoly],
        characteristic: int,
        d: Optional[int] = None,
        substitution: Optional[Mapping[int, LaurentPoly]] = None,
    ):
        if characteristic > 2 ** 31:
            raise EngineUnavailableError("characteristic too large for the engine")
        self.characteristic = characteristic
        self._dom = GF(characteristic)
        if d is None:
            if not generators:
                raise DomainError("d required when there are no generators")
            d = generators[0].d
        self.d = d
        self.generators = tuple(generators)
        for g in self.generators + tuple((substitution or {}).values()):
            self.check_ring(g)
        self._gb_full: Optional[List[PolyDict]] = None
        self._gb_contracted: Optional[List[PolyDict]] = None
        self._gb_prepared = None
        # The variables the contracted basis does not mention, set with
        # _gb_prepared.
        self._free: List[int] = []
        # NF(u^m) per exponent tuple m of d nonnegative ints (the ladder's memo).
        self._nf_cache: Dict[Mono, PolyDict] = {}
        # g_var^b per (var, b) for the map's hints over F_p (their ladder's memo).
        self._hint_powers: Dict[Tuple[int, int], PolyDict] = {}
        self.substitution = self._solved()
        if substitution and substitution != self.substitution:
            # A second presentation (u_v - g_v, ...), checked both ways.
            for var, poly in substitution.items():
                if not 0 <= var < d:
                    raise DomainError(f"substitution for u{var + 1} out of range for d={d}")
                if any(m[i] for m in poly.terms for i in range(var, d)):
                    raise DomainError(
                        f"substitution for u{var + 1} must use strictly earlier variables")
            u = [LaurentPoly.variable(i, d, self._dom) for i in range(d)]
            # The image of g_v reads only the entries below v, so the first
            # prefix of the hint that derives no map sends its top g_v to zero.
            for var in sorted(substitution):
                claim = IdealPresentation([u[w] - g for w, g in substitution.items() if w <= var],
                                          characteristic, d=d)
                if claim.substitution is None:
                    raise DomainError(
                        f"substitution sends u{var + 1} to zero, which is not a unit "
                        "of the Laurent ring")
            for g in self.generators:
                if not claim.contains(g):
                    raise DomainError(
                        f"generator {g.to_text()!r} does not vanish under the substitution")
            for var in sorted(substitution):
                if not self.contains(u[var] - substitution[var]):
                    raise DomainError(
                        f"u{var + 1} - ({substitution[var].to_text()}) is not in the ideal of the "
                        "generators: the substitution solves a larger ideal")

    # -- Laurent -> polynomial plumbing -------------------------------------

    def check_ring(self, f: LaurentPoly) -> None:
        """Raise `DomainError` unless f is a Laurent polynomial over this
        ideal's F_p in its d variables."""
        if f.d != self.d or f.domain != self._dom:
            raise DomainError(
                f"{f!r} is not in the Laurent ring over {self._dom!r} in {self.d} variables")

    def _cleared(self, f: LaurentPoly) -> PolyDict:
        """Shift f by a monomial unit so all exponents are nonnegative; keys
        are exponent tuples of length d (no saturation slot)."""
        if not f.terms:
            return {}
        shift = [min(0, min(m[i] for m in f.terms)) for i in range(self.d)]
        return {tuple(map(sub, m, shift)): c for m, c in f.terms.items()}

    # -- Groebner engine -----------------------------------------------------

    def _full_basis(self) -> List[PolyDict]:
        if self._gb_full is None:
            gens = [{m + (0,): c for m, c in self._cleared(g).items()}
                    for g in self.generators]
            sat: PolyDict = {
                tuple([1] * self.d + [1]): 1,
                tuple([0] * (self.d + 1)): self.characteristic - 1,
            }
            self._gb_full = _buchberger([g for g in gens if g] + [sat], self.characteristic)
        return self._gb_full

    def _contracted_basis(self) -> List[PolyDict]:
        """The t-free part of the full basis.  A principal ideal (f) needs no
        Buchberger run: over F_p[u] its saturation is (f / u^c), with u^c the
        monomial content of f (F_p[u] is a UFD and no u_i divides f / u^c),
        and the reduced basis of a principal ideal is its monic generator."""
        if self._gb_contracted is None:
            gens = [f for f in map(self._cleared, self.generators) if f]
            if len(gens) == 1:
                self._gb_contracted = [_primitive_monic(gens[0], self.characteristic)]
            else:
                full = self._full_basis()
                self._gb_contracted = [g for g in full if all(m[-1] == 0 for m in g)]
        return self._gb_contracted

    def _monomial_nf(self, m: Mono) -> PolyDict:
        """NF(u^m) for a tuple m of d nonnegative ints, memoised.  The
        exponents m_F of the variables the basis does not mention factor out:
        NF(u^m) = u^(m_F) NF(u^(m_V)).  A miss with m_F = 0 and an exponent
        of at least p climbs the Frobenius ladder, which stays on V-parts:
        NF(u^(pq + r)) = NF(NF(u^q)^[p] u^r)."""
        nf = self._nf_cache.get(m)
        if nf is None:
            p = self.characteristic
            if self._gb_prepared is None:
                basis = self._contracted_basis()
                self._gb_prepared = _prepared(basis, p)
                self._free = [i for i in range(self.d)
                              if not any(mu[i] for g in basis for mu in g)]
            free = self._free
            if any(m[i] for i in free):
                core = tuple(0 if i in free else e for i, e in enumerate(m))
                shift = tuple(map(sub, m, core)) + (0,)
                nf = {_mono_mul(mu, shift): c for mu, c in self._monomial_nf(core).items()}
            else:
                if max(m, default=0) < p:
                    f = {m + (0,): 1}
                else:
                    f = _dilated(self._monomial_nf(tuple(e // p for e in m)), p,
                                 tuple(e % p for e in m) + (0,))
                nf = _normal_form(f, self._gb_prepared, p)
            self._nf_cache[m] = nf
        return nf

    def _reduced(self, f: LaurentPoly) -> PolyDict:
        """Remainder of the cleared lift of f: the sum of its terms' monomial
        normal forms, already reduced because the basis is."""
        p = self.characteristic
        out: PolyDict = {}
        for m, c in self._cleared(f).items():
            for mu, a in self._monomial_nf(m).items():
                out[mu] = (out.get(mu, 0) + c * a) % p
        return {mu: c for mu, c in out.items() if c}

    def normal_form_monomial(self, exps: Sequence[int]) -> PolyDict:
        """Cached normal form of a nonnegative monomial, for linear algebra.

        A tuple already in the memo is returned at once; any other argument
        is checked once and then computed into the memo."""
        nf = self._nf_cache.get(exps) if type(exps) is tuple else None
        if nf is None:
            exps = tuple(exps)
            key = tuple(int(e) for e in exps)
            if len(key) != self.d or key != exps or min(key, default=0) < 0:
                raise DomainError(
                    "normal_form_monomial needs d nonnegative integer exponents")
            nf = self._monomial_nf(key)
        return nf

    def contains_groebner(self, f: LaurentPoly) -> bool:
        return not self._reduced(f)

    # -- substitution engine -------------------------------------------------

    def _solved(self) -> Optional[Dict[int, LaurentPoly]]:
        """The map the generators solve by elimination, or None.  `_image`
        reads the map as it grows; an entry never changes once added, nor do
        its memoised powers.  One generator needs no image and no unit check:
        its g mentions no solved variable and is nonzero."""
        p = self.characteristic
        self.substitution = subs = {}
        images = pending = [g.terms for g in self.generators if g]
        while any(images):
            solved = [(s, i) for i, s in enumerate(_linear(f, p) for f in images) if s]
            if not solved:
                return None
            (v, g), i = max(solved, key=lambda s: s[0][0])
            subs[v] = LaurentPoly._trusted(self.d, self._dom, g)
            pending = [f for j, (f, image) in enumerate(zip(pending, images)) if image and j != i]
            images = [self._image(f) for f in pending]
        if len(subs) > 1 and not all(self._image(g.terms) for g in subs.values()):
            return None
        return subs or None

    def _hint_power(self, var: int, b: int) -> PolyDict:
        """g_var^b for the reduced hint g_var and b >= 0, memoised.  A miss
        with b >= p climbs the ladder g^(pq + r) = (g^q)^[p] g^r; below p,
        b splits into two halves."""
        key = (var, b)
        g = self._hint_powers.get(key)
        if g is None:
            p = self.characteristic
            if b >= p:
                q, r = divmod(b, p)
                g = _dilated(self._hint_power(var, q), p, (0,) * self.d)
                if r:
                    g = _mul(g, self._hint_power(var, r), p)
            elif b > 1:
                g = _mul(self._hint_power(var, b // 2), self._hint_power(var, b - b // 2), p)
            else:
                g = self.substitution[var].terms if b else {(0,) * self.d: 1}
            self._hint_powers[key] = g
        return g

    def _image(self, work: PolyDict) -> PolyDict:
        """The terms' image under the map: c u^m becomes c u^m' g_v^(m_v - low),
        the highest substituted variable v first (see the module docstring)."""
        p = self.characteristic
        for var in sorted(self.substitution, reverse=True):
            low = min((m[var] for m in work), default=0)
            image: PolyDict = {}
            for m, c in work.items():
                _add_scaled(image, c, m[:var] + (0,) + m[var + 1:],
                            self._hint_power(var, m[var] - low), p)
            work = image
        return work

    def contains_substitution(self, f: LaurentPoly) -> bool:
        """Whether f maps to zero under the substitution map."""
        if self.substitution is None:
            raise EngineUnavailableError("no substitution hint on this presentation")
        return not self._image(f.terms)

    # -- public surface ------------------------------------------------------

    def contains(self, f: LaurentPoly) -> bool:
        """Exact ideal membership of f: by the substitution map if the
        generators solve one, else by the Gröbner basis."""
        self.check_ring(f)
        return self.contains_substitution(f) if self.substitution else self.contains_groebner(f)

    def constant_in_ideal(self) -> bool:
        """True iff 1 lies in the ideal (trivial quotient)."""
        return self.contains(LaurentPoly.one(self.d, self._dom))
