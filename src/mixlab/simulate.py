"""Exact cylinder measures and Monte Carlo sampling for char-p group shifts.

A point of X, the dual of R/I, shows a pattern (x_s) on a window W, and a
pattern is seen on X exactly when it is orthogonal to every relation
sum c_s u^s in I with s in W.  Those relations are the kernel of the matrix
N whose column s is NF(u^(s - lo)), lo the window's lower corner (a unit
shift), so the valid patterns are exactly the row space of N.  A window
space has the reduced echelon basis K with each row's lead at its highest
nonzero site: row f is 1 at site f, 0 at the other leads and 0 above f, and
the valid patterns are the combinations x @ K mod p of the free values x.
Column s of K is column s of N in the basis of the lead columns: a site is
a lead exactly when its column is not a combination of the columns above
it, and every other site combines leads above it.  So K is one call of
`linalg.coordinates` on the columns of N, highest site first.  A column of
N and a site's column of K are packed ints, a w-bit slot per entry (one
bit over F_2), and a column takes one slot add per term to build.  The
dense K, read off the slots, is built only when it is read.

A cylinder or correlation measure needs no window space.  A point of X is
an F_p-linear functional chi on R/I, x_s = chi(u^s), and Haar measure on X
maps onto the uniform measure on the patterns its points show at the pinned
sites, a space dual to the span of their monomials in R/I.  Moving the pins
by their componentwise minimum low is a unit shift, so the measure is
p^-rank of the rows NF(u^(s - low)), or 0 when the pins' symbols mod p are
not a consistent right-hand side for them.  The Frobenius ladder gives each
row in about log_p of its exponent steps, so the value is exact at any
dilation.  The window plays no part in it beyond its dimension, which every
shift and pinned site must share.

The window only sizes an estimate: the sampler draws the free values of the
window's space, so a shifted pin must lie in the window, and a window of
more than `WINDOW_SITE_LIMIT` sites is refused before its sites are listed,
one whose matrix N has more than `WINDOW_ENTRY_LIMIT` entries before it is
reduced.

A uniform sample draws x from a Philox stream and multiplies, exactly for
every p the engine accepts, so every empirical number is reproducible from
its seed.  A sample's free values are read off the stream's 64-bit words as
uint32 halves h, low half first: a half is dropped when h·p mod 2^32 <
2^32 mod p, and the accepted halves fill the free-value matrix row by row,
each entry (h·p) >> 32.  That is NumPy's `Generator.integers(0, p)` on the
same stream (Lemire's bounded integers).  Over odd p an estimate decodes
only the pinned support, the free values whose kernel row is nonzero at
some pin, and multiplies.  Over F_2 it decodes nothing: a free value
(h·2) >> 32 is the sign bit of its half h, a pin reads the XOR of the free
values on its kernel column, and the sign bit of an XOR is the XOR of the
sign bits.  The support's sign bits are packed eight samples to a byte
along the sample axis, so a pin is the XOR of its column's packed bytes,
512 of them for a chunk of 4,096 samples.  Either way an estimate reads
only the rank and the pinned columns of K, and its block i reads the
stream keyed by the exact uint64 pair (seed, i), so its seed lies in
[0, 2^64).
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import prod, sqrt
from functools import reduce
from operator import add, or_, sub
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from . import linalg
from .mixing import BudgetExceededError
from .ring import DomainError
from .systems import AlgebraicSystem, CharPModule, UnsupportedOperationError, box_points

Site = Tuple[int, ...]


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 arrays with entries in [0, p), as int64, exactly.

    A sum of k products is at most k (p - 1)^2.  The inner dimension is
    summed in slices of the largest k for which that, plus a residue below
    p, stays below 2^53, in float64: every partial sum is then an integer
    float64 holds exactly, so BLAS computes the slice exactly in any order.
    Where (p - 1)^2 alone passes 2^53 (p above about 9.49e7) the slices are
    summed in int64, below 2^63.  For small p the whole dimension is one
    slice.
    """
    square = max((p - 1) ** 2, 1)
    step, dtype = ((1 << 53) - p) // square, np.float64
    if not step:
        step, dtype = ((1 << 63) - p) // square, np.int64
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    out = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for i in range(0, a.shape[-1], step):
        out += (a[..., i:i + step] @ b[i:i + step]).astype(np.int64, copy=False)
        # x - p (x // p) is x mod p for x >= 0; NumPy divides int64 by a
        # scalar faster than it takes the remainder.
        out -= p * (out // p)
    return out


# Rows drawn at a time.  A block holds one chunk's words at a time, not the
# whole block's.
_ROWS = 4096


def _halves(bitgen: np.random.Philox, p: int, count: int, k: int) -> Iterator[np.ndarray]:
    """The uint32 halves that `Generator(bitgen).integers(0, p, size=(count, k))`
    decodes, as `(rows, k)` arrays of `_ROWS` rows at a time (one empty chunk
    when count is 0).

    The halves of the raw words are taken in order and each one that the
    bounded map would reject is dropped (none for p = 2, only 0 for p = 3).
    Each chunk draws the words it is short of from the same generator, and
    the halves it leaves over begin the next chunk.
    """
    threshold = (1 << 32) % p
    halves = np.empty(0, dtype=np.uint32)
    for start in range(0, count or 1, _ROWS):
        rows = min(_ROWS, count - start)
        need = rows * k
        while len(halves) < need:
            words = bitgen.random_raw((need - len(halves) + 1) // 2)
            # Little-endian halves: the low half of each word comes first.
            drawn = words.astype("<u8", copy=False).view("<u4")
            if threshold:
                keep = drawn * np.uint32(p) >= threshold
                if not keep.all():
                    drawn = drawn[keep]
            halves = np.concatenate((halves, drawn)) if len(halves) else drawn
        yield halves[:need].reshape(rows, k)
        halves = halves[need:]


def _decode(halves: np.ndarray, p: int) -> np.ndarray:
    """The free values (h·p) >> 32 of accepted halves h, as int64."""
    values = halves.astype(np.int64)
    values *= p
    values >>= 32
    return values


class WindowError(ValueError):
    """Pins fall outside the window, or the window does not fit the system."""


class CylinderSet:
    """Finitely many pinned coordinates: site -> symbol in F_p."""

    __slots__ = ("pins",)

    def __init__(self, pins: Tuple[Tuple[Site, int], ...]):
        self.pins = pins

    @staticmethod
    def make(pins: Dict[Site, int]) -> "CylinderSet":
        if not pins:
            raise DomainError("a cylinder set pins at least one coordinate")
        return CylinderSet(tuple(sorted((tuple(s), int(v)) for s, v in pins.items())))


def _require_charp(system: AlgebraicSystem) -> CharPModule:
    if not isinstance(system.module, CharPModule):
        raise UnsupportedOperationError(
            "measure-level simulation is only available in characteristic p"
        )
    return system.module


def _bounds(ideal, window: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """The window as int bounds, one pair per variable of the ideal."""
    bounds = tuple((int(lo), int(hi)) for lo, hi in window)
    if len(bounds) != ideal.d:
        raise WindowError("window dimension does not match the system")
    return bounds


def _shifted_pins(
    ideal, window: Sequence[Tuple[int, int]], sets: Sequence[CylinderSet],
    shifts: Sequence[Site],
) -> List[Tuple[Site, int]]:
    """The pins of every set moved by its shift.  The window, each shift and
    each pinned site must have one coordinate per variable of the ideal."""
    _bounds(ideal, window)
    d = ideal.d
    if len(sets) != len(shifts):
        raise DomainError("need one shift per set")
    pins: List[Tuple[Site, int]] = []
    for cyl, gamma in zip(sets, shifts):
        gamma = tuple(int(x) for x in gamma)
        if len(gamma) != d:
            raise DomainError(f"shift {list(gamma)} does not match the window dimension")
        for site, v in cyl.pins:
            if len(site) != d:
                raise DomainError(f"pinned site {site} does not match the window dimension")
            pins.append((tuple(map(add, site, gamma)), v))
    return pins


def _normal_forms(ideal, shape: Sequence[int]) -> List[int]:
    """NF(u^e) for every e in the box [0, shape), in lexicographic order, as
    packed ints, slot b the b-th monomial met.  Each comes from a neighbour
    r = NF(u^(e - e_i)) by the linear map `_reduced` applies: NF(u_i r) is
    the sum of c_mu NF(u^(mu + e_i)) over the terms of r.  A term is one XOR
    over F_2, and over odd p one slot add of NF(u^(mu + e_i)) or, where c_mu
    is not 1, of its multiple, kept once made."""
    p = ideal.characteristic
    w = linalg.width(p)
    d, top = len(shape), (1 << w) - 1
    rows: Dict[Tuple[int, ...], int] = {}
    monomials: List[Tuple[int, ...]] = []
    slot_add = linalg.adder(p, 0)

    def form(e):
        nonlocal slot_add
        col = linalg.pack(ideal.normal_form_monomial(e).items(), p, rows)
        if len(rows) > len(monomials):
            monomials.extend(list(rows)[len(monomials):])
            slot_add = linalg.adder(p, len(rows))
        return col

    out: Dict[Tuple[int, ...], int] = {}
    # i -> {b: NF(u^(mu + e_i))} over F_2, {b: {c: c NF(u^(mu + e_i))}} over
    # odd p, mu the monomial at bit b, less the saturation slot a key ends in.
    steps: List[dict] = [{} for _ in range(d)]
    for e in box_points([(0, n - 1) for n in shape]):
        moved = [i for i in range(d) if e[i]]
        if not moved:
            out[e] = form(e)
            continue
        i = moved[-1]
        r = out[e[:i] + (e[i] - 1,) + e[i + 1:]]
        step_i = steps[i]
        col = 0
        if p == 2:
            while r:
                low = r & -r
                r ^= low
                b = low.bit_length() - 1
                step = step_i.get(b)
                if step is None:
                    mu = monomials[b]
                    step = step_i[b] = form(mu[:i] + (mu[i] + 1,) + mu[i + 1:d])
                col ^= step
        else:
            while r:
                b = (r & -r).bit_length() - 1
                b -= b % w
                c = r >> b & top
                r ^= c << b
                multiples = step_i.get(b)
                if multiples is None:
                    mu = monomials[b // w]
                    multiples = step_i[b] = {1: form(mu[:i] + (mu[i] + 1,) + mu[i + 1:d])}
                term = multiples.get(c)
                if term is None:
                    term = multiples[c] = linalg.multiple(slot_add, multiples[1], c)
                col = slot_add(col, term)
        out[e] = col
    return list(out.values())


def _unpack_coordinates(coords: Sequence[int], k: int, p: int) -> np.ndarray:
    """Packed coordinates from `linalg.coordinates` over k pivots as the
    int64 columns of a `(k, len(coords))` array, pivot g in row k - 1 - g."""
    w = linalg.width(p)
    size = (k * w + 7) // 8
    raw = np.frombuffer(b"".join(t.to_bytes(size, "little") for t in coords), dtype=np.uint8)
    planes = np.unpackbits(raw.reshape(len(coords), size), axis=1, count=k * w,
                           bitorder="little").reshape(len(coords), k, w)[:, ::-1].T
    low = np.ascontiguousarray(planes[0], dtype=np.int64)
    return sum((np.ascontiguousarray(planes[i], dtype=np.int64) << i for i in range(1, w)), low)


# The most sites a window space lists.  It keeps every site, and each
# site's column of the kernel, with one entry per free value (2 side - 1 of
# them for `ledrappier`).  Builds measured on one core of a 2-core Xeon
# container, peak memory of the whole process: at 2^14 sites (side 128)
# 0.16 s and 37 MB for `ledrappier` (0.20 s and 74 MB with the dense kernel
# read), and 0.75 s and 39 MB for `tests/f3_substitution.json`, whose
# columns hold 3-bit slots.  The windows sampled in CI (side 40, 1,600
# sites, and side 128) and in the benchmark (side 20, 400 sites) lie inside.
WINDOW_SITE_LIMIT = 1 << 14

# The most entries, rows times sites, of the matrix N a window space reduces.
# Its rows are the distinct normal-form monomials, which bound the kernel's
# rank, so this bounds the dense kernel too: 8 bytes an entry when it is
# read.  Where the basis leaves variables free the rows grow with the window.
# Builds measured as above, over F_2 with packed columns: `split_ledrappier`
# (d = 4) at side 10, 1,900 rows over 10,000 sites (1.9e7 entries), 0.07 s
# and 40 MB (0.19 s and 210 MB with the dense kernel); the full shift at
# side 76, one row per site (3.3e7), 0.07 s and 45 MB (0.36 s and 340 MB),
# and at side 90 (6.6e7, past the limit) 0.12 s and 55 MB (0.71 s and
# 630 MB).  `split_ledrappier` at side 11 (2,541 rows over 14,641 sites,
# 3.7e7) is refused; every window the site limit admits for `ledrappier`
# (255 rows at side 128) builds.
WINDOW_ENTRY_LIMIT = 1 << 25


class WindowConfigSpace:
    """The patterns a system's points show on a finite window, as a basis."""

    def __init__(self, system: AlgebraicSystem, window: Sequence[Tuple[int, int]]):
        ideal = _require_charp(system).ideal
        self.p = ideal.characteristic
        self.window = _bounds(ideal, window)
        nsites = prod(max(hi - lo + 1, 0) for lo, hi in self.window)
        if nsites > WINDOW_SITE_LIMIT:
            raise BudgetExceededError(
                f"a window of {nsites} sites exceeds the site limit",
                {"window": [list(w) for w in self.window], "sites": nsites,
                 "site_limit": WINDOW_SITE_LIMIT})
        self.sites = list(box_points(self.window))
        self.site_index = {s: i for i, s in enumerate(self.sites)}
        columns = _normal_forms(ideal, [hi - lo + 1 for lo, hi in self.window])
        union = reduce(or_, columns, 0)
        nrows = int(np.count_nonzero(_unpack_coordinates([union], union.bit_length(), self.p)))
        if nrows * nsites > WINDOW_ENTRY_LIMIT:
            raise BudgetExceededError(
                f"a window space of {nrows} rows over {nsites} sites exceeds the entry limit",
                {"window": [list(w) for w in self.window], "rows": nrows, "sites": nsites,
                 "entry_limit": WINDOW_ENTRY_LIMIT})
        # Highest site first, so a site is a lead exactly when its column is
        # not a combination of the columns above it.
        coords, pivots = linalg.coordinates(columns[::-1], self.p)
        self._coordinates, self.rank = coords[::-1], len(pivots)
        self._kernel = None

    @property
    def kernel(self) -> np.ndarray:
        """K as a dense int64 `(rank, sites)` array, built on first read."""
        if self._kernel is None:
            self._kernel = _unpack_coordinates(self._coordinates, self.rank, self.p)
        return self._kernel

    def columns(self, indices: Sequence[int]) -> np.ndarray:
        """The columns of K at the given site indices, as a `(rank,
        len(indices))` int64 array, without building K."""
        if self._kernel is None:
            return _unpack_coordinates([self._coordinates[j] for j in indices], self.rank, self.p)
        return self._kernel[:, indices]

    def sample_uniform(self, count: int, seed: int) -> np.ndarray:
        """Uniform samples of valid configurations; Philox keyed by the seed."""
        chunks = _halves(np.random.Philox(seed), self.p, count, self.rank)
        return np.concatenate([matmul_mod(_decode(h, self.p), self.kernel, self.p)
                               for h in chunks])

    def grid_text(self, config: np.ndarray) -> str:
        """A sample as a text grid (2D windows row per second coordinate)."""
        if len(self.window) != 2:
            return " ".join(str(int(x)) for x in config)
        (x0, x1), (y0, y1) = self.window
        lines = []
        for y in range(y1, y0 - 1, -1):
            lines.append(
                "".join(str(int(config[self.site_index[(x, y)]])) for x in range(x0, x1 + 1))
            )
        return "\n".join(lines)


def _measure(ideal, pins: Sequence[Tuple[Site, int]]) -> Fraction:
    """p^-rank of the pinned sites' normal-form rows, or 0 if the pins
    contradict.  The rows are NF(u^(s - low)), low the pins' componentwise
    minimum, and pin (s, v) reads chi(NF(u^(s - low))) = v."""
    if not pins:
        return Fraction(1)
    p = ideal.characteristic
    low = [min(axis) for axis in zip(*(site for site, _ in pins))]
    # Column mu holds the coefficient of mu in each pin's row, and the last
    # column is the pins' symbols: they contradict exactly when it is a pivot.
    columns: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for i, (site, _) in enumerate(pins):
        for mu, c in ideal.normal_form_monomial(tuple(map(sub, site, low))).items():
            columns.setdefault(mu, {})[i] = c
    _, pivots = linalg.rref([*columns.values(), {i: v for i, (_, v) in enumerate(pins)}], p)
    if pivots and pivots[-1] == len(columns):
        return Fraction(0)
    return Fraction(1, p ** len(pivots))


class MeasureResult:
    __slots__ = ("value", "stable")

    def __init__(self, value: Fraction, stable: bool):
        self.value = value
        self.stable = stable  # always: the value is exact, whatever the window


def cylinder_measure(
    system: AlgebraicSystem,
    cylinder: CylinderSet,
    window: Sequence[Tuple[int, int]],
) -> MeasureResult:
    """Exact Haar measure of a cylinder set, wherever its pins lie."""
    ideal = _require_charp(system).ideal
    value = _measure(ideal, _shifted_pins(ideal, window, [cylinder], [[0] * ideal.d]))
    return MeasureResult(value=value, stable=True)


def correlation_exact(
    system: AlgebraicSystem,
    sets: Sequence[CylinderSet],
    shifts: Sequence[Site],
    window: Sequence[Tuple[int, int]],
) -> Fraction:
    """Measure of the intersection of the shifted cylinder sets, by rank counting.

    Contradictory pins at a site give measure zero (an inconsistent affine
    system), which is a value, not an error.
    """
    ideal = _require_charp(system).ideal
    return _measure(ideal, _shifted_pins(ideal, window, sets, shifts))


class EstimateResult:
    __slots__ = ("estimate", "stderr", "samples", "seed")

    def __init__(self, estimate: float, stderr: float, samples: int, seed: int):
        self.estimate, self.stderr, self.samples, self.seed = estimate, stderr, samples, seed

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.estimate, self.stderr, self.samples, self.seed)
                    == (other.estimate, other.stderr, other.samples, other.seed))
        return NotImplemented

    def within_sigma(self, reference: Fraction, sigma: float = 4.0) -> bool:
        band = max(self.stderr, 1e-12) * sigma
        return abs(self.estimate - float(reference)) <= band


_BLOCK = 20_000


def _hit_counter(
    pin_cols: np.ndarray, pin_vals: Sequence[int], p: int
) -> Callable[[np.ndarray], int]:
    """A function counting the samples in a `(rows, k)` chunk of accepted
    halves that show symbol pin_vals[j] at every pin j, where column j of
    pin_cols is pin j's kernel column."""
    support = np.flatnonzero(pin_cols.any(axis=1))
    support_cols = pin_cols[support]
    if p == 2:
        # A free value is (h·2) >> 32, the sign bit of its half h, and a pin
        # reads the XOR of the free values on its kernel column: the XOR of
        # their sign bits.  The sign bits of the support are packed eight
        # samples to a byte along the sample axis, so a pin is the XOR of its
        # columns' bytes.  A symbol 1 flips every bit, and a sample hits every
        # pin exactly when its bit of the OR over the pins is 0.
        parities = [(np.flatnonzero(column), np.uint8(0xFF * value))
                    for column, value in zip(support_cols.T, pin_vals)]
        top = np.uint32(1 << 31)

        def hits(halves: np.ndarray) -> int:
            signs = np.packbits(halves[:, support] >= top, axis=0)
            missed = np.zeros(len(signs), dtype=np.uint8)
            for rows, flip in parities:
                missed |= np.bitwise_xor.reduce(signs[:, rows], axis=1) ^ flip
            # The last byte is padded with 0 bits past the chunk's samples.
            return len(halves) - int(np.count_nonzero(np.unpackbits(missed, count=len(halves))))
        return hits

    def hits(halves: np.ndarray) -> int:
        pinned = matmul_mod(_decode(halves[:, support], p), support_cols, p)
        hit = np.ones(len(pinned), dtype=bool)
        for column, value in zip(pinned.T, pin_vals):
            hit &= column == value
        return int(np.count_nonzero(hit))
    return hits


def correlation_estimate(
    system: AlgebraicSystem,
    sets: Sequence[CylinderSet],
    shifts: Sequence[Site],
    window: Sequence[Tuple[int, int]],
    samples: int,
    seed: int,
    threads: int = 1,
) -> EstimateResult:
    """Empirical frequency of the intersection with binomial standard error.

    Sampling is split into fixed-size blocks with per-block derived Philox
    keys, so the result is identical for any thread count.  No more workers
    run than there are blocks or processors.  The sampler draws the free
    values of the window's space, so every shifted pin must lie in the
    window.
    """
    if samples < 1:
        raise DomainError("an estimate needs at least one sample")
    if not 0 <= seed < 1 << 64:
        raise DomainError(f"seed {seed} lies outside [0, 2^64)")
    if threads < 1:
        raise DomainError(f"an estimate needs at least one thread, not {threads}")
    pins = _shifted_pins(_require_charp(system).ideal, window, sets, shifts)
    space = WindowConfigSpace(system, window)
    columns = []
    for site, _ in pins:
        if site not in space.site_index:
            raise WindowError(f"shifted pin {site} outside the window; enlarge it")
        columns.append(space.site_index[site])
    blocks = [
        (i, min(_BLOCK, samples - i * _BLOCK))
        for i in range((samples + _BLOCK - 1) // _BLOCK)
    ]
    p, k = space.p, space.rank
    hits = _hit_counter(space.columns(columns), [v % p for _, v in pins], p)

    def run_block(block):
        index, size = block
        bitgen = np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
        return sum(hits(halves) for halves in _halves(bitgen, p, size, k))

    workers = min(threads, len(blocks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            hit_counts = list(pool.map(run_block, blocks))
    else:
        hit_counts = [run_block(b) for b in blocks]
    phat = sum(hit_counts) / samples
    stderr = sqrt(phat * (1.0 - phat) / samples)
    return EstimateResult(estimate=phat, stderr=stderr, samples=samples, seed=seed)
