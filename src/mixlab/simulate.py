"""Exact cylinder measures and Monte Carlo sampling for char-p group shifts.

Configurations on a finite window satisfy one F_p linear constraint per
fully-contained translate of each ideal generator (free boundary).  Each
constraint is a sparse row over the window's sites, and the rows of one
generator already come in echelon form (each translate has its own lowest
site), so a window space finds its kernel basis K by back-substitution
alone (see `linalg`).  Row f of K is the valid configuration that is 1 at
free site f and 0 at the other free sites, so the valid configurations are
exactly the combinations x @ K mod p of the free values x.  A cylinder or
correlation measure is then p^-rank of the pinned columns of K (0 if the
pins are inconsistent), and a uniform sample draws x with a counter-based
generator and multiplies, exactly for every p the engine accepts, so every
empirical number is reproducible from its seed.

A loaded ideal keeps the window spaces built for it, one per window
(`window_space`): a correlation, its cylinder measures and their estimate
share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import sqrt
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .ring import DomainError
from .systems import AlgebraicSystem, CharPModule, UnsupportedOperationError

Site = Tuple[int, ...]


class WindowError(ValueError):
    """Pins or generator supports fall outside the window."""


@dataclass(frozen=True)
class CylinderSet:
    """Finitely many pinned coordinates: site -> symbol in F_p."""

    pins: Tuple[Tuple[Site, int], ...]

    @staticmethod
    def make(pins: Dict[Site, int]) -> "CylinderSet":
        if not pins:
            raise DomainError("a cylinder set pins at least one coordinate")
        return CylinderSet(tuple(sorted((tuple(s), int(v)) for s, v in pins.items())))

    def shifted(self, gamma: Site) -> List[Tuple[Site, int]]:
        return [(tuple(a + g for a, g in zip(site, gamma)), v) for site, v in self.pins]


def _window_sites(window: Sequence[Tuple[int, int]]) -> List[Site]:
    return [tuple(s) for s in product(*[range(lo, hi + 1) for lo, hi in window])]


def _require_charp(system: AlgebraicSystem) -> CharPModule:
    if not isinstance(system.module, CharPModule):
        raise UnsupportedOperationError(
            "measure-level simulation is only available in characteristic p"
        )
    return system.module


class WindowConfigSpace:
    """The F_p constraint system of a system restricted to a finite window."""

    def __init__(self, system: AlgebraicSystem, window: Sequence[Tuple[int, int]]):
        module = _require_charp(system)
        ideal = module.ideal
        self.p = ideal.characteristic
        self.window = tuple((int(lo), int(hi)) for lo, hi in window)
        if len(self.window) != ideal.d:
            raise WindowError("window dimension does not match the system")
        self.sites = _window_sites(self.window)
        self.site_index = {s: i for i, s in enumerate(self.sites)}
        rows: List[Dict[int, int]] = []
        for g in ideal.generators:
            support = []
            for m, c in g.terms.items():
                offs = []
                for e in m:
                    if e.denominator != 1:
                        raise DomainError("generator has fractional exponents")
                    offs.append(int(e))
                support.append((tuple(offs), int(c)))
            if not support:
                continue
            lo_off = [min(o[i] for o, _ in support) for i in range(ideal.d)]
            hi_off = [max(o[i] for o, _ in support) for i in range(ideal.d)]
            shift_ranges = [
                range(w[0] - lo, w[1] - hi + 1)
                for w, lo, hi in zip(self.window, lo_off, hi_off)
            ]
            for shift in product(*shift_ranges):
                rows.append({
                    self.site_index[tuple(a + b for a, b in zip(shift, off))]: c % self.p
                    for off, c in support
                })
        self.rows = rows
        nsites = len(self.sites)
        kernel = linalg.nullspace(rows, nsites, self.p)
        self.kernel = np.array(kernel, dtype=np.int64).reshape(len(kernel), nsites)
        self.rank = nsites - len(kernel)

    @property
    def solution_dimension(self) -> int:
        return len(self.sites) - self.rank

    def configuration_count(self) -> int:
        return self.p ** self.solution_dimension

    def sample_uniform(self, count: int, seed: int) -> np.ndarray:
        """Uniform samples of valid configurations; Philox keyed by the seed."""
        rng = np.random.Generator(np.random.Philox(seed))
        free = rng.integers(0, self.p, size=(count, len(self.kernel)))
        return linalg.matmul_mod(free, self.kernel, self.p)

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


def window_space(system: AlgebraicSystem, window: Sequence[Tuple[int, int]]) -> WindowConfigSpace:
    """The window space of the system's ideal, built once per window."""
    spaces = _require_charp(system).ideal.window_spaces
    key = tuple((int(lo), int(hi)) for lo, hi in window)
    if key not in spaces:
        spaces[key] = WindowConfigSpace(system, key)
    return spaces[key]


def _measure_given_pins(
    space: WindowConfigSpace, pins: Sequence[Tuple[Site, int]]
) -> Fraction:
    """p^-rank of the pinned kernel columns, or 0 if the pins contradict."""
    p = space.p
    for site, _ in pins:
        if site not in space.site_index:
            raise WindowError(f"pinned site {site} lies outside the window")
    if not pins:
        return Fraction(1)
    # Pin (site, value) reads free values x with x @ K[:, site] = value.
    aug = [
        space.kernel[:, space.site_index[site]].tolist() + [value % p]
        for site, value in pins
    ]
    consistent, rank = linalg.affine_consistent_rank(aug, p)
    if not consistent:
        return Fraction(0)
    return Fraction(1, p ** rank)


@dataclass
class MeasureResult:
    value: Fraction
    grown_value: Fraction
    stable: bool
    window: Tuple[Tuple[int, int], ...]


def _grow(window, by=2):
    return tuple((lo, hi + by) for lo, hi in window)


def cylinder_measure(
    system: AlgebraicSystem,
    cylinder: CylinderSet,
    window: Sequence[Tuple[int, int]],
) -> MeasureResult:
    """Exact Haar measure of a cylinder set, with a stabilization self-check.

    The value is recomputed on a window grown by 2 per axis; disagreement is
    flagged rather than hidden (free boundaries are a truncation we own).
    """
    pins = list(cylinder.pins)
    space = window_space(system, window)
    value = _measure_given_pins(space, pins)
    grown = window_space(system, _grow(window))
    grown_value = _measure_given_pins(grown, pins)
    return MeasureResult(
        value=value,
        grown_value=grown_value,
        stable=(value == grown_value),
        window=tuple(tuple(w) for w in window),
    )


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
    if len(sets) != len(shifts):
        raise DomainError("need one shift per set")
    space = window_space(system, window)
    pins: List[Tuple[Site, int]] = []
    for cyl, gamma in zip(sets, shifts):
        for site, v in cyl.shifted(tuple(int(x) for x in gamma)):
            if site not in space.site_index:
                raise WindowError(f"shifted pin {site} outside the window; enlarge it")
            pins.append((site, v))
    return _measure_given_pins(space, pins)


@dataclass
class EstimateResult:
    estimate: float
    stderr: float
    samples: int
    seed: int
    exact: Optional[Fraction] = None

    def within_sigma(self, reference: Fraction, sigma: float = 4.0) -> bool:
        band = max(self.stderr, 1e-12) * sigma
        return abs(self.estimate - float(reference)) <= band


_BLOCK = 20_000


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
    keys, so the result is identical for any thread count.
    """
    space = window_space(system, window)
    pins: List[Tuple[Site, int]] = []
    for cyl, gamma in zip(sets, shifts):
        for site, v in cyl.shifted(tuple(int(x) for x in gamma)):
            if site not in space.site_index:
                raise WindowError(f"shifted pin {site} outside the window; enlarge it")
            pins.append((site, v))
    blocks = [
        (i, min(_BLOCK, samples - i * _BLOCK))
        for i in range((samples + _BLOCK - 1) // _BLOCK)
    ]
    pin_cols = space.kernel[:, [space.site_index[site] for site, _ in pins]]
    pin_vals = np.array([v % space.p for _, v in pins], dtype=np.int64)

    def run_block(block):
        index, size = block
        rng = np.random.Generator(np.random.Philox(key=(seed, index)))
        free = rng.integers(0, space.p, size=(size, len(space.kernel)))
        pinned = linalg.matmul_mod(free, pin_cols, space.p)
        return int(np.count_nonzero((pinned == pin_vals).all(axis=1)))

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            hit_counts = list(pool.map(run_block, blocks))
    else:
        hit_counts = [run_block(b) for b in blocks]
    phat = sum(hit_counts) / samples
    stderr = sqrt(phat * (1.0 - phat) / samples)
    return EstimateResult(estimate=phat, stderr=stderr, samples=samples, seed=seed)
