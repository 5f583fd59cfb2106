"""Window configuration spaces, exact measures, and Monte Carlo estimates."""

import hashlib
import json
import random
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path
from unittest.mock import PropertyMock, patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixlab import cli, linalg, simulate
from mixlab.ideals import IdealPresentation
from mixlab.mixing import BudgetExceededError
from mixlab.presentation import load_system
from mixlab.ring import GF, DomainError, LaurentPoly
from mixlab.simulate import (
    CylinderSet,
    WindowConfigSpace,
    WindowError,
    _decode,
    _halves,
    _hit_counter,
    correlation_estimate,
    correlation_exact,
    cylinder_measure,
    matmul_mod,
)
from mixlab.systems import (
    AlgebraicSystem,
    CharPModule,
    RationalDualModule,
    UnsupportedOperationError,
    box_points,
    free_abelian,
    positive_rationals,
)
from test_linalg import ref_affine_consistent_rank, ref_nullspace

F2 = GF(2)
WINDOW = [(0, 6), (0, 6)]


def p2(text, d=2):
    return LaurentPoly.parse(text, d, F2)


TESTS = Path(__file__).resolve().parent
F3_TWO_GENERATORS = str(TESTS / "f3_two_generators.json")
F3_SUBSTITUTION = str(TESTS / "f3_substitution.json")
LEDRAPPIER = str(TESTS.parent / "presentations" / "ledrappier.json")
# Every characteristic-p presentation, shipped or under tests/, by file name.
CHAR_P_FILES = {
    path.name: str(path)
    for path in sorted([*(TESTS.parent / "presentations").glob("*.json"), *TESTS.glob("*.json")])
    if json.loads(path.read_text())["module"]["type"] == "char_p"
}
# A small window per dimension: negative corners, d = 3 for f3_chained and d = 4
# for split_ledrappier.
SMALL_WINDOWS = {1: [(-3, 8)], 2: [(-2, 3), (-1, 4)], 3: [(-1, 2), (0, 2), (-1, 1)],
                 4: [(0, 1), (-1, 1), (0, 1), (0, 2)]}


def system_over(p, *generators, d=2):
    ideal = IdealPresentation([LaurentPoly.parse(g, d, GF(p)) for g in generators], p, d=d)
    return AlgebraicSystem(free_abelian(d), CharPModule(ideal))


@contextmanager
def space_builds():
    """A mock of `WindowConfigSpace.__init__` that builds as before and
    counts its calls inside the block."""
    with patch.object(WindowConfigSpace, "__init__", autospec=True,
                      side_effect=WindowConfigSpace.__init__) as init:
        yield init


def _measure_given_pins(space, pins):
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
    consistent, rank = ref_affine_consistent_rank(aug, p)
    if not consistent:
        return Fraction(0)
    return Fraction(1, p ** rank)


def ref_hits(halves, pin_cols, pin_vals, p):
    """The samples of a chunk of halves that hit every pin, counted as before
    the F_2 parity reading: decode the pinned support as (h p) >> 32 and
    multiply by its kernel rows mod p."""
    support = np.flatnonzero(pin_cols.any(axis=1))
    free = (halves[:, support].astype(np.int64) * p) >> 32
    pinned = matmul_mod(free, pin_cols[support].astype(np.int64), p)
    hits = np.ones(len(halves), dtype=bool)
    for column, value in zip(pinned.T, pin_vals):
        hits &= column == value % p
    return int(np.count_nonzero(hits))


def translate_rows(system, space):
    """Free-boundary constraint rows: one per translate of a generator that
    fits inside the window.  On a box window they span every relation of a
    principal ideal (Ostrowski), so their kernel is then the valid space;
    with more generators they can miss relations."""
    ideal = system.module.ideal
    rows = []
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
            for w, lo, hi in zip(space.window, lo_off, hi_off)
        ]
        for shift in product(*shift_ranges):
            rows.append({
                space.site_index[tuple(a + b for a, b in zip(shift, off))]: c % space.p
                for off, c in support
            })
    return rows


def constraint_matrix(system, space):
    """The translate rows of a window as a dense matrix."""
    rows = translate_rows(system, space)
    mat = np.zeros((len(rows), len(space.sites)), dtype=np.int64)
    for i, row in enumerate(rows):
        for site, value in row.items():
            mat[i, site] = value
    return mat


@pytest.fixture(scope="module")
def three_dot():
    ideal = IdealPresentation([p2("1 + u1 + u2")], 2)
    return AlgebraicSystem(free_abelian(2), CharPModule(ideal), name="three-dot")


@pytest.fixture(scope="module")
def full_shift():
    ideal = IdealPresentation([], 2, d=2)
    return AlgebraicSystem(free_abelian(2), CharPModule(ideal), name="full-shift")


class TestConfigSpace:
    def test_solution_dimension(self, three_dot):
        space = WindowConfigSpace(three_dot, WINDOW)
        # 49 sites, one constraint per fully contained translate (6x6): rank
        # 36, so 13 free values.
        assert len(space.sites) == 49
        assert len(space.sites) - len(space.kernel) == 36
        assert len(space.kernel) == 13
        # The 2^13 combinations of the kernel rows are distinct configurations.
        free = np.array(list(product(range(2), repeat=13)), dtype=np.int64)
        assert len(np.unique(matmul_mod(free, space.kernel, 2), axis=0)) == 2 ** 13

    def test_full_shift_is_unconstrained(self, full_shift):
        space = WindowConfigSpace(full_shift, [(0, 2), (0, 2)])
        assert len(space.sites) == len(space.kernel) == 9

    def test_samples_satisfy_constraints(self, three_dot):
        space = WindowConfigSpace(three_dot, WINDOW)
        samples = space.sample_uniform(50, seed=11)
        assert ((constraint_matrix(three_dot, space) @ samples.T) % 2 == 0).all()

    def test_sampling_is_deterministic(self, three_dot):
        space = WindowConfigSpace(three_dot, WINDOW)
        a = space.sample_uniform(10, seed=3)
        b = space.sample_uniform(10, seed=3)
        assert (a == b).all()

    def test_kernel_rows_are_valid_configurations(self, three_dot):
        space = WindowConfigSpace(three_dot, WINDOW)
        assert space.kernel.shape == (13, 49)
        assert ((constraint_matrix(three_dot, space) @ space.kernel.T) % 2 == 0).all()

    @pytest.mark.parametrize(
        "p, generators, width",
        [(2, ["1 + u1 + u2"], w) for w in (1, 2, 3, 7, 13, 22)]
        + [(3, ["1 + u1 + u2"], w) for w in (2, 5, 10, 22)]
        # Shifts of the two generators share lowest sites, so their rows
        # must be reduced against each other on the way in.
        + [(3, ["1 + u1 + u2", "1 + 2*u1 + u2 + u1^2 + u1*u2"], w) for w in (3, 6, 11)],
    )
    def test_kernel_matches_reference(self, p, generators, width):
        system = system_over(p, *generators)
        space = WindowConfigSpace(system, [(0, width - 1)] * 2)
        dense = constraint_matrix(system, space).tolist()
        assert space.kernel.tolist() == ref_nullspace(dense, len(space.sites), p)

    @pytest.mark.parametrize(
        "p, generators, window",
        [
            (2, ["1 + u1 + u2"], [(-3, 4), (2, 8)]),
            (2, ["1 + u1 + u1^3"], [(0, 15)]),
            (3, ["1 + u1 + u2 + u3"], [(0, 3)] * 3),
            (3, ["u1^-1 + 1 + u2"], [(-2, 5), (0, 7)]),
            (2, ["1 + u1 + u2", "1 + u1^2 + u2^2"], [(0, 7)] * 2),
            (2, ["1"], [(0, 4)] * 2),
            (2, [], [(0, 4)] * 2),
            (2 ** 31 - 1, ["1 + u1 + u2"], [(0, 5)] * 2),
        ],
    )
    def test_principal_kernels_match_the_translate_rows(self, p, generators, window):
        # Negative windows, d = 1 and 3, a Laurent generator, f with f^2,
        # the unit and the zero ideal, and the largest characteristic.
        system = system_over(p, *generators, d=len(window))
        space = WindowConfigSpace(system, window)
        dense = constraint_matrix(system, space).tolist()
        assert space.kernel.tolist() == ref_nullspace(dense, len(space.sites), p)

    def test_samples_exact_at_the_largest_characteristic(self):
        # nfree * (p - 1)^2 overflows int64 here: sums must still be exact.
        p = 2 ** 31 - 1
        system = system_over(p, "1 + u1 + u2")
        space = WindowConfigSpace(system, [(0, 5), (0, 5)])
        samples = space.sample_uniform(20, seed=1)
        constraints = constraint_matrix(system, space).astype(object)
        assert ((constraints @ samples.astype(object).T) % p == 0).all()

    def test_samples_are_pinned(self, three_dot):
        # Digest of the samples drawn before the kernel-basis sampler; any
        # change to the draws or to the configurations they give fails here.
        space = WindowConfigSpace(three_dot, WINDOW)
        samples = space.sample_uniform(257, seed=7)
        assert samples.dtype == np.int64 and samples.shape == (257, 49)
        digest = hashlib.sha1(samples.tobytes()).hexdigest()
        assert digest == "cd9eb07efde0d993317371673e96ac15aabbd8fc"

    def test_sample_rows_are_pinned(self, three_dot):
        # Rows drawn through Generator.integers before the free values were
        # read off the raw Philox words, over F_2 and over F_3.
        space = WindowConfigSpace(three_dot, [(0, 2), (0, 2)])
        assert space.sample_uniform(4, seed=5).tolist() == [
            [1, 1, 1, 0, 0, 1, 0, 1, 1],
            [0, 1, 0, 1, 1, 1, 0, 0, 1],
            [0, 1, 0, 1, 1, 1, 0, 0, 1],
            [0, 0, 1, 0, 1, 1, 1, 0, 1],
        ]
        space = WindowConfigSpace(load_system(F3_SUBSTITUTION).system, [(0, 2), (0, 2)])
        assert space.sample_uniform(4, seed=5).tolist() == [
            [0, 2, 2, 1, 2, 2, 0, 2, 2],
            [2, 0, 1, 1, 2, 1, 0, 0, 1],
            [1, 1, 0, 1, 2, 1, 0, 0, 1],
            [0, 0, 2, 0, 1, 1, 2, 1, 2],
        ]
        assert space.sample_uniform(0, seed=5).shape == (0, 9)

    def test_grid_text(self, three_dot):
        space = WindowConfigSpace(three_dot, [(0, 2), (0, 2)])
        text = space.grid_text(space.sample_uniform(1, seed=0)[0])
        assert len(text.splitlines()) == 3
        assert set(text) <= {"0", "1", "\n"}

    def test_dimension_mismatch(self, three_dot):
        with pytest.raises(WindowError):
            WindowConfigSpace(three_dot, [(0, 3)])

    def test_charp_only(self):
        system = AlgebraicSystem(positive_rationals([2]), RationalDualModule())
        with pytest.raises(UnsupportedOperationError):
            WindowConfigSpace(system, [(0, 3)])


class TestExactMeasures:
    def test_single_pin_measure(self, three_dot):
        result = cylinder_measure(three_dot, CylinderSet.make({(0, 0): 0}), WINDOW)
        assert result.value == Fraction(1, 2)
        assert result.stable

    def test_two_pin_measure(self, three_dot):
        cyl = CylinderSet.make({(0, 0): 0, (1, 0): 1})
        result = cylinder_measure(three_dot, cyl, WINDOW)
        assert result.value == Fraction(1, 4)

    def test_contradictory_pins_have_measure_zero(self, three_dot):
        # The three-dot relation forces the three corner values to sum to 0.
        cyl = CylinderSet.make({(0, 0): 0, (1, 0): 0, (0, 1): 1})
        result = cylinder_measure(three_dot, cyl, WINDOW)
        assert result.value == 0

    def test_correlation_collapse_at_powers_of_two(self, three_dot):
        cyl = CylinderSet.make({(0, 0): 0})
        exact = correlation_exact(
            three_dot, [cyl] * 3, [(0, 0), (4, 0), (0, 4)], WINDOW
        )
        assert exact == Fraction(1, 4)

    def test_correlation_splits_at_generic_shifts(self, three_dot):
        cyl = CylinderSet.make({(0, 0): 0})
        exact = correlation_exact(
            three_dot, [cyl] * 3, [(0, 0), (3, 0), (0, 3)], WINDOW
        )
        assert exact == Fraction(1, 8)

    def test_correlation_collapse_on_a_large_window(self, three_dot):
        cyl = CylinderSet.make({(0, 0): 0})
        exact = correlation_exact(
            three_dot, [cyl] * 3, [(0, 0), (4, 0), (0, 4)], [(0, 23), (0, 23)]
        )
        assert exact == Fraction(1, 4)

    def test_full_shift_measures_multiply(self, full_shift):
        cyl = CylinderSet.make({(0, 0): 1})
        exact = correlation_exact(
            full_shift, [cyl] * 2, [(0, 0), (2, 2)], [(0, 4), (0, 4)]
        )
        assert exact == Fraction(1, 4)

    def test_shift_outside_window_measured(self, three_dot):
        # An exact measure takes the window's dimension only.
        cyl = CylinderSet.make({(0, 0): 0})
        exact = correlation_exact(three_dot, [cyl] * 3, [(0, 0), (40, 0), (0, 40)], WINDOW)
        assert exact == Fraction(1, 8)

    def test_mismatched_sets_and_shifts(self, three_dot):
        cyl = CylinderSet.make({(0, 0): 0})
        with pytest.raises(DomainError):
            correlation_exact(three_dot, [cyl] * 2, [(0, 0)], WINDOW)

    def test_empty_cylinder_rejected(self):
        with pytest.raises(DomainError):
            CylinderSet.make({})


class TestEstimates:
    def test_estimate_matches_exact(self, three_dot):
        cyl = CylinderSet.make({(0, 0): 0})
        est = correlation_estimate(
            three_dot, [cyl] * 3, [(0, 0), (4, 0), (0, 4)], WINDOW,
            samples=50_000, seed=5,
        )
        assert est.within_sigma(Fraction(1, 4), sigma=4.0)

    @pytest.mark.parametrize(
        "shifts, window, seed, estimate, stderr",
        [
            ([(0, 0), (4, 0), (0, 4)], [(0, 6)] * 2, 0, 0.24719, 0.0013641374707118047),
            ([(0, 0), (3, 0), (0, 3)], [(0, 11)] * 2, 5, 0.12473, 0.001044856100618645),
        ],
    )
    def test_estimates_are_pinned(self, three_dot, shifts, window, seed, estimate, stderr):
        # Figures drawn before the kernel-basis sampler: sampling must not drift.
        cyl = CylinderSet.make({(0, 0): 0})
        est = correlation_estimate(
            three_dot, [cyl] * 3, shifts, window, samples=100_000, seed=seed
        )
        assert (est.estimate, est.stderr) == (estimate, stderr)

    def test_f3_estimate_is_pinned(self):
        cyl = CylinderSet.make({(0, 0): 0})
        est = correlation_estimate(
            load_system(F3_SUBSTITUTION).system, [cyl] * 3, [(0, 0), (3, 0), (0, 3)],
            [(0, 9)] * 2, samples=100_000, seed=7,
        )
        assert (est.estimate, est.stderr) == (0.11113, 0.0009938818999257408)

    def test_no_pins_hit_every_sample(self, three_dot):
        est = correlation_estimate(three_dot, [], [], WINDOW, samples=45_001, seed=3)
        assert (est.estimate, est.stderr) == (1.0, 0.0)

    def test_pin_symbols_are_read_mod_p(self, three_dot):
        # The symbol 2 is 0 in F_2: the estimate must count it as the exact
        # measure does.
        cyl = CylinderSet.make({(0, 0): 2})
        shifts = [(0, 0), (2, 0), (0, 2)]
        exact = correlation_exact(three_dot, [cyl] * 3, shifts, WINDOW)
        est = correlation_estimate(
            three_dot, [cyl] * 3, shifts, WINDOW, samples=20_000, seed=3
        )
        assert exact == Fraction(1, 4)
        assert est.within_sigma(exact, sigma=5.0)

    def test_thread_count_does_not_change_the_estimate(self, three_dot):
        for pins, shifts in (([{(0, 0): 0}], [(0, 0)]),
                             ([{(0, 0): 1}, {(0, 0): 0, (1, 1): 1}], [(0, 0), (2, 0)])):
            sets = [CylinderSet.make(p) for p in pins]
            single, *pooled = (
                correlation_estimate(three_dot, sets, shifts, WINDOW, samples=45_000, seed=9,
                                     threads=threads)
                for threads in (1, 2, 4))
            assert all(single == other for other in pooled)

    @pytest.mark.parametrize("threads, cpus, samples, workers", [
        (8, 64, 45_000, 3),    # capped by the three blocks
        (8, 2, 45_000, 2),     # capped by the processors
        (10 ** 6, 64, 60_000, 3),
        (10 ** 6, 64, 20_000, None),  # one block runs on the calling thread
        (3, None, 60_000, None),      # an unknown processor count counts as one
    ])
    def test_workers_are_capped(self, three_dot, threads, cpus, samples, workers):
        started = []

        def executor(max_workers):
            started.append(max_workers)
            return ThreadPoolExecutor(max_workers=max_workers)

        cyl = CylinderSet.make({(0, 0): 0})
        with patch("concurrent.futures.ThreadPoolExecutor", executor), \
                patch.object(simulate.os, "cpu_count", lambda: cpus):
            pooled = correlation_estimate(three_dot, [cyl], [(0, 0)], WINDOW,
                                          samples=samples, seed=2, threads=threads)
        single = correlation_estimate(three_dot, [cyl], [(0, 0)], WINDOW,
                                      samples=samples, seed=2)
        assert started == ([] if workers is None else [workers])
        assert pooled == single

    @pytest.mark.parametrize("threads", [0, -1])
    def test_fewer_than_one_thread_refused(self, three_dot, threads):
        cyl = CylinderSet.make({(0, 0): 0})
        with pytest.raises(DomainError, match="at least one thread"):
            correlation_estimate(three_dot, [cyl], [(0, 0)], WINDOW, samples=10, seed=0,
                                 threads=threads)

    def test_seed_changes_the_sample(self, three_dot):
        cyl = CylinderSet.make({(0, 0): 0})
        a = correlation_estimate(three_dot, [cyl], [(0, 0)], WINDOW, samples=10_000, seed=1)
        b = correlation_estimate(three_dot, [cyl], [(0, 0)], WINDOW, samples=10_000, seed=2)
        assert a.estimate != b.estimate


class TestFreeValues:
    """The free values are Generator.integers(0, p) on the block's Philox
    stream, read off the raw words, and an estimate's hit count is the one
    the decoded free values give."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_generator_integers(self, data):
        # 1431655777 rejects about a third of the halves, so the draw is
        # topped up; an odd n * k leaves the last word's high half unread;
        # the rows come in chunks of any size.
        p = data.draw(st.sampled_from([2, 3, 5, 7, 65537, 1431655777, 2 ** 31 - 1]))
        n = 2 * data.draw(st.integers(0, 150)) + 1
        k = 2 * data.draw(st.integers(0, 20)) + 1
        columns = np.array(sorted(data.draw(st.sets(st.integers(0, k - 1)))), dtype=np.intp)
        rows = data.draw(st.integers(1, 400))
        key = np.array([data.draw(st.integers(0, 2 ** 64 - 1)) for _ in range(2)],
                       dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).integers(0, p, size=(n, k))
        with patch.object(simulate, "_ROWS", rows):
            chunks = [_decode(h[:, columns], p)
                      for h in _halves(np.random.Philox(key=key), p, n, k)]
        assert [len(c) for c in chunks] == [len(expected[i:i + rows]) for i in range(0, n, rows)]
        assert all(c.dtype == np.int64 for c in chunks)
        assert np.concatenate(chunks).tolist() == expected[:, columns].tolist()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_f2_parity_count_matches_the_decoded_product(self, data):
        # Random 0/1 kernels, symbols 0 and 1, repeated pins (a repeated
        # site has a repeated kernel column), a pin on an all-zero column,
        # no pins at all, and odd row counts in chunks of any size.
        k = data.draw(st.integers(0, 12))
        m = data.draw(st.integers(0, 5))
        seed = data.draw(st.integers(0, 2 ** 32))
        pin_cols = np.random.default_rng(seed).integers(0, 2, (k, m))
        if m and data.draw(st.booleans()):
            pin_cols[:, data.draw(st.integers(0, m - 1))] = 0
        if m > 1 and data.draw(st.booleans()):
            pin_cols[:, 1] = pin_cols[:, 0]
        pin_vals = [data.draw(st.integers(0, 1)) for _ in range(m)]
        n = 2 * data.draw(st.integers(0, 300)) + 1
        rows = data.draw(st.integers(1, 400))
        parity = _hit_counter(pin_cols, pin_vals, 2)
        with patch.object(simulate, "_ROWS", rows):
            chunks = list(_halves(np.random.Philox(seed), 2, n, k))
        assert sum(map(parity, chunks)) == sum(ref_hits(h, pin_cols, pin_vals, 2)
                                               for h in chunks)

    @pytest.mark.parametrize("rows", [0, 1, 7, 9, 4095, 4096])
    def test_f2_hits_on_packed_sign_columns(self, rows):
        # Real kernel columns (ledrappier at window 20, k = 39) and a zero
        # column, over chunks that fill no byte, part of one, and a whole
        # 512-byte column; then the same chunk with no pins at all.
        system = load_system(LEDRAPPIER).system
        space = WindowConfigSpace(system, [(0, 19)] * 2)
        sites = [space.site_index[s] for s in [(0, 0), (8, 0), (0, 8), (19, 19)]]
        pin_cols = np.column_stack([space.columns(sites), np.zeros(space.rank, dtype=np.int64)])
        (halves,) = _halves(np.random.Philox(rows), 2, rows, space.rank)
        for pin_vals in ([0, 0, 0, 1, 0], [1, 0, 1, 1, 0], [0, 1, 0, 0, 1]):
            expected = ref_hits(halves, pin_cols, pin_vals, 2)
            assert _hit_counter(pin_cols, pin_vals, 2)(halves) == expected
        assert expected == 0
        no_pins = pin_cols[:, :0]
        assert _hit_counter(no_pins, [], 2)(halves) == ref_hits(halves, no_pins, [], 2) == rows


class TestSeeds:
    """Block i of an estimate is keyed by the exact pair (seed, i)."""

    CYL = CylinderSet.make({(0, 0): 0})
    SHIFTS = [(0, 0), (4, 0), (0, 4)]

    def estimate(self, system, seed):
        est = correlation_estimate(system, [self.CYL] * 3, self.SHIFTS, WINDOW,
                                   samples=20_000, seed=seed)
        return est.estimate, est.stderr

    @pytest.mark.parametrize(
        "seed, estimate, stderr",
        [
            (2 ** 63 - 1, 0.2499, 0.0030614538213077787),
            (2 ** 63, 0.2467, 0.0030482709033155175),
        ],
    )
    def test_seeds_up_to_two_to_the_63_keep_their_streams(self, three_dot, seed, estimate,
                                                            stderr):
        # Pinned before the key became an exact uint64 pair; 2^63 is exact
        # in float64, so it kept its stream too.
        assert self.estimate(three_dot, seed) == (estimate, stderr)

    @pytest.mark.parametrize("a, b", [(2 ** 64 - 1, 0), (2 ** 63 + 1, 2 ** 63),
                                      (2 ** 64 - 1, 2 ** 64 - 2)])
    def test_large_seeds_have_their_own_streams(self, three_dot, a, b):
        # Through float64 each pair here shared one stream.
        assert self.estimate(three_dot, a) != self.estimate(three_dot, b)

    @pytest.mark.parametrize("seed", [2 ** 64, -1, -(2 ** 64)])
    def test_seed_outside_the_range_refused(self, three_dot, seed):
        with pytest.raises(DomainError, match=r"outside \[0, 2\^64\)"):
            correlation_estimate(three_dot, [self.CYL], [(0, 0)], WINDOW, samples=10,
                                 seed=seed)

    def test_simulate_refuses_the_seed(self, capsys):
        code = cli.main(["simulate", LEDRAPPIER, "--sets", '[{"0,0":0}]', "--shifts",
                         "[[0,0]]", "--samples", "10", "--seed", str(2 ** 64)])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error: seed 18446744073709551616 lies outside [0, 2^64)\n"


class TestWindowsFromNormalForms:
    """The valid patterns on a window are the row space of its normal-form
    matrix, relations the generator translates miss included."""

    PINS = CylinderSet.make({(0, 5): 0, (2, 5): 1})

    def test_relation_missed_by_the_translates(self):
        # u1^2 u2^5 - u2^5 lies in the ideal, so x_(2,5) = x_(0,5) on X and
        # the cylinder is empty; the translate rows alone give it 1/9.
        system = load_system(F3_TWO_GENERATORS).system
        window = [(0, 5)] * 2
        assert system.module.ideal.contains(LaurentPoly.parse("u1^2*u2^5 - u2^5", 2, GF(3)))
        assert correlation_exact(system, [self.PINS], [(0, 0)], window) == 0
        assert cylinder_measure(system, self.PINS, window).value == 0
        est = correlation_estimate(system, [self.PINS], [(0, 0)], window,
                                   samples=20_000, seed=0)
        assert (est.estimate, est.stderr) == (0.0, 0.0)
        space = WindowConfigSpace(system, window)
        translates = ref_nullspace(constraint_matrix(system, space).tolist(),
                                   len(space.sites), 3)
        assert len(translates) > len(space.kernel)

    def test_one_window_space_per_window(self):
        # Exact measures build none; each estimate builds its window's one.
        system = system_over(2, "1 + u1 + u2")
        cyl = CylinderSet.make({(0, 0): 0})
        with space_builds() as init:
            correlation_exact(system, [cyl] * 3, [(0, 0), (4, 0), (0, 4)], WINDOW)
            assert cylinder_measure(system, cyl, WINDOW).stable
            assert init.call_count == 0
            correlation_estimate(system, [cyl], [(0, 0)], WINDOW, samples=100, seed=0)
            assert init.call_count == 1
            correlation_estimate(system, [cyl] * 2, [(0, 0), (1, 1)], WINDOW, samples=100,
                                 seed=1)
            assert init.call_count == 2

    def test_estimate_checks_pins_as_the_exact_measure_does(self, three_dot):
        cyl = CylinderSet.make({(0, 0): 0})
        for measure in (correlation_exact, partial(correlation_estimate, samples=10, seed=0)):
            with pytest.raises(DomainError):
                measure(three_dot, [cyl] * 2, [(0, 0)], WINDOW)
        # Only the estimate, which samples the window, needs the pins in it.
        with pytest.raises(WindowError):
            correlation_estimate(three_dot, [cyl], [(40, 0)], WINDOW, samples=10, seed=0)

    def test_shift_of_the_wrong_length_refused(self, three_dot):
        # zip would cut (1, 0, 5) to (1, 0) and measure the wrong cylinder.
        cyl = CylinderSet.make({(0, 0): 0})
        for measure in (correlation_exact, partial(correlation_estimate, samples=10, seed=0)):
            for gamma in [(1, 0, 5), (1,)]:
                with pytest.raises(DomainError, match="window dimension"):
                    measure(three_dot, [cyl], [gamma], WINDOW)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_estimate_needs_a_sample(self, three_dot, samples):
        cyl = CylinderSet.make({(0, 0): 0})
        with pytest.raises(DomainError, match="at least one sample"):
            correlation_estimate(three_dot, [cyl], [(0, 0)], WINDOW, samples=samples, seed=0)

    @pytest.mark.parametrize("name", ["f3_two_generators.json", "f5_two_generators.json"])
    def test_finite_quotients_match_every_functional(self, name):
        # R/I is finite here: a point of X is any F_p-linear functional on
        # the span of the normal-form monomials, and x_s is its value at
        # NF(u^(s - lo)), since u^-lo is a unit.  Count the functionals that
        # meet each cylinder.
        system = load_system(str(TESTS / name)).system
        ideal = system.module.ideal
        p = ideal.characteristic
        window = [(-1, 3), (-2, 4)]
        nfs = {s: ideal._reduced(LaurentPoly(2, GF(p), {(s[0] + 1, s[1] + 2): 1}))
               for s in box_points(window)}
        monos = sorted({m for nf in nfs.values() for m in nf})
        patterns = [
            {s: sum(chi[monos.index(m)] * c for m, c in nf.items()) % p for s, nf in nfs.items()}
            for chi in product(range(p), repeat=len(monos))
        ]
        rng = random.Random(p)
        sites = list(nfs)
        for _ in range(40):
            pins = {s: rng.randrange(p) for s in rng.sample(sites, rng.randint(1, 3))}
            hits = sum(all(x[s] == v for s, v in pins.items()) for x in patterns)
            measure = cylinder_measure(system, CylinderSet.make(pins), window)
            assert measure.value == Fraction(hits, len(patterns))

    @pytest.mark.parametrize("p, seed", [(2, s) for s in range(6)] + [(3, s) for s in range(6)])
    def test_matches_sympy_normal_forms(self, p, seed):
        # Random two-generator systems on a 6 x 6 window against the valid
        # space read off sympy's lex Groebner basis of the saturated ideal,
        # with the canonical basis taken by the dense reference elimination.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1000 * p + seed)
        t, u1, u2 = sympy.symbols("t u1 u2")
        gens = []
        for _ in range(2):
            exps = rng.sample(list(product(range(-1, 3), repeat=2)), rng.randint(2, 4))
            gens.append({e: rng.randrange(1, p) for e in exps})
        texts = [" + ".join(f"{c}*u1^{a}*u2^{b}" for (a, b), c in g.items()) for g in gens]
        space = WindowConfigSpace(system_over(p, *texts), WINDOW)
        # Clear the u^-1 by the unit u1 u2.
        exprs = [sum(c * u1 ** (a + 1) * u2 ** (b + 1) for (a, b), c in g.items())
                 for g in gens]
        basis = sympy.groebner(exprs + [t * u1 * u2 - 1], t, u1, u2, order="lex", modulus=p)
        columns = []
        for i, j in space.sites:
            rem = basis.reduce(u1 ** i * u2 ** j)[1]
            terms = sympy.Poly(rem, t, u1, u2, modulus=p).terms() if rem != 0 else []
            columns.append({m: int(c) % p for m, c in terms if int(c) % p})
        monos = sorted({m for col in columns for m in col})
        normal_forms = [[col.get(m, 0) for col in columns] for m in monos]
        nsites = len(space.sites)
        relations = ref_nullspace(normal_forms, nsites, p) if monos else [
            [int(i == j) for j in range(nsites)] for i in range(nsites)]
        assert space.kernel.tolist() == ref_nullspace(relations, nsites, p)


@pytest.fixture(scope="module")
def reference_kernels():
    """Each characteristic-p file's kernel on its small window by the dense
    reference elimination: the canonical basis of the row space of the
    normal-form matrix, as the kernel of its kernel."""
    out = {}
    for name, path in CHAR_P_FILES.items():
        ideal = load_system(path).system.module.ideal
        p, window = ideal.characteristic, SMALL_WINDOWS[ideal.d]
        sites = list(box_points(window))
        forms = [ideal.normal_form_monomial(tuple(s - lo for s, (lo, _) in zip(site, window)))
                 for site in sites]
        monos = list(dict.fromkeys(mu for form in forms for mu in form))
        rows = [[form.get(mu, 0) % p for form in forms] for mu in monos]
        kernel = ref_nullspace(ref_nullspace(rows, len(sites), p), len(sites), p)
        out[name] = np.array(kernel, dtype=np.int64).reshape(len(kernel), len(sites))
    return out


class TestPinnedColumns:
    """An estimate reads the rank and its pinned columns of the window's
    kernel K, not K itself."""

    @given(name=st.sampled_from(sorted(CHAR_P_FILES)),
           picks=st.lists(st.integers(0, 10 ** 6), max_size=6))
    @example(name="ledrappier.json", picks=[0, 35, 35, 17])
    @example(name="f3_two_generators.json", picks=[0, 1, 29, 35])
    @example(name="f5_two_generators.json", picks=[2, 3, 30, 31])
    @example(name="trivial_unit.json", picks=[0, 11])
    @settings(max_examples=120, deadline=None)
    def test_matches_the_reference_kernel(self, reference_kernels, name, picks):
        # Over F_2, F_3 and F_5, in d = 1..4, repeated sites and no sites.
        system = load_system(CHAR_P_FILES[name]).system
        space = WindowConfigSpace(system, SMALL_WINDOWS[system.module.ideal.d])
        reference = reference_kernels[name]
        sites = [i % len(space.sites) for i in picks]
        assert space.rank == len(reference)
        columns = space.columns(sites)
        assert columns.dtype == np.int64
        assert columns.tolist() == reference[:, sites].tolist()
        assert space.kernel.tolist() == reference.tolist()

    @pytest.mark.parametrize("path, window", [(LEDRAPPIER, 20), (F3_SUBSTITUTION, 10)])
    def test_estimate_builds_no_dense_kernel(self, path, window):
        system = load_system(path).system
        cyl = CylinderSet.make({(0, 0): 0, (1, 1): 1})
        args = (system, [cyl] * 2, [(0, 0), (3, 3)], [(0, window - 1)] * 2)
        before = correlation_estimate(*args, samples=30_000, seed=4)
        with patch.object(WindowConfigSpace, "kernel", new_callable=PropertyMock) as kernel:
            assert correlation_estimate(*args, samples=30_000, seed=4) == before
        assert kernel.call_count == 0


@pytest.fixture(scope="module")
def window_oracles():
    """Each characteristic-p file's system and its small window's space."""
    out = {}
    for name, path in CHAR_P_FILES.items():
        system = load_system(path).system
        out[name] = system, WindowConfigSpace(system, SMALL_WINDOWS[system.module.ideal.d])
    return out


class TestWindowFreeMeasures:
    """Exact measures from the pins' normal forms alone, against the rank of
    the pinned columns of the window space's kernel."""

    @given(
        name=st.sampled_from(sorted(CHAR_P_FILES)),
        picks=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 11),
                                 st.integers(0, 10 ** 6)), min_size=1, max_size=7),
    )
    @example(name="trivial_unit.json", picks=[(4, 0, 0)])
    @example(name="trivial_unit.json", picks=[(4, 1, 0), (9, 2, 5)])
    # Two pins at one site with different symbols, then with the same
    # symbol mod p.
    @example(name="ledrappier.json", picks=[(7, 0, 0), (7, 1, 4)])
    @example(name="f3_substitution.json", picks=[(7, 1, 0), (7, 4, 4)])
    @settings(max_examples=200, deadline=None)
    def test_matches_the_window_space(self, window_oracles, name, picks):
        # A pick (i, v, g) pins site i of the window (mod its size) to the
        # symbol v, possibly at least p, and as a set of its own it is moved
        # there by the shift whose coordinates are the base-3 digits of g,
        # less 1.
        system, space = window_oracles[name]
        d = len(space.window)
        pins = [(space.sites[i % len(space.sites)], v) for i, v, _ in picks]
        shifts = [tuple(g // 3 ** j % 3 - 1 for j in range(d)) for _, _, g in picks]
        cyl = CylinderSet.make(dict(pins))
        sets = [CylinderSet.make({tuple(a - b for a, b in zip(site, gamma)): v})
                for (site, v), gamma in zip(pins, shifts)]
        with space_builds() as init:
            measure = cylinder_measure(system, cyl, space.window)
            exact = correlation_exact(system, sets, shifts, space.window)
        assert measure.value == _measure_given_pins(space, list(cyl.pins))
        assert exact == _measure_given_pins(space, pins)
        assert init.call_count == 0

    @pytest.mark.parametrize(
        "n, value",
        [(2 ** 40, Fraction(1, 4)), (2 ** 60, Fraction(1, 4))]
        + [(n, Fraction(1, 8)) for n in (3, 5, 6, 7, 12, 100, 1000)],
    )
    def test_three_dot_at_any_dilation(self, n, value):
        # The window (0, n) holds the shifted pins and the window (0, 6) does
        # not for n > 6; either way no window space is built.
        system = load_system(LEDRAPPIER).system
        cyl = CylinderSet.make({(0, 0): 0})
        with space_builds() as init:
            for window in ([(0, n)] * 2, WINDOW):
                exact = correlation_exact(system, [cyl] * 3, [(0, 0), (n, 0), (0, n)], window)
                assert exact == value
                assert cylinder_measure(system, cyl, window).value == Fraction(1, 2)
        assert init.call_count == 0

    def test_refusals_keep_their_messages(self):
        system = system_over(2, "1 + u1 + u2")
        cyl = CylinderSet.make({(0, 0): 0})
        # Pins outside the window are measured, not refused.
        space = WindowConfigSpace(system, [(0, 40), (0, 6)])
        with space_builds() as init:
            measure = cylinder_measure(system, CylinderSet.make({(7, 0): 1}), WINDOW)
            assert measure.value == _measure_given_pins(space, [((7, 0), 1)])
            far = correlation_exact(system, [cyl], [(40, 0)], WINDOW)
            assert far == _measure_given_pins(space, [((40, 0), 0)])
            empty = correlation_exact(system, [cyl], [(0, 0)], [(0, -1)] * 2)
            assert empty == _measure_given_pins(space, [((0, 0), 0)])
        assert init.call_count == 0
        refusals = [
            (partial(cylinder_measure, system, cyl, [(0, 3)]), WindowError,
             "window dimension does not match the system"),
            (partial(correlation_exact, system, [cyl], [(0, 0)], [(0, 3)] * 3), WindowError,
             "window dimension does not match the system"),
            (partial(correlation_exact, system, [cyl], [(1, 0, 5)], WINDOW), DomainError,
             "shift [1, 0, 5] does not match the window dimension"),
            (partial(correlation_exact, system, [cyl] * 2, [(0, 0)], WINDOW), DomainError,
             "need one shift per set"),
            (partial(cylinder_measure, AlgebraicSystem(positive_rationals([2]),
                                                       RationalDualModule()), cyl, WINDOW),
             UnsupportedOperationError,
             "measure-level simulation is only available in characteristic p"),
        ]
        with space_builds() as init:
            for call, error, message in refusals:
                with pytest.raises(error) as info:
                    call()
                assert str(info.value) == message
        assert init.call_count == 0
        estimate = partial(correlation_estimate, samples=10, seed=0)
        for window, shift in ([(0, 6)] * 2, (40, 0)), ([(0, -1)] * 2, (0, 0)):
            with pytest.raises(WindowError) as info:
                estimate(system, [cyl], [shift], window)
            assert str(info.value) == f"shifted pin {shift} outside the window; enlarge it"

    def test_pin_of_the_wrong_length_refused(self):
        # A pinned site with three coordinates on a d = 2 system is refused
        # alike by all three measures, not cut to two by the shift.
        system = system_over(2, "1 + u1 + u2")
        cyl = CylinderSet.make({(0, 0, 0): 1})
        for call in (partial(cylinder_measure, system, cyl, WINDOW),
                     partial(correlation_exact, system, [cyl], [(0, 0)], WINDOW),
                     partial(correlation_estimate, system, [cyl], [(0, 0)], WINDOW,
                             samples=10, seed=0)):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == "pinned site (0, 0, 0) does not match the window dimension"

    def test_window_too_large_to_list_refused(self, three_dot):
        # The estimate refuses before it lists a site; the exact measure
        # needs no window space at all.
        side = 2 ** 40 + 1
        window = [(0, side - 1)] * 2
        cyl = CylinderSet.make({(0, 0): 0})
        shifts = [(0, 0), (2 ** 40, 0), (0, 2 ** 40)]
        assert correlation_exact(three_dot, [cyl] * 3, shifts, window) == Fraction(1, 4)
        with patch.object(simulate, "box_points") as listed:
            with pytest.raises(BudgetExceededError) as info:
                correlation_estimate(three_dot, [cyl] * 3, shifts, window, samples=10, seed=0)
        assert listed.call_count == 0
        assert str(info.value) == f"a window of {side ** 2} sites exceeds the site limit"
        assert info.value.region == {"window": [[0, side - 1]] * 2, "sites": side ** 2,
                                     "site_limit": simulate.WINDOW_SITE_LIMIT}

    def test_site_limit_is_inclusive(self):
        limit = simulate.WINDOW_SITE_LIMIT
        system = system_over(2, "1 + u1 + u1^3", d=1)
        assert len(WindowConfigSpace(system, [(1, limit)]).sites) == limit
        with pytest.raises(BudgetExceededError):
            WindowConfigSpace(system, [(0, limit)])

    def test_split_ledrappier_side_11_is_refused_before_reduction(self):
        # u1 and u4 are free, so the rows grow with the window: 2,541 rows
        # over 14,641 sites, within the site limit but not the entry limit.
        system = load_system(CHAR_P_FILES["split_ledrappier.json"]).system
        window = [(0, 10)] * 4
        with patch.object(linalg, "coordinates") as reduced:
            with pytest.raises(BudgetExceededError) as info:
                WindowConfigSpace(system, window)
        assert reduced.call_count == 0
        assert str(info.value) == (
            "a window space of 2541 rows over 14641 sites exceeds the entry limit")
        assert info.value.region == {"window": [[0, 10]] * 4, "rows": 2541, "sites": 14641,
                                     "entry_limit": simulate.WINDOW_ENTRY_LIMIT}
        with pytest.raises(BudgetExceededError):
            correlation_estimate(system, [CylinderSet.make({(0, 0, 0, 0): 0})], [(0, 0, 0, 0)],
                                 window, samples=10, seed=0)

    def test_entry_limit_is_inclusive(self):
        # With no relation every site is its own row: n sites, n^2 entries.
        system = system_over(2, d=1)
        with patch.object(simulate, "WINDOW_ENTRY_LIMIT", 100):
            assert WindowConfigSpace(system, [(1, 10)]).kernel.shape == (10, 10)
            with pytest.raises(BudgetExceededError, match="11 rows over 11 sites"):
                WindowConfigSpace(system, [(0, 10)])


class TestMatmulMod:
    """matmul_mod against the Python-int product, at characteristics on both
    sides of sqrt(2^53) and inner dimensions on both sides of a slice."""

    # 67108859 and 94906249 sum in float64 slices of 2 and 1 products;
    # 94906297 and 2^31 - 1 in int64 slices of 1023 and 2.
    PRIMES = [2, 3, 5, 65537, 67108859, 94906249, 94906297, 2 ** 31 - 1]

    @given(p=st.sampled_from(PRIMES), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_python_ints(self, p, data):
        square = (p - 1) ** 2
        step = ((1 << 53) - p) // square or ((1 << 63) - p) // square
        near = [k for k in (step - 1, step, step + 1, 2 * step + 1) if k <= 2100]
        k = data.draw(st.integers(0, 6) | st.sampled_from(near or [0]))
        m, n = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        if data.draw(st.booleans()):
            # Every product at its largest, (p - 1)^2.
            a, b = np.full((m, k), p - 1), np.full((k, n), p - 1)
        else:
            a, b = rng.integers(0, p, (m, k)), rng.integers(0, p, (k, n))
        out = matmul_mod(a.astype(np.int64), b.astype(np.int64), p)
        expected = [[sum(int(a[i, j]) * int(b[j, c]) for j in range(k)) % p
                     for c in range(n)] for i in range(m)]
        assert out.dtype == np.int64
        assert out.tolist() == expected
