"""Window configuration spaces, exact measures, and Monte Carlo estimates."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from mixlab.ideals import IdealPresentation
from mixlab.ring import GF, DomainError, LaurentPoly
from mixlab.simulate import (
    CylinderSet,
    WindowConfigSpace,
    WindowError,
    correlation_estimate,
    correlation_exact,
    cylinder_measure,
)
from mixlab.systems import (
    AlgebraicSystem,
    CharPModule,
    RationalDualModule,
    UnsupportedOperationError,
    free_abelian,
    positive_rationals,
)
from test_linalg import ref_nullspace

F2 = GF(2)
WINDOW = [(0, 6), (0, 6)]


def p2(text, d=2):
    return LaurentPoly.parse(text, d, F2)


def system_over(p, *generators):
    ideal = IdealPresentation([LaurentPoly.parse(g, 2, GF(p)) for g in generators], p)
    return AlgebraicSystem(free_abelian(2), CharPModule(ideal))


def constraint_matrix(space):
    """The sparse constraint rows of a window space as a dense matrix."""
    mat = np.zeros((len(space.rows), len(space.sites)), dtype=np.int64)
    for i, row in enumerate(space.rows):
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
        # 49 sites, one constraint per fully contained translate (6x6).
        assert len(space.sites) == 49
        assert space.rank == 36
        assert space.solution_dimension == 13
        assert space.configuration_count() == 2 ** 13

    def test_full_shift_is_unconstrained(self, full_shift):
        space = WindowConfigSpace(full_shift, [(0, 2), (0, 2)])
        assert space.solution_dimension == 9

    def test_samples_satisfy_constraints(self, three_dot):
        space = WindowConfigSpace(three_dot, WINDOW)
        samples = space.sample_uniform(50, seed=11)
        assert ((constraint_matrix(space) @ samples.T) % 2 == 0).all()

    def test_sampling_is_deterministic(self, three_dot):
        space = WindowConfigSpace(three_dot, WINDOW)
        a = space.sample_uniform(10, seed=3)
        b = space.sample_uniform(10, seed=3)
        assert (a == b).all()

    def test_kernel_rows_are_valid_configurations(self, three_dot):
        space = WindowConfigSpace(three_dot, WINDOW)
        assert space.kernel.shape == (13, 49)
        assert ((constraint_matrix(space) @ space.kernel.T) % 2 == 0).all()

    @pytest.mark.parametrize(
        "p, generators, width",
        [(2, ["1 + u1 + u2"], w) for w in (1, 2, 3, 7, 13, 22)]
        + [(3, ["1 + u1 + u2"], w) for w in (2, 5, 10, 22)]
        # Shifts of the two generators share lowest sites, so their rows
        # must be reduced against each other on the way in.
        + [(3, ["1 + u1 + u2", "1 + 2*u1 + u2 + u1^2 + u1*u2"], w) for w in (3, 6, 11)],
    )
    def test_kernel_matches_reference(self, p, generators, width):
        space = WindowConfigSpace(system_over(p, *generators), [(0, width - 1)] * 2)
        dense = constraint_matrix(space).tolist()
        assert space.kernel.tolist() == ref_nullspace(dense, len(space.sites), p)

    def test_samples_exact_at_the_largest_characteristic(self):
        # nfree * (p - 1)^2 overflows int64 here: sums must still be exact.
        p = 2 ** 31 - 1
        space = WindowConfigSpace(system_over(p, "1 + u1 + u2"), [(0, 5), (0, 5)])
        samples = space.sample_uniform(20, seed=1)
        constraints = constraint_matrix(space).astype(object)
        assert ((constraints @ samples.astype(object).T) % p == 0).all()

    def test_samples_are_pinned(self, three_dot):
        # Digest of the samples drawn before the kernel-basis sampler; any
        # change to the draws or to the configurations they give fails here.
        space = WindowConfigSpace(three_dot, WINDOW)
        samples = space.sample_uniform(257, seed=7)
        assert samples.dtype == np.int64 and samples.shape == (257, 49)
        digest = hashlib.sha1(samples.tobytes()).hexdigest()
        assert digest == "cd9eb07efde0d993317371673e96ac15aabbd8fc"

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

    def test_shift_outside_window_rejected(self, three_dot):
        cyl = CylinderSet.make({(0, 0): 0})
        with pytest.raises(WindowError):
            correlation_exact(three_dot, [cyl], [(40, 0)], WINDOW)

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
        cyl = CylinderSet.make({(0, 0): 0})
        kwargs = dict(samples=45_000, seed=9)
        single = correlation_estimate(
            three_dot, [cyl], [(0, 0)], WINDOW, threads=1, **kwargs
        )
        pooled = correlation_estimate(
            three_dot, [cyl], [(0, 0)], WINDOW, threads=4, **kwargs
        )
        assert single.estimate == pooled.estimate

    def test_seed_changes_the_sample(self, three_dot):
        cyl = CylinderSet.make({(0, 0): 0})
        a = correlation_estimate(three_dot, [cyl], [(0, 0)], WINDOW, samples=10_000, seed=1)
        b = correlation_estimate(three_dot, [cyl], [(0, 0)], WINDOW, samples=10_000, seed=2)
        assert a.estimate != b.estimate
