import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import quad_interface_fluxes, quad_shifted_half_moments
from pipewave.kinetic import (SQRT3, HalfFlux, InterfaceFluxPair,
                              KineticParams, _interface_flux_arrays,
                              interface_fluxes, maxwellian_density,
                              shifted_half_moments)


class TestMaxwellian:
    def test_center_of_support(self):
        a, u, c = 2.0, 1.0, 3.0
        assert maxwellian_density(a, u, c, u) == pytest.approx(a / (2 * c * SQRT3))

    def test_outside_support(self):
        a, u, c = 2.0, 1.0, 3.0
        assert maxwellian_density(a, u, c, u + 2 * c * SQRT3) == 0.0

    def test_mass_moment(self):
        a, u, c = 2.0, 1.0, 3.0
        val, _ = quad(lambda xi: maxwellian_density(a, u, c, xi),
                      u - c * SQRT3, u + c * SQRT3)
        assert val == pytest.approx(a, abs=1e-10)

    def test_momentum_and_energy_moments(self):
        a, u, c = 1.7, -2.3, 4.0
        s = c * SQRT3
        q, _ = quad(lambda xi: xi * maxwellian_density(a, u, c, xi), u - s, u + s)
        e, _ = quad(lambda xi: xi * xi * maxwellian_density(a, u, c, xi), u - s, u + s)
        assert q == pytest.approx(a * u, rel=1e-12)
        assert e == pytest.approx(a * u * u + c * c * a, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            maxwellian_density(-1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            maxwellian_density(1.0, 0.0, 0.0, 0.0)


class TestShiftedHalfMoments:
    def test_rest_positive_half_no_jump(self):
        a, c = 2.0, 3.0
        m0, m1 = shifted_half_moments(a, 0.0, c, 0.0, True)
        assert m0 == pytest.approx(a * c * SQRT3 / 4.0, rel=1e-14)
        assert m1 == pytest.approx(a * c * c / 2.0, rel=1e-14)

    def test_total_reflection_is_empty(self):
        # climbing against a jump larger than the maximal kinetic energy
        a, c = 2.0, 3.0
        for u, positive in ((-1.0, False), (1.0, True)):
            climb = 1.05 * (abs(u) + c * SQRT3) ** 2
            assert shifted_half_moments(a, u, c, -climb, positive) == (0.0, 0.0)

    def test_against_quadrature_reference_case(self):
        a, u, c, w = 2.0, 1.0, 3.0, 4.0
        m0, m1 = shifted_half_moments(a, u, c, w, False)
        o0, o1 = quad_shifted_half_moments(a, u, c, w, False)
        assert m0 == pytest.approx(o0, rel=1e-8)
        assert m1 == pytest.approx(o1, rel=1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shifted_half_moments(0.0, 1.0, 3.0, 1.0, True)
        with pytest.raises(ValueError):
            shifted_half_moments(1.0, 1.0, -3.0, 1.0, True)

    def test_against_quadrature_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            c = rng.uniform(0.5, 10.0)
            a = rng.uniform(0.1, 5.0)
            u = rng.uniform(-2 * c * SQRT3, 2 * c * SQRT3)
            w = rng.uniform(-1.0, 1.0) * (abs(u) + 2 * c * SQRT3) ** 2
            positive = bool(rng.integers(2))
            m = shifted_half_moments(a, u, c, w, positive)
            o = quad_shifted_half_moments(a, u, c, w, positive)
            scale = a * c * SQRT3 + a * c * c
            for got, want in zip(m, o):
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10 * scale)


def random_interface(rng, c):
    s = c * SQRT3
    a_l, a_r = rng.uniform(0.05, 10.0, 2)
    u_l, u_r = rng.uniform(-2 * s, 2 * s, 2)
    z_l, z_r = rng.uniform(-5.0, 5.0, 2)
    return (a_l, a_l * u_l), (a_r, a_r * u_r), z_l, z_r


class TestInterfaceFluxes:
    def test_consistency_flat_equal_states(self):
        c, g = 12.0, 9.81
        a, q = 2.5, 4.0   # |u| = 1.6 < c*sqrt(3)
        pair = interface_fluxes((a, q), (a, q), 3.0, 3.0, c, g)
        exact = (q, q * q / a + c * c * a)
        for flux in (pair.minus, pair.plus):
            assert flux.f_area == pytest.approx(exact[0], rel=1e-12)
            assert flux.f_momentum == pytest.approx(exact[1], rel=1e-12)

    def test_rest_flat_symmetry(self):
        c, g = 7.0, 9.81
        a = 3.2
        pair = interface_fluxes((a, 0.0), (a, 0.0), 1.0, 1.0, c, g)
        assert pair.minus.f_area == 0.0
        assert pair.plus.f_area == 0.0
        assert pair.minus.f_momentum == pytest.approx(c * c * a, rel=1e-12)
        assert pair.plus.f_momentum == pytest.approx(c * c * a, rel=1e-12)

    def test_reference_case_against_quadrature(self):
        pair = interface_fluxes((2.0, 3.0), (1.5, -1.0), 0.0, 0.5, 10.0, 9.81)
        (fm_a, fm_q), (fp_a, fp_q) = quad_interface_fluxes(
            2.0, 3.0, 1.5, -1.0, 0.0, 0.5, 10.0, 9.81)
        assert pair.minus.f_area == pytest.approx(fm_a, rel=1e-8)
        assert pair.minus.f_momentum == pytest.approx(fm_q, rel=1e-8)
        assert pair.plus.f_area == pytest.approx(fp_a, rel=1e-8)
        assert pair.plus.f_momentum == pytest.approx(fp_q, rel=1e-8)
        assert pair.minus.f_area == pytest.approx(pair.plus.f_area, abs=1e-12 * 2.0 * 10.0)

    def test_randomized_against_quadrature(self):
        rng = np.random.default_rng(5)
        g = 9.81
        for _ in range(50):
            c = rng.uniform(0.5, 20.0)
            left, right, z_l, z_r = random_interface(rng, c)
            pair = interface_fluxes(left, right, z_l, z_r, c, g)
            oracle_m, oracle_p = quad_interface_fluxes(
                left[0], left[1], right[0], right[1], z_l, z_r, c, g)
            scale = (left[0] + right[0]) * c * (1 + c)
            got = (pair.minus.f_area, pair.minus.f_momentum,
                   pair.plus.f_area, pair.plus.f_momentum)
            for value, want in zip(got, oracle_m + oracle_p):
                assert value == pytest.approx(want, rel=1e-8, abs=1e-9 * scale)

    def test_mass_flux_continuity_randomized(self):
        rng = np.random.default_rng(17)
        g = 9.81
        for _ in range(500):
            c = rng.uniform(0.5, 20.0)
            left, right, z_l, z_r = random_interface(rng, c)
            pair = interface_fluxes(left, right, z_l, z_r, c, g)
            tol = 1e-12 * (abs(pair.minus.f_area) + left[0] * c)
            assert abs(pair.minus.f_area - pair.plus.f_area) <= tol

    def test_mirror_symmetry(self):
        # reversing the axis swaps the half-fluxes, negates mass components
        rng = np.random.default_rng(23)
        g = 9.81
        for _ in range(200):
            c = rng.uniform(0.5, 20.0)
            (a_l, q_l), (a_r, q_r), z_l, z_r = random_interface(rng, c)
            pair = interface_fluxes((a_l, q_l), (a_r, q_r), z_l, z_r, c, g)
            mirror = interface_fluxes((a_r, -q_r), (a_l, -q_l), z_r, z_l, c, g)
            assert pair.minus.f_area == pytest.approx(-mirror.plus.f_area, rel=1e-12,
                                                      abs=1e-13 * a_l * c)
            assert pair.minus.f_momentum == pytest.approx(mirror.plus.f_momentum,
                                                          rel=1e-12)
            assert pair.plus.f_area == pytest.approx(-mirror.minus.f_area, rel=1e-12,
                                                     abs=1e-13 * a_l * c)
            assert pair.plus.f_momentum == pytest.approx(mirror.minus.f_momentum,
                                                         rel=1e-12)

    def test_rejects_nonpositive_area(self):
        with pytest.raises(ValueError):
            interface_fluxes((0.0, 1.0), (1.0, 1.0), 0.0, 0.0, 10.0, 9.81)


def split_states(rng, shape, c):
    """(A_L, Q_L, A_R, Q_R) with speeds up to 3 c sqrt(3) and, at about a
    tenth of the points, |u| between 1e100 and 1e160, where P(x) = x^2 |x|
    or x^2 itself overflows and the kernel returns NaN."""
    s = c * SQRT3
    a = rng.uniform(1e-3, 10.0, (2,) + shape)
    u = rng.uniform(-3 * s, 3 * s, (2,) + shape)
    huge = rng.random((2,) + shape) < 0.1
    u[huge] = rng.choice([-1.0, 1.0], huge.sum()) * 10.0 ** rng.uniform(100, 160, huge.sum())
    q = a * u
    return a[0], q[0], a[1], q[1]


class TestNoJumpKernel:
    """With dz = None (no jump) the kernel takes its two-row path; the six
    rows with dz = 0.0 and dz = np.zeros(...) are the reference."""

    @pytest.mark.parametrize("n", [None, 1, 201, 1001])
    def test_matches_six_rows_bitwise(self, n):
        rng = np.random.default_rng(31 if n is None else n)
        shape = () if n is None else (n,)
        nan_seen = False
        for _ in range(400 if n in (None, 1) else 20):
            c = rng.uniform(0.5, 1500.0)
            states = split_states(rng, shape, c)
            with np.errstate(all="ignore"):
                split = _interface_flux_arrays(*states, None, c, 9.81)
                rows = _interface_flux_arrays(*states, np.zeros(shape), c, 9.81)
                scalar_rows = _interface_flux_arrays(*states, 0.0, c, 9.81)
            for got, want in zip(split[:2], rows[:2]):
                assert got.shape == shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            # a numeric zero reaches the six rows
            for got, want in zip(scalar_rows, rows):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            # F+ holds the same values; the six rows, summed in the mirrored
            # frame, give -0.0 where the split gives +0.0
            for k in (2, 3):
                np.testing.assert_array_equal(split[k], rows[k])
                assert np.array_equal(split[k], split[k - 2], equal_nan=True)
            nan_seen |= bool(np.isnan(rows[0]).any() and np.isnan(rows[1]).any())
        assert nan_seen

    @pytest.mark.parametrize("shape", [(), (7,)])
    def test_returns_separate_arrays(self, shape):
        # step adds a different c^2 (A - A*) to F-_Q and F+_Q in place
        states = split_states(np.random.default_rng(2), shape, 10.0)
        fluxes = _interface_flux_arrays(*states, None, 10.0, 9.81)
        for one, other in itertools.combinations(fluxes, 2):
            assert not np.shares_memory(one, other)


class TestKineticParams:
    def test_cfl_bounds(self):
        KineticParams(cfl=1.0)
        with pytest.raises(ValueError):
            KineticParams(cfl=0.0)
        with pytest.raises(ValueError):
            KineticParams(cfl=1.5)

    def test_chi_halfwidth_is_sqrt3(self):
        assert KineticParams().chi_support_halfwidth == pytest.approx(math.sqrt(3.0))

    def test_halfflux_finite(self):
        with pytest.raises(ValueError):
            HalfFlux(f_area=math.nan, f_momentum=0.0)
        pair = InterfaceFluxPair(minus=HalfFlux(1.0, 2.0), plus=HalfFlux(1.0, 3.0))
        assert pair.minus.f_area == pair.plus.f_area
