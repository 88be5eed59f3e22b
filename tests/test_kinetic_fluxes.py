import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (quad_interface_fluxes, quad_shifted_half_moments,
                     rect_maxwellian)
from pipewave.core import rest_factors
from pipewave.kinetic import SQRT3, _interface_flux_arrays, _six_row_flux_arrays


class TestMaxwellian:
    """The rectangle every quadrature oracle integrates."""

    def test_center_of_support(self):
        a, u, c = 2.0, 1.0, 3.0
        assert rect_maxwellian(a, u, c)(u) == pytest.approx(a / (2 * c * SQRT3))

    def test_outside_support(self):
        a, u, c = 2.0, 1.0, 3.0
        assert rect_maxwellian(a, u, c)(u + 2 * c * SQRT3) == 0.0

    def test_mass_moment(self):
        a, u, c = 2.0, 1.0, 3.0
        val, _ = quad(rect_maxwellian(a, u, c), u - c * SQRT3, u + c * SQRT3)
        assert val == pytest.approx(a, abs=1e-10)

    def test_momentum_and_energy_moments(self):
        a, u, c = 1.7, -2.3, 4.0
        s = c * SQRT3
        m = rect_maxwellian(a, u, c)
        q, _ = quad(lambda xi: xi * m(xi), u - s, u + s)
        e, _ = quad(lambda xi: xi * xi * m(xi), u - s, u + s)
        assert q == pytest.approx(a * u, rel=1e-12)
        assert e == pytest.approx(a * u * u + c * c * a, rel=1e-12)


def fluxes(a_l, q_l, a_r, q_r, z_l, z_r, c, g):
    """(F-_A, F-_Q, F+_A, F+_Q) at one interface, as floats."""
    return tuple(map(float, _six_row_flux_arrays(
        np.float64(a_l), np.float64(q_l), np.float64(a_r), np.float64(q_r),
        np.float64(z_r - z_l), c, g)))


def transmitted(a, u, c, w, positive, g=9.81):
    """The transmitted row of the cell (a, u) across the potential jump w,
    read through the kernel: the change in the neighbour's half-flux (F+ on
    xi >= 0 when ``positive``, else F-) when a cell moving away from the
    interface at twice the half-width, which transmits nothing, is replaced
    by (a, u).  The neighbour is (a, u) too."""
    away = -2.0 * c * SQRT3 if positive else 2.0 * c * SQRT3
    dz = (-w if positive else w) / (2.0 * g)

    def half(v):
        if positive:
            return fluxes(a, a * v, a, a * u, 0.0, dz, c, g)[2:]
        return fluxes(a, a * u, a, a * v, 0.0, dz, c, g)[:2]

    return tuple(new - old for new, old in zip(half(u), half(away)))


class TestShiftedHalfMoments:
    def test_rest_positive_half_no_jump(self):
        a, c = 2.0, 3.0
        m0, m1 = transmitted(a, 0.0, c, 0.0, True)
        assert m0 == pytest.approx(a * c * SQRT3 / 4.0, rel=1e-14)
        assert m1 == pytest.approx(a * c * c / 2.0, rel=1e-14)

    def test_total_reflection_is_empty(self):
        # climbing against a jump larger than the maximal kinetic energy:
        # replacing the reflected cell leaves the neighbour's half-flux as it is
        a, c = 2.0, 3.0
        for u, positive in ((-1.0, False), (1.0, True)):
            climb = 1.05 * (abs(u) + c * SQRT3) ** 2
            assert transmitted(a, u, c, -climb, positive) == (0.0, 0.0)

    def test_against_quadrature_reference_case(self):
        a, u, c, w = 2.0, 1.0, 3.0, 4.0
        m0, m1 = transmitted(a, u, c, w, False)
        o0, o1 = quad_shifted_half_moments(a, u, c, w, False)
        assert m0 == pytest.approx(o0, rel=1e-8)
        assert m1 == pytest.approx(o1, rel=1e-8)

    def test_against_quadrature_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            c = rng.uniform(0.5, 10.0)
            a = rng.uniform(0.1, 5.0)
            u = rng.uniform(-2 * c * SQRT3, 2 * c * SQRT3)
            w = rng.uniform(-1.0, 1.0) * (abs(u) + 2 * c * SQRT3) ** 2
            positive = bool(rng.integers(2))
            m = transmitted(a, u, c, w, positive)
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
        fm_a, fm_q, fp_a, fp_q = fluxes(a, q, a, q, 3.0, 3.0, c, g)
        exact = (q, q * q / a + c * c * a)
        for f_area, f_momentum in ((fm_a, fm_q), (fp_a, fp_q)):
            assert f_area == pytest.approx(exact[0], rel=1e-12)
            assert f_momentum == pytest.approx(exact[1], rel=1e-12)

    def test_rest_flat_symmetry(self):
        c, g = 7.0, 9.81
        a = 3.2
        fm_a, fm_q, fp_a, fp_q = fluxes(a, 0.0, a, 0.0, 1.0, 1.0, c, g)
        assert fm_a == 0.0
        assert fp_a == 0.0
        assert fm_q == pytest.approx(c * c * a, rel=1e-12)
        assert fp_q == pytest.approx(c * c * a, rel=1e-12)

    def test_reference_case_against_quadrature(self):
        got = fluxes(2.0, 3.0, 1.5, -1.0, 0.0, 0.5, 10.0, 9.81)
        oracle_m, oracle_p = quad_interface_fluxes(
            2.0, 3.0, 1.5, -1.0, 0.0, 0.5, 10.0, 9.81)
        for value, want in zip(got, oracle_m + oracle_p):
            assert value == pytest.approx(want, rel=1e-8)
        assert got[0] == pytest.approx(got[2], abs=1e-12 * 2.0 * 10.0)

    def test_randomized_against_quadrature(self):
        rng = np.random.default_rng(5)
        g = 9.81
        for _ in range(50):
            c = rng.uniform(0.5, 20.0)
            left, right, z_l, z_r = random_interface(rng, c)
            got = fluxes(*left, *right, z_l, z_r, c, g)
            oracle_m, oracle_p = quad_interface_fluxes(
                left[0], left[1], right[0], right[1], z_l, z_r, c, g)
            scale = (left[0] + right[0]) * c * (1 + c)
            for value, want in zip(got, oracle_m + oracle_p):
                assert value == pytest.approx(want, rel=1e-8, abs=1e-9 * scale)

    def test_mass_flux_continuity_randomized(self):
        rng = np.random.default_rng(17)
        g = 9.81
        for _ in range(500):
            c = rng.uniform(0.5, 20.0)
            left, right, z_l, z_r = random_interface(rng, c)
            fm_a, _, fp_a, _ = fluxes(*left, *right, z_l, z_r, c, g)
            tol = 1e-12 * (abs(fm_a) + left[0] * c)
            assert abs(fm_a - fp_a) <= tol

    def test_mirror_symmetry(self):
        # reversing the axis swaps the half-fluxes, negates mass components
        rng = np.random.default_rng(23)
        g = 9.81
        for _ in range(200):
            c = rng.uniform(0.5, 20.0)
            (a_l, q_l), (a_r, q_r), z_l, z_r = random_interface(rng, c)
            fm_a, fm_q, fp_a, fp_q = fluxes(a_l, q_l, a_r, q_r, z_l, z_r, c, g)
            mm_a, mm_q, mp_a, mp_q = fluxes(a_r, -q_r, a_l, -q_l, z_r, z_l, c, g)
            assert fm_a == pytest.approx(-mp_a, rel=1e-12, abs=1e-13 * a_l * c)
            assert fm_q == pytest.approx(mp_q, rel=1e-12)
            assert fp_a == pytest.approx(-mm_a, rel=1e-12, abs=1e-13 * a_l * c)
            assert fp_q == pytest.approx(mm_q, rel=1e-12)


def no_jump_cells(rng, cells, c, huge=True):
    """(weights, ext) for ``cells`` cells plus two ghosts: areas in
    [1e-3, 10], speeds up to 2 c sqrt(3) and, with ``huge``, at about a tenth
    of the cells |u| between 1e100 and 1e160, where x^3 or x^2 itself
    overflows for a bound x = u -+ c sqrt(3) and the kernels return NaN.
    The weights are the rest factors of random bottom steps (one side of
    each interface is 1)."""
    s = c * SQRT3
    a = rng.uniform(1e-3, 10.0, cells + 2)
    u = rng.uniform(-2 * s, 2 * s, cells + 2)
    if huge:
        big = rng.random(cells + 2) < 0.1
        u[big] = rng.choice([-1.0, 1.0], big.sum()) * 10.0 ** rng.uniform(100, 160, big.sum())
    z = np.cumsum(rng.uniform(-0.5, 0.5, cells)) * c * c / 9.81
    return rest_factors(z, c, 9.81), np.array([a, a * u])


def term_scales(weights, ext, c):
    """The largest magnitude each interface flux is formed from: the two
    weighted halves' (|u| + s)^2 A / (4 s) and (|u| + s)^3 A / (6 s)."""
    s = c * SQRT3
    with np.errstate(over="ignore"):
        speed = np.abs(ext[1] / ext[0]) + s
        mass = ext[0] * speed ** 2 / (4 * s)
        momentum = ext[0] * speed ** 3 / (6 * s)
        return np.array([weights[0] * x[:-1] + weights[1] * x[1:] for x in (mass, momentum)])


class TestClosedFormKernel:
    """The run path's kernel: each cell's xi >= 0 and xi <= 0 halves in
    closed form, weighted by the rest factors at each interface.  On the
    reconstructed sides (A*, Q*) = w (A, Q) the six rows at dz = 0 give the
    same fluxes, and F- = F+."""

    @pytest.mark.parametrize("interfaces", [1, 201, 1001])
    def test_matches_six_rows_at_no_jump(self, interfaces):
        rng = np.random.default_rng(interfaces)
        nan_seen = False
        for _ in range(300 if interfaces == 1 else 20):
            c = rng.uniform(0.5, 1500.0)
            weights, ext = no_jump_cells(rng, interfaces - 1, c)
            left, right = ext[:, :-1] * weights[0], ext[:, 1:] * weights[1]
            with np.errstate(all="ignore"):
                got = _interface_flux_arrays(weights[0], weights[1], ext, c)
                rows = _six_row_flux_arrays(*left, *right, np.zeros(interfaces), c, 9.81)
            assert got.shape == (2, interfaces)
            tolerance = 1e-14 * term_scales(weights, ext, c)
            for k, want in enumerate(rows):
                f = got[k % 2]
                assert np.array_equal(np.isnan(f), np.isnan(want))
                finite = ~np.isnan(f)
                assert np.all(np.abs(f - want)[finite] <= tolerance[k % 2][finite])
            nan_seen |= bool(np.isnan(got[0]).any() and np.isnan(got[1]).any())
        assert nan_seen

    def test_matches_quadrature(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            c = rng.uniform(0.5, 20.0)
            weights, ext = no_jump_cells(rng, 2, c, huge=False)
            got = _interface_flux_arrays(weights[0], weights[1], ext, c)
            for j in range(3):
                a_l, q_l = ext[:, j] * weights[0, j]
                a_r, q_r = ext[:, j + 1] * weights[1, j]
                minus, plus = quad_interface_fluxes(a_l, q_l, a_r, q_r, 0.0, 0.0, c, 9.81)
                scale = (a_l + a_r) * c * (1 + c)
                for value, want in zip(got[:, j].tolist() * 2, minus + plus):
                    assert value == pytest.approx(want, rel=1e-8, abs=1e-9 * scale)

    def test_batch_axes_match_per_case_evaluation(self):
        # a block of cases (step's positivity suite) is evaluated per case:
        # (m, n + 2) cells give the bits of each case's own 1-d call, NaNs included
        rng = np.random.default_rng(8)
        for _ in range(50):
            c = rng.uniform(0.5, 1500.0)
            cases = [no_jump_cells(rng, 5, c) for _ in range(3)]
            weights = np.stack([w for w, _ in cases], axis=1)
            ext = np.stack([e for _, e in cases], axis=1)
            with np.errstate(all="ignore"):
                block = _interface_flux_arrays(weights[0], weights[1], ext, c)
                assert block.shape == (2, 3, 6)
                for k, (w, e) in enumerate(cases):
                    own = _interface_flux_arrays(w[0], w[1], e, c)
                    assert block[:, k].tobytes() == own.tobytes()
