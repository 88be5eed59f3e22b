"""Property tests of the closed-form flux kernel against quadrature.

The drawn states reach |u| up to three times the rectangle half-width
c*sqrt(3) on either side, and the bottom jump is drawn as a multiple of the
largest kinetic energy 2 g dz / (|u| + c sqrt(3))^2 in [-3, 3], so total
reflection and large |dz| of both signs are both exercised.  Tolerances are
those of the oracle tests in test_kinetic_fluxes.py.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import quad_interface_fluxes, quad_shifted_half_moments
from pipewave.kinetic import SQRT3, _six_row_flux_arrays

G = 9.81

# quad flags the sliver between a computed breakpoint sqrt(edge^2 + w) and the
# point where the oracle's indicator flips in floating point; the integral is
# unaffected, and every value is still held to the tolerances above
pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")

sound_speeds = st.floats(0.5, 20.0)
areas = st.floats(0.05, 10.0)
mach = st.floats(-3.0, 3.0)          # u / (c sqrt(3))
energy_ratio = st.floats(-3.0, 3.0)  # 2 g dz / (|u| + c sqrt(3))^2


@st.composite
def interface_cases(draw, c=None, energy=energy_ratio):
    """(a_l, q_l, a_r, q_r, dz, c) for one interface."""
    if c is None:
        c = draw(sound_speeds)
    s = c * SQRT3
    a_l, a_r = draw(areas), draw(areas)
    u_l, u_r = draw(mach) * s, draw(mach) * s
    fastest = max(abs(u_l), abs(u_r)) + s
    dz = draw(energy) * fastest * fastest / (2.0 * G)
    return a_l, a_l * u_l, a_r, a_r * u_r, dz, c


@st.composite
def interface_batches(draw):
    """(c, list of cases) sharing one sound speed, for 1-d evaluation."""
    c = draw(sound_speeds)
    return c, draw(st.lists(interface_cases(c=c), min_size=1, max_size=8))


def zero_d_fluxes(case):
    a_l, q_l, a_r, q_r, dz, c = case
    return _six_row_flux_arrays(np.float64(a_l), np.float64(q_l), np.float64(a_r),
                                  np.float64(q_r), np.float64(dz), c, G)


def oracle_fluxes(case):
    a_l, q_l, a_r, q_r, dz, c = case
    minus, plus = quad_interface_fluxes(a_l, q_l, a_r, q_r, 0.0, dz, c, G)
    return minus + plus


def assert_matches_oracle(case, got):
    a_l, _, a_r, _, _, c = case
    scale = (a_l + a_r) * c * (1 + c)
    for value, want in zip(got, oracle_fluxes(case)):
        assert float(value) == pytest.approx(want, rel=1e-8, abs=1e-9 * scale)


@given(interface_cases())
@example((2.0, 3.0, 1.5, -1.0, 0.5, 10.0))          # the reference case
@example((2.0, 0.0, 2.0, 0.0, 50.0, 1.0))            # total reflection, at rest
@example((1.0, 30.0, 1.0, -30.0, -80.0, 2.0))        # supersonic both ways, steep drop
def test_zero_d_fluxes_match_quadrature(case):
    got = zero_d_fluxes(case)
    assert all(np.ndim(v) == 0 for v in got)
    assert_matches_oracle(case, got)


@given(interface_batches())
def test_one_d_evaluation_equals_zero_d(batch):
    c, cases = batch
    cols = np.array([case[:5] for case in cases]).T
    got = _six_row_flux_arrays(*cols, c, G)
    for i, case in enumerate(cases):
        assert tuple(float(v[i]) for v in got) == tuple(map(float, zero_d_fluxes(case)))


@given(interface_batches())
def test_mass_flux_continuity(batch):
    c, cases = batch
    a_l, q_l, a_r, q_r, dz = np.array([case[:5] for case in cases]).T
    fm_a, _, fp_a, _ = _six_row_flux_arrays(a_l, q_l, a_r, q_r, dz, c, G)
    assert np.all(np.abs(fm_a - fp_a) <= 1e-12 * (np.abs(fm_a) + a_l * c))


@given(sound_speeds, areas, mach, areas, mach, st.floats(1.0, 3.0))
def test_total_reflection_of_the_left_cell(c, a_l, m_l, a_r, m_r, k):
    # no left particle with xi >= 0 has the energy to climb the step, so the
    # mass flux can only carry right-cell particles down into the left cell
    s = c * SQRT3
    u_l = m_l * s
    dz = k * (abs(u_l) + s) ** 2 / (2.0 * G)
    case = (a_l, a_l * u_l, a_r, a_r * m_r * s, dz, c)
    got = zero_d_fluxes(case)
    assert float(got[0]) <= 1e-12 * a_l * c
    assert_matches_oracle(case, got)


def received(cell, other, dz, c, positive):
    """The half-flux of ``other`` at its interface with ``cell``: F+ when
    ``cell`` is the left cell (``positive``, xi >= 0), else F-.  Of ``cell``
    it holds only the transmitted row."""
    if positive:
        return zero_d_fluxes((*cell, *other, dz, c))[2:]
    return zero_d_fluxes((*other, *cell, dz, c))[:2]


def silent(c, positive):
    """A cell that sends nothing into the other half: it moves away from the
    interface (to the left when ``positive``) at twice the half-width."""
    speed = 2.0 * c * SQRT3
    return 1.0, -speed if positive else speed


@given(st.floats(0.5, 10.0), areas, mach, energy_ratio, st.booleans(), areas, mach)
@example(3.0, 2.0, 1.0 / SQRT3, 4.0 / 36.0, False, 2.0, 0.0)     # the reference case
def test_shifted_half_moments_match_quadrature(c, a, m, k, positive, a_o, m_o):
    # replacing a silent cell by (a, u) changes the other cell's half-flux
    # by the transmitted row of (a, u) alone
    s = c * SQRT3
    u = m * s
    fastest = abs(u) + s
    w = k * fastest * fastest
    dz = (-w if positive else w) / (2.0 * G)
    other = (a_o, a_o * m_o * s)
    quiet = silent(c, positive)
    new_f = received((a, a * u), other, dz, c, positive)
    old_f = received(quiet, other, dz, c, positive)
    new_t = quad_shifted_half_moments(a, u, c, w, positive)
    old_t = quad_shifted_half_moments(quiet[0], quiet[1] / quiet[0], c, w, positive)
    scale = a * c * SQRT3 + a * c * c
    for k in range(2):
        assert float(new_f[k] - old_f[k]) == pytest.approx(
            new_t[k] - old_t[k], rel=1e-8, abs=1e-10 * scale)


@given(st.floats(0.5, 10.0), areas, mach, st.floats(1.0, 3.0), st.booleans(), areas, mach)
def test_shifted_half_moments_vanish_under_total_reflection(c, a, m, k, positive, a_o, m_o):
    # a cell climbing a jump above its largest kinetic energy transmits
    # nothing, so replacing it by a silent cell leaves the other half-flux as is
    u = m * c * SQRT3
    climb = k * (abs(u) + c * SQRT3) ** 2 * (1.0 + 1e-9)
    dz = (climb if positive else -climb) / (2.0 * G)
    other = (a_o, a_o * m_o * c * SQRT3)
    assert (received((a, a * u), other, dz, c, positive)
            == received(silent(c, positive), other, dz, c, positive))


@given(interface_cases(), areas, mach)
def test_transmitted_rows_are_shifted_half_moments(case, a_new, m_new):
    # replacing one cell of an interface changes, in the other cell's flux,
    # only the transmitted row, which the kernel gives alone against a
    # silent neighbour
    a_l, q_l, a_r, q_r, dz, c = case
    new = (a_new, a_new * m_new * c * SQRT3)
    for positive, old, other in ((False, (a_r, q_r), (a_l, q_l)),
                                 (True, (a_l, q_l), (a_r, q_r))):
        old_f = received(old, other, dz, c, positive)
        new_f = received(new, other, dz, c, positive)
        old_t = received(old, silent(c, not positive), dz, c, positive)
        new_t = received(new, silent(c, not positive), dz, c, positive)
        for k in range(2):
            size = abs(old_f[k]) + abs(new_f[k]) + abs(old_t[k]) + abs(new_t[k])
            assert float(old_f[k] - old_t[k]) == pytest.approx(
                float(new_f[k] - new_t[k]), abs=1e-12 * size)
