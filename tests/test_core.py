import math
import re

import numpy as np
import pytest

from oracles import strickler_coefficient
from pipewave.core import (LinearAltitude, Mesh, PhysicalConstants, PipeGeometry, State,
                           effective_wave_speed, entropy_cell, friction_slope,
                           piezometric_head, rest_factors, sound_speed, total_head)


def section4_geometry(strickler=None):
    return PipeGeometry(
        length=2000.0, section=2.0,
        altitude=LinearAltitude(upstream_z=250.0, angle_deg=-5.0), strickler=strickler)


class TestSoundSpeed:
    def test_water_like(self):
        assert sound_speed(5.0e-10, 1000.0) == pytest.approx(1414.2135623730950, abs=1e-3)

    def test_identity(self):
        assert sound_speed(1.0, 1.0) == 1.0

    def test_symmetry(self):
        assert sound_speed(4.0, 0.25) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sound_speed(0.0, 1000.0)
        with pytest.raises(ValueError):
            sound_speed(5e-10, -1.0)

    def test_inverse_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            beta = 10.0 ** rng.uniform(-12, 2)
            rho = 10.0 ** rng.uniform(-3, 5)
            c = sound_speed(beta, rho)
            assert c * c * beta * rho == pytest.approx(1.0, rel=1e-12)


class TestEffectiveWaveSpeed:
    def test_concrete_penstock(self):
        geom = section4_geometry()
        c = sound_speed(5.0e-10, 1000.0)
        a = effective_wave_speed(c, geom.diameter, 0.2, 23e9, 5.0e-10)
        assert a == pytest.approx(1086.6, abs=0.1)
        assert a == pytest.approx(1086.6315496544702, rel=1e-12)

    def test_rigid_limit(self):
        c = 1400.0
        a = effective_wave_speed(c, 1e-12, 0.2, 23e9, 5e-10)
        assert a == pytest.approx(c, rel=1e-9)

    def test_matched_stiffness(self):
        # diameter equal to beta*e*E forces a = c/sqrt(2)
        c, beta, e, young = 1000.0, 5e-10, 0.2, 23e9
        a = effective_wave_speed(c, beta * e * young, e, young, beta)
        assert a == pytest.approx(c / math.sqrt(2.0), rel=1e-14)

    def test_never_exceeds_rigid_speed(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = 10.0 ** rng.uniform(0, 4)
            a = effective_wave_speed(c, 10.0 ** rng.uniform(-3, 1),
                                     10.0 ** rng.uniform(-3, 0),
                                     10.0 ** rng.uniform(6, 12),
                                     10.0 ** rng.uniform(-12, -6))
            assert a <= c

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            effective_wave_speed(1000.0, -1.0, 0.2, 23e9, 5e-10)
        with pytest.raises(ValueError):
            effective_wave_speed(1000.0, 1.6, 0.2, 0.0, 5e-10)


class TestPiezometricHead:
    def test_atmospheric(self):
        assert piezometric_head(2.0, 2.0, 12.0, 1.5, 1000.0, 9.81) == pytest.approx(13.5)

    def test_unit_pressure_head(self):
        c, g = 340.0, 9.81
        area = 1.0 + g / (c * c)
        assert piezometric_head(area, 1.0, 0.0, 0.0, c, g) == pytest.approx(1.0, rel=1e-12)

    def test_pressurized_profile_value(self):
        head = piezometric_head(1.0004 * 2.0, 2.0, 250.0, 1.59577, 1086.6, 9.81)
        assert head == pytest.approx(299.73846357798165, abs=1e-3)

    def test_monotone_in_area(self):
        areas = np.linspace(1.5, 3.0, 50)
        heads = piezometric_head(areas, 2.0, 5.0, 1.6, 1086.6, 9.81)
        assert np.all(np.diff(heads) > 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            piezometric_head(-1.0, 2.0, 0.0, 1.6, 1000.0, 9.81)
        with pytest.raises(ValueError):
            piezometric_head(1.0, 0.0, 0.0, 1.6, 1000.0, 9.81)


class TestTotalHead:
    def test_reference_zero(self):
        assert total_head(1.0, 0.0, 0.0, 100.0, 9.81) == 0.0

    def test_still_water_invariance(self):
        c, g = 300.0, 9.81
        z1, a1 = 4.0, 2.5
        # pick (z2, a2) on the same still-water level set
        z2 = 9.0
        a2 = a1 * math.exp(g * (z1 - z2) / (c * c))
        h1 = total_head(a1, 0.0, z1, c, g)
        h2 = total_head(a2, 0.0, z2, c, g)
        assert h1 == pytest.approx(h2, rel=1e-14)

    def test_reference_value(self):
        assert total_head(2.0, 3.0, 10.0, 100.0, 9.81) == pytest.approx(
            7034.071805599453, abs=0.01)

    def test_still_water_difference_identity(self):
        rng = np.random.default_rng(11)
        c, g = 500.0, 9.81
        for _ in range(100):
            a1, a2 = rng.uniform(0.5, 5.0, 2)
            z1, z2 = rng.uniform(-10, 10, 2)
            diff = total_head(a2, 0.0, z2, c, g) - total_head(a1, 0.0, z1, c, g)
            expected = g * (z2 - z1) + c * c * (math.log(a2) - math.log(a1))
            assert diff == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))

    def test_rejects_nonpositive_area(self):
        with pytest.raises(ValueError):
            total_head(0.0, 1.0, 0.0, 100.0, 9.81)


class TestEntropy:
    def test_zero(self):
        assert entropy_cell(1.0, 0.0, 0.0, 10.0, 9.81) == 0.0

    def test_kinetic_only(self):
        assert entropy_cell(1.0, 2.0, 0.0, 10.0, 9.81) == pytest.approx(2.0)

    def test_reference_value(self):
        assert entropy_cell(2.0, 3.0, 5.0, 10.0, 9.81) == pytest.approx(
            238.97943611198906, abs=0.01)

    def test_convex_in_area(self):
        c, g = 25.0, 9.81
        areas = np.linspace(0.05, 8.0, 400)
        values = entropy_cell(areas, 0.0, 0.0, c, g)
        second = values[2:] - 2 * values[1:-1] + values[:-2]
        assert np.all(second >= 0.0)

    def test_rejects_nonpositive_area(self):
        with pytest.raises(ValueError):
            entropy_cell(0.0, 1.0, 0.0, 10.0, 9.81)


class TestFrictionSlope:
    def test_zero_velocity(self):
        assert friction_slope(0.0, section4_geometry(strickler=80.0)) == 0.0

    def test_disabled(self):
        assert friction_slope(5.0, section4_geometry()) == 0.0

    def test_reference_value(self):
        geom = section4_geometry(strickler=80.0)
        assert friction_slope(5.0, geom) == pytest.approx(1.3300867e-2, abs=1e-5)

    def test_odd_function(self):
        geom = section4_geometry(strickler=60.0)
        u = np.linspace(-8, 8, 33)
        assert friction_slope(u, geom) == pytest.approx(-friction_slope(-u, geom))


class TestGeometryAndConstants:
    def test_circular_relations(self):
        geom = section4_geometry()
        assert geom.section == pytest.approx(math.pi * geom.diameter ** 2 / 4, rel=1e-14)
        assert geom.perimeter == pytest.approx(math.pi * geom.diameter, rel=1e-14)

    @pytest.mark.parametrize("section", [2.0, 0.3])
    @pytest.mark.parametrize("strickler", [30.0, 80.0, 117.5])
    def test_friction_coefficient_is_the_strickler_law(self, section, strickler):
        geom = PipeGeometry(length=10.0, section=section, altitude=LinearAltitude(0.0, 0.0),
                            strickler=strickler)
        assert geom.friction_coefficient.hex() == strickler_coefficient(strickler, section).hex()
        smooth = PipeGeometry(length=10.0, section=section, altitude=LinearAltitude(0.0, 0.0))
        assert smooth.friction_coefficient == 0.0 and smooth.strickler is None

    def test_strickler_validation(self):
        # K_s^2 overflows at 1e200 and vanishes at 1e-200; at 1e-160 it is
        # subnormal and K overflows to inf; K_s = inf gives K = 0
        for strickler in (0.0, -80.0, math.nan, math.inf, 1e200, 1e-200, 1e-160):
            with pytest.raises(ValueError, match="strickler must be positive"):
                section4_geometry(strickler=strickler)

    def test_constants_override(self):
        constants = PhysicalConstants(c=1086.6)
        assert constants.c == 1086.6

    def test_constants_validation(self):
        with pytest.raises(TypeError):
            PhysicalConstants()            # no default wave speed
        with pytest.raises(ValueError):
            PhysicalConstants(c=1086.6, g=-1.0)
        with pytest.raises(ValueError):
            PhysicalConstants(c=0.0)
        with pytest.raises(ValueError, match="must be positive and finite"):
            PhysicalConstants(c=math.inf)


class TestMeshAndState:
    def test_uniform_mesh_samples_altitude(self):
        alt = LinearAltitude(upstream_z=250.0, angle_deg=-5.0)
        mesh = Mesh.uniform(2000.0, 100, alt)
        assert mesh.n == 100
        assert mesh.width == 20.0
        assert mesh.centers.tobytes() == ((np.arange(100) + 0.5) * 20.0).tobytes()
        assert mesh.z_cells == pytest.approx(alt(mesh.centers))

    def test_mesh_validation(self):
        with pytest.raises(ValueError):
            Mesh(-1.0, np.zeros(2))
        with pytest.raises(ValueError):
            Mesh(1.0, np.zeros(0))
        with pytest.raises(ValueError):
            Mesh(1.0, np.zeros((2, 2)))
        mesh = Mesh(3.0, np.zeros(2))
        with pytest.raises(ValueError):
            mesh.centers[0] = 0.0

    def test_state_requires_positive_area(self):
        with pytest.raises(ValueError):
            State(area=np.array([1.0, 0.0]), discharge=np.zeros(2))

    def test_state_requires_finite_discharge(self):
        with pytest.raises(ValueError, match="^discharge must be finite: cell 1 is inf$"):
            State(area=np.ones(2), discharge=np.array([0.0, np.inf]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -0.0, -1.0])
    def test_state_names_the_first_inadmissible_cell(self, bad):
        # an infinite area used to pass, and the first step between walls
        # then blamed "an invalid left ghost cell: A=inf"
        with pytest.raises(ValueError, match=r"^wetted area must lie in \(0, inf\): cell 1 "
                                             rf"is {re.escape(repr(bad))}$"):
            State(area=[1.0, bad, 1.0, bad], discharge=np.zeros(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_state_requires_finite_time(self, bad):
        # a nan time made kinetic.run return the state after 0 steps
        with pytest.raises(ValueError, match=rf"^time must be finite, got {bad!r}$"):
            State(area=np.ones(4), discharge=np.zeros(4), time=bad)

    def test_state_velocity(self):
        state = State(area=np.array([2.0, 4.0]), discharge=np.array([1.0, 2.0]))
        assert state.velocity == pytest.approx([0.5, 0.5])

    def test_rest_factors_cached_and_read_only(self):
        mesh = Mesh.uniform(2000.0, 50, LinearAltitude(upstream_z=250.0, angle_deg=-5.0))
        c, g = 1086.6, 9.81
        # ghosts share the bottom of their neighbour
        z = np.concatenate(([mesh.z_cells[0]], mesh.z_cells, [mesh.z_cells[-1]]))
        z_star = np.maximum(z[:-1], z[1:])
        fresh = np.exp(np.array([z_star - z[:-1], z_star - z[1:]]) * (-g / (c * c)))
        factors = mesh.rest_factors(c, g)
        assert np.array_equal(factors, fresh)
        assert factors[:, [0, -1]].tolist() == [[1.0, 1.0], [1.0, 1.0]]
        assert mesh.rest_factors(c, g) is factors
        with pytest.raises(ValueError):
            factors[0, 1] = 2.0
        other = mesh.rest_factors(2.0 * c, g)
        assert other is not factors
        assert np.array_equal(other, np.exp(np.array([z_star - z[:-1], z_star - z[1:]])
                                            * (-g / (4.0 * c * c))))

    def test_rest_factors_of_a_block_are_each_meshs(self):
        # core.rest_factors takes bottoms of shape (m, n), one row per mesh
        rng = np.random.default_rng(4)
        c, g = 300.0, 9.81
        z = np.cumsum(rng.uniform(-5.0, 5.0, (6, 5)), axis=1)
        block = rest_factors(z, c, g)
        assert block.shape == (2, 6, 6)
        for k in range(6):
            mesh = Mesh(5.0, z[k])
            factors = mesh.rest_factors(c, g)
            assert block[:, k].tobytes() == factors.tobytes()
            assert not factors.flags.writeable

    def test_state_arrays_read_only(self):
        state = State(area=np.ones(3), discharge=np.zeros(3))
        with pytest.raises(ValueError):
            state.area[0] = 5.0
