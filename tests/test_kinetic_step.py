import numpy as np
import pytest

from oracles import quad_interface_fluxes
from pipewave.core import (FrictionParams, LinearAltitude, Mesh,
                           PhysicalConstants, PipeGeometry, SolverError, State,
                           entropy_cell)
from pipewave.kinetic import (SQRT3, KineticParams, cfl_timestep, run, step)

FRICTIONLESS = FrictionParams.disabled()


def flat_altitude(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def wall_boundary(state):
    return ((float(state.area[0]), -float(state.discharge[0])),
            (float(state.area[-1]), -float(state.discharge[-1])))


def periodic_boundary(state):
    return ((float(state.area[-1]), float(state.discharge[-1])),
            (float(state.area[0]), float(state.discharge[0])))


def still_water_setup(cells=100, angle_deg=-5.0, c=1086.6, length=2000.0):
    alt = LinearAltitude(upstream_z=250.0, angle_deg=angle_deg)
    mesh = Mesh.uniform(length, cells, alt)
    g = 9.81
    area = 2.0 * np.exp(-g * (mesh.z_cells - mesh.z_cells[0]) / (c * c))
    return mesh, State(area=area, discharge=np.zeros(cells)), c, g


class TestCflTimestep:
    def test_reference_value(self):
        mesh = Mesh.uniform(200.0, 100, flat_altitude)   # h = 2 m
        state = State(area=np.ones(100), discharge=np.zeros(100))
        dt = cfl_timestep(state, 1086.6, mesh, 0.8)
        assert dt == pytest.approx(8.5013844165599229e-4, abs=1e-7)

    def test_unit_case(self):
        mesh = Mesh.uniform(1.0, 1, flat_altitude)
        state = State(area=np.ones(1), discharge=np.zeros(1))
        dt = cfl_timestep(state, 1.0 / SQRT3, mesh, 1.0)
        assert dt == pytest.approx(1.0, rel=1e-14)

    def test_linear_in_width(self):
        state = State(area=np.ones(10), discharge=np.full(10, 3.0))
        mesh1 = Mesh.uniform(10.0, 10, flat_altitude)
        mesh2 = Mesh.uniform(20.0, 10, flat_altitude)
        dt1 = cfl_timestep(state, 40.0, mesh1, 0.5)
        dt2 = cfl_timestep(state, 40.0, mesh2, 0.5)
        assert dt2 == pytest.approx(2.0 * dt1, rel=1e-14)

    def test_rejects_bad_coefficient(self):
        mesh = Mesh.uniform(1.0, 2, flat_altitude)
        state = State(area=np.ones(2), discharge=np.zeros(2))
        with pytest.raises(ValueError):
            cfl_timestep(state, 1.0, mesh, 1.5)


class TestStep:
    def test_uniform_state_is_fixed_point(self):
        mesh = Mesh.uniform(10.0, 16, flat_altitude)
        state = State(area=np.full(16, 2.0), discharge=np.full(16, 3.0))
        c, g = 10.0, 9.81
        dt = cfl_timestep(state, c, mesh, 0.9)
        new = step(state, mesh, c, g, dt, FRICTIONLESS, periodic_boundary)
        assert new.area == pytest.approx(state.area, rel=1e-12)
        assert new.discharge == pytest.approx(state.discharge, rel=1e-12)

    def test_cfl_violation_rejected(self):
        mesh = Mesh.uniform(10.0, 8, flat_altitude)
        state = State(area=np.ones(8), discharge=np.zeros(8))
        c = 10.0
        dt_max = mesh.min_width / (c * SQRT3)
        with pytest.raises(SolverError):
            step(state, mesh, c, 9.81, 1.5 * dt_max, FRICTIONLESS, periodic_boundary)

    def test_matches_quadrature_driven_update(self):
        rng = np.random.default_rng(31)
        c, g = 8.0, 9.81
        n = 6
        for _ in range(5):
            area = rng.uniform(0.5, 4.0, n)
            u = rng.uniform(-0.5 * c, 0.5 * c, n)
            z = np.cumsum(rng.uniform(-0.4, 0.4, n))
            mesh = Mesh(centers=np.arange(n, dtype=float), widths=np.ones(n),
                        z_cells=z)
            state = State(area=area, discharge=area * u)
            dt = cfl_timestep(state, c, mesh, 0.9)
            new = step(state, mesh, c, g, dt, FRICTIONLESS, periodic_boundary)

            # independent update evaluating every interface by quadrature
            a_ext = np.concatenate([area[-1:], area, area[:1]])
            q_ext = np.concatenate([(area * u)[-1:], area * u, (area * u)[:1]])
            z_ext = np.concatenate([z[:1], z, z[-1:]])
            fm = np.zeros((n + 1, 2))
            fp = np.zeros((n + 1, 2))
            for i in range(n + 1):
                (fm[i, 0], fm[i, 1]), (fp[i, 0], fp[i, 1]) = quad_interface_fluxes(
                    a_ext[i], q_ext[i], a_ext[i + 1], q_ext[i + 1],
                    z_ext[i], z_ext[i + 1], c, g)
            a_ref = area - dt * (fm[1:, 0] - fp[:-1, 0])
            q_ref = area * u - dt * (fm[1:, 1] - fp[:-1, 1])
            assert new.area == pytest.approx(a_ref, rel=1e-8)
            assert new.discharge == pytest.approx(q_ref, rel=1e-8,
                                                  abs=1e-8 * np.max(area) * c)

    def test_positivity_randomized(self):
        rng = np.random.default_rng(101)
        g = 9.81
        for _ in range(300):
            c = rng.uniform(0.5, 15.0)
            s = c * SQRT3
            n = 5
            area = rng.uniform(1e-6, 10.0, n)
            u = rng.uniform(-2 * s, 2 * s, n)
            z = np.cumsum(rng.uniform(-5.0, 5.0, n))
            mesh = Mesh(centers=np.arange(n, dtype=float), widths=np.ones(n),
                        z_cells=z)
            state = State(area=area, discharge=area * u)
            dt = cfl_timestep(state, c, mesh, 1.0)
            new = step(state, mesh, c, g, dt, FRICTIONLESS, wall_boundary)
            assert np.all(new.area > 0)

    def test_conservation_periodic(self):
        rng = np.random.default_rng(12)
        mesh = Mesh.uniform(50.0, 40, flat_altitude)
        c, g = 20.0, 9.81
        area = 2.0 + 0.4 * np.sin(2 * np.pi * mesh.centers / 50.0)
        u = 0.1 * c * np.cos(2 * np.pi * mesh.centers / 50.0) + 0.05 * c * rng.random(40)
        state = State(area=area, discharge=area * u)
        mass0 = np.sum(mesh.widths * state.area)
        mom0 = np.sum(mesh.widths * state.discharge)
        for _ in range(200):
            dt = cfl_timestep(state, c, mesh, 0.9)
            state = step(state, mesh, c, g, dt, FRICTIONLESS, periodic_boundary)
        assert np.sum(mesh.widths * state.area) == pytest.approx(mass0, rel=1e-12)
        assert np.sum(mesh.widths * state.discharge) == pytest.approx(
            mom0, abs=1e-12 * mass0 * c)

    def test_mirror_symmetry_commutes(self):
        rng = np.random.default_rng(8)
        n = 24
        c, g = 15.0, 9.81
        mesh = Mesh.uniform(12.0, n, flat_altitude)
        z = np.cumsum(rng.uniform(-0.3, 0.3, n))
        mesh = Mesh(centers=mesh.centers, widths=mesh.widths, z_cells=z)
        area = rng.uniform(1.0, 3.0, n)
        q = rng.uniform(-1.0, 1.0, n) * area * c * 0.3
        state = State(area=area, discharge=q)
        dt = cfl_timestep(state, c, mesh, 0.9)

        stepped = step(state, mesh, c, g, dt, FRICTIONLESS, wall_boundary)
        mirrored_first = State(area=area[::-1], discharge=-q[::-1])
        mesh_m = Mesh(centers=mesh.centers, widths=mesh.widths, z_cells=z[::-1])
        stepped_mirrored = step(mirrored_first, mesh_m, c, g, dt, FRICTIONLESS,
                                wall_boundary)
        assert stepped_mirrored.area == pytest.approx(stepped.area[::-1], rel=1e-12)
        assert stepped_mirrored.discharge == pytest.approx(
            -stepped.discharge[::-1], rel=1e-12, abs=1e-13 * np.max(area) * c)

    def test_friction_relaxes_discharge(self):
        geom = PipeGeometry.circular(length=10.0, section=2.0, wall_thickness=0.2,
                                     young_modulus=23e9,
                                     altitude=LinearAltitude(0.0, 0.0))
        mesh = Mesh.uniform(10.0, 8, flat_altitude)
        state = State(area=np.full(8, 2.0), discharge=np.full(8, 6.0))
        c, g = 50.0, 9.81
        dt = cfl_timestep(state, c, mesh, 0.9)
        friction = FrictionParams(enabled=True, strickler=30.0)
        with_friction = step(state, mesh, c, g, dt, friction, periodic_boundary,
                             geometry=geom)
        without = step(state, mesh, c, g, dt, FRICTIONLESS, periodic_boundary)
        assert np.all(with_friction.discharge < without.discharge)
        assert np.all(with_friction.discharge > 0)
        assert with_friction.area == pytest.approx(without.area, rel=1e-15)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("ghost", [(np.nan, 0.0), (np.inf, 0.0), (-1.0, 0.0),
                                       (2.0, np.nan), (2.0, -np.inf)],
                             ids=["nan-area", "inf-area", "negative-area",
                                  "nan-discharge", "inf-discharge"])
    def test_invalid_ghost_rejected(self, side, ghost):
        # NaN compares False with everything, so a bare "area <= 0" guard
        # let a NaN ghost through and the step silently lost mass
        mesh = Mesh.uniform(10.0, 4, flat_altitude)
        state = State(area=np.full(4, 2.0), discharge=np.zeros(4))

        def boundary(s):
            valid = (2.0, 0.0)
            return (ghost, valid) if side == "left" else (valid, ghost)

        dt = cfl_timestep(state, 10.0, mesh, 0.8)
        with pytest.raises(SolverError,
                           match=f"{side} ghost cell: A={ghost[0]!r}, Q={ghost[1]!r}"):
            step(state, mesh, 10.0, 9.81, dt, FRICTIONLESS, boundary)

    def test_friction_requires_geometry(self):
        mesh = Mesh.uniform(10.0, 4, flat_altitude)
        state = State(area=np.ones(4), discharge=np.ones(4))
        friction = FrictionParams(enabled=True, strickler=30.0)
        with pytest.raises(ValueError):
            step(state, mesh, 10.0, 9.81, 1e-3, friction, periodic_boundary)


class TestStillWaterBalance:
    """The rectangular equilibrium balances a sloped hydrostatic profile only
    to first order in g*dz_cell/c^2; these tests pin the actual behaviour:
    the drift stays within that first-order envelope and shrinks with the
    cell jump."""

    def test_residual_within_first_order_envelope(self):
        mesh, state, c, g = still_water_setup()
        area0 = state.area.copy()
        for _ in range(100):
            dt = cfl_timestep(state, c, mesh, 0.8)
            state = step(state, mesh, c, g, dt, FRICTIONLESS, wall_boundary)
        eps = g * float(np.max(np.abs(np.diff(mesh.z_cells)))) / (c * c)
        assert np.max(np.abs(state.discharge)) / (np.max(area0) * c) <= eps
        assert np.max(np.abs(state.area - area0) / area0) <= eps

    def test_residual_shrinks_with_cell_jump(self):
        # halving the per-cell bottom jump should cut the one-step flux
        # imbalance by about half (first-order balance)
        residuals = []
        for cells in (50, 100, 200):
            mesh, state, c, g = still_water_setup(cells=cells)
            dt = cfl_timestep(state, c, mesh, 0.8)
            new = step(state, mesh, c, g, dt, FRICTIONLESS, wall_boundary)
            residuals.append(np.max(np.abs(new.area - state.area)))
        assert residuals[1] < 0.6 * residuals[0]
        assert residuals[2] < 0.6 * residuals[1]


class TestEntropyDiagnostic:
    def test_total_entropy_non_increasing_smooth_periodic(self):
        mesh = Mesh.uniform(100.0, 64, flat_altitude)
        c, g = 30.0, 9.81
        x = mesh.centers / 100.0
        area = 2.0 + 0.2 * np.sin(2 * np.pi * x)
        u = 0.05 * c * np.sin(4 * np.pi * x)
        state = State(area=area, discharge=area * u)
        total = float(np.sum(mesh.widths * entropy_cell(
            state.area, state.discharge, 0.0, c, g)))
        violations = 0
        for _ in range(500):
            dt = cfl_timestep(state, c, mesh, 0.9)
            state = step(state, mesh, c, g, dt, FRICTIONLESS, periodic_boundary)
            new_total = float(np.sum(mesh.widths * entropy_cell(
                state.area, state.discharge, 0.0, c, g)))
            if new_total > total + 1e-8 * abs(total):
                violations += 1
            total = new_total
        assert violations == 0


class TestRun:
    def _constants(self, c):
        return PhysicalConstants(c=c)

    def test_empty_run_returns_initial(self):
        mesh = Mesh.uniform(10.0, 8, flat_altitude)
        state = State(area=np.ones(8), discharge=np.zeros(8), time=2.0)
        out = run(state, mesh, KineticParams(), self._constants(10.0),
                  FRICTIONLESS, periodic_boundary, t_end=2.0)
        assert out is state

    def test_rejects_past_t_end(self):
        mesh = Mesh.uniform(10.0, 8, flat_altitude)
        state = State(area=np.ones(8), discharge=np.zeros(8), time=2.0)
        with pytest.raises(ValueError):
            run(state, mesh, KineticParams(), self._constants(10.0),
                FRICTIONLESS, periodic_boundary, t_end=1.0)

    def test_lands_exactly_on_t_end(self):
        mesh = Mesh.uniform(10.0, 8, flat_altitude)
        state = State(area=np.full(8, 2.0), discharge=np.zeros(8))
        t_end = 0.0137
        out = run(state, mesh, KineticParams(cfl=0.73), self._constants(25.0),
                  FRICTIONLESS, periodic_boundary, t_end=t_end)
        assert out.time == t_end

    def test_uniform_flow_preserved(self):
        mesh = Mesh.uniform(10.0, 20, flat_altitude)
        state = State(area=np.full(20, 2.0), discharge=np.full(20, 1.0))
        c = 10.0
        steps = []
        out = run(state, mesh, KineticParams(cfl=1.0), self._constants(c),
                  FRICTIONLESS, periodic_boundary,
                  t_end=100 * mesh.min_width / (0.5 + c * SQRT3),
                  observer=lambda s: steps.append(s.time))
        assert len(steps) >= 100
        assert out.area == pytest.approx(state.area, rel=1e-10)
        assert out.discharge == pytest.approx(state.discharge, rel=1e-10)

    def test_stalled_time_raises(self):
        # at t = 1e15 a CFL step of about 1e-3 s no longer changes the time,
        # which used to loop forever
        mesh = Mesh.uniform(10.0, 8, flat_altitude)
        state = State(area=np.full(8, 2.0), discharge=np.zeros(8), time=1e15)
        with pytest.raises(SolverError,
                           match=r"dt=0\.057735 makes no progress at t=1000000000000000\.0"):
            run(state, mesh, KineticParams(), self._constants(10.0), FRICTIONLESS,
                periodic_boundary, t_end=1e15 + 1.0)

    def test_observer_sees_monotone_times(self):
        mesh = Mesh.uniform(10.0, 8, flat_altitude)
        state = State(area=np.full(8, 2.0), discharge=np.zeros(8))
        times = []
        run(state, mesh, KineticParams(), self._constants(40.0), FRICTIONLESS,
            periodic_boundary, t_end=0.05, observer=lambda s: times.append(s.time))
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert times[-1] == 0.05
