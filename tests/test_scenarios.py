import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import bisect_total_head_area
from pipewave.core import (LinearAltitude, PhysicalConstants, PipeGeometry,
                           SolverError, State, area_from_piezometric_head,
                           total_head)
from pipewave.kinetic import cfl_timestep, run, step
from pipewave.scenarios import (Periodic, PrescribedDischarge, ReservoirHead,
                                Scenario, ValveClosure, Wall, ghost_states,
                                steady_state_init)



def section4_scenario(cells=100, t_end=10.0, c=1086.6, angle_deg=-5.0, q0=10.0):
    geometry = PipeGeometry(
        length=2000.0, section=2.0,
        altitude=LinearAltitude(upstream_z=250.0, angle_deg=angle_deg))
    return Scenario(
        geometry=geometry, constants=PhysicalConstants(c=c),
        mesh_cells=cells,
        upstream=ReservoirHead(total_head=300.0),
        downstream=PrescribedDischarge(law=ValveClosure(q0=q0, t_close=5.0)),
        initial_discharge=q0, t_end=t_end, output_stride=10, probes=(1000.0,))


class TestValveClosure:
    linear = ValveClosure(q0=10.0, t_close=5.0)

    def test_initial_discharge(self):
        assert self.linear(0.0) == 10.0

    def test_closed_afterwards(self):
        assert self.linear(5.0) == 0.0
        assert self.linear(7.3) == 0.0

    def test_linear_midpoint(self):
        assert self.linear(2.5) == pytest.approx(5.0)

    def test_continuous_non_increasing_hits_zero(self):
        ts = np.linspace(0.0, 8.0, 2000)
        qs = np.array([self.linear(t) for t in ts])
        assert np.all(np.diff(qs) <= 1e-12)
        assert qs[-1] == 0.0
        gaps = np.abs(np.diff(qs))
        assert np.max(gaps) < 10.0 * 2 * (ts[1] - ts[0])   # no jumps

    def test_cosine_variant(self):
        law = ValveClosure(q0=10.0, t_close=5.0, kind="cosine")
        assert law(0.0) == pytest.approx(10.0)
        assert law(2.5) == pytest.approx(5.0)
        assert law(5.0) == 0.0

    def test_instant_variant(self):
        # a zero closure duration shuts the valve at once, whatever the ramp
        for kind in ("linear", "cosine"):
            law = ValveClosure(q0=10.0, t_close=0.0, kind=kind)
            assert law(0.0) == 0.0
            assert law(7.3) == 0.0

    @pytest.mark.parametrize("t_close", [-1.0, float("nan"), float("inf")])
    def test_closure_duration_finite_and_non_negative(self, t_close):
        with pytest.raises(ValueError, match=rf"^t_close: must lie in \[0, inf\), "
                                             rf"got {t_close}$"):
            ValveClosure(q0=10.0, t_close=t_close)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ValveClosure(q0=1.0, t_close=1.0, kind="quadratic")

    @pytest.mark.parametrize("kind", ["linear", "cosine"])
    @pytest.mark.parametrize("t_close", [0.0, 5.0])
    def test_open_before_time_zero(self, kind, t_close):
        # the instant law used to divide by zero at t < 0, and the ramps rose
        # above q0
        law = ValveClosure(q0=10.0, t_close=t_close, kind=kind)
        for t in (-1.0, -1e-300, -7.3, -float("inf")):
            assert law(t) == 10.0

    @pytest.mark.parametrize("kind", ["linear", "cosine"])
    def test_times_from_zero_keep_their_bits(self, kind):
        # the ramp as written before times below zero were open: t >= 0
        # gives these bits, the closure instant and beyond included
        rng = np.random.default_rng(6)
        for t_close in (0.0, 5.0, float(rng.uniform(0.1, 9.0))):
            law = ValveClosure(q0=10.0, t_close=t_close, kind=kind)
            times = np.concatenate([[0.0, 5e-324, t_close, np.nextafter(t_close, 0.0), 9.0],
                                    rng.uniform(0.0, 1.2 * t_close + 1.0, 500)])
            for t in times.tolist():
                if t >= t_close:
                    want = 0.0
                elif kind == "cosine":
                    want = 10.0 * 0.5 * (1.0 + math.cos(math.pi * t / t_close))
                else:
                    want = 10.0 * (1.0 - t / t_close)
                assert law(t).hex() == want.hex()


class TestScenarioValidation:
    def test_needs_two_cells(self):
        with pytest.raises(ValueError):
            section4_scenario(cells=1)

    def test_probe_inside_pipe(self):
        scenario = section4_scenario()
        with pytest.raises(ValueError):
            Scenario(**{**scenario.__dict__, "probes": (2500.0,)})

    def test_periodic_both_or_neither(self):
        scenario = section4_scenario()
        with pytest.raises(ValueError):
            Scenario(**{**scenario.__dict__, "upstream": Periodic()})

    @pytest.mark.parametrize("t_end", [-1.0, float("nan"), float("inf")])
    def test_end_time_finite_and_non_negative(self, t_end):
        # both solvers march to the scenario's t_end, so neither can be sent
        # towards nan (0 steps, silently) or inf (forever)
        rule = "non-negative" if t_end < 0 else "finite"
        with pytest.raises(ValueError, match=rf"^t_end: must be {rule}, got {t_end}$"):
            section4_scenario(t_end=t_end)

    @pytest.mark.parametrize("field,value", [("mesh_cells", 20.5), ("mesh_cells", 20.0),
                                             ("output_stride", 2.5)])
    def test_counts_must_be_integers(self, field, value):
        # 20.5 cells built 21 cells with bottoms sampled as if there were
        # 20.5, and the MOC grid then failed in np.linspace; a stride of 2.5
        # sampled every 5th step
        with pytest.raises(ValueError, match=rf"^{field}: must be an integer, got {value}$"):
            replace(section4_scenario(), **{field: value})

    @pytest.mark.parametrize("field", ["mesh_cells", "output_stride"])
    def test_counts_given_as_text_are_not_integers(self, field):
        # the range rows compared the text with a number and raised TypeError
        with pytest.raises(ValueError, match=rf"^{field}: must be an integer, got 20$"):
            replace(section4_scenario(), **{field: "20"})

    def test_reservoir_must_cover_crown(self):
        scenario = section4_scenario()
        with pytest.raises(ValueError):
            Scenario(**{**scenario.__dict__,
                        "upstream": ReservoirHead(total_head=251.0)})


class TestSteadyStateInit:
    def test_flat_rest_is_uniform_closed_form(self):
        scenario = section4_scenario(angle_deg=0.0, q0=0.0)
        mesh = scenario.mesh()
        state = steady_state_init(scenario, mesh)
        c, g = scenario.constants.c, scenario.constants.g
        geom = scenario.geometry
        expected = geom.section * (1.0 + g * (300.0 - 250.0 - geom.diameter) / (c * c))
        assert state.discharge == pytest.approx(np.zeros(mesh.n))
        assert state.area == pytest.approx(np.full(mesh.n, expected), rel=1e-12)

    def test_sloped_rest_has_constant_potential(self):
        scenario = section4_scenario(q0=0.0)
        mesh = scenario.mesh()
        state = steady_state_init(scenario, mesh)
        c, g = scenario.constants.c, scenario.constants.g
        potential = g * mesh.z_cells + c * c * np.log(state.area)
        assert np.max(potential) - np.min(potential) <= 1e-12 * np.max(np.abs(potential))

    def test_flowing_profile_matches_bisection_oracle(self):
        scenario = section4_scenario()
        mesh = scenario.mesh()
        state = steady_state_init(scenario, mesh)
        c, g = scenario.constants.c, scenario.constants.g
        heads = total_head(state.area, state.velocity, mesh.z_cells, c, g)
        head_const = float(heads[0])
        for i in range(0, mesh.n, 7):
            oracle = bisect_total_head_area(mesh.z_cells[i], 10.0, head_const, c, g)
            assert state.area[i] == pytest.approx(oracle, rel=1e-10)

    def test_total_head_constant_across_cells(self):
        scenario = section4_scenario()
        mesh = scenario.mesh()
        state = steady_state_init(scenario, mesh)
        heads = total_head(state.area, state.velocity, mesh.z_cells,
                           scenario.constants.c, scenario.constants.g)
        assert (np.max(heads) - np.min(heads)) <= 1e-10 * np.max(np.abs(heads))

    def test_requires_reservoir_upstream(self):
        scenario = section4_scenario()
        bad = Scenario(**{**scenario.__dict__, "upstream": Wall(),
                          "downstream": Wall()})
        with pytest.raises(ValueError):
            steady_state_init(bad, bad.mesh())


class TestGhostStates:
    def test_wall_mirror(self):
        scenario = section4_scenario()
        mesh = scenario.mesh()
        state = State(area=np.linspace(2.0, 2.1, mesh.n),
                      discharge=np.linspace(3.0, 4.0, mesh.n))
        (a_l, q_l), (a_r, q_r) = ghost_states(
            state, mesh, Wall(), Wall(),
            scenario.constants.c, scenario.constants.g, scenario.geometry)
        assert (a_l, q_l) == (2.0, -3.0)
        assert (a_r, q_r) == (2.1, -4.0)

    def test_periodic_wraps(self):
        scenario = section4_scenario()
        mesh = scenario.mesh()
        state = State(area=np.linspace(2.0, 2.1, mesh.n),
                      discharge=np.linspace(3.0, 4.0, mesh.n))
        (a_l, q_l), (a_r, q_r) = ghost_states(
            state, mesh, Periodic(), Periodic(),
            scenario.constants.c, scenario.constants.g, scenario.geometry)
        assert (a_l, q_l) == (2.1, 4.0)
        assert (a_r, q_r) == (2.0, 3.0)

    def test_prescribed_discharge_after_closure(self):
        scenario = section4_scenario()
        mesh = scenario.mesh()
        area = np.full(mesh.n, 2.1)
        state = State(area=area, discharge=np.full(mesh.n, 4.0), time=6.0)
        law = PrescribedDischarge(law=ValveClosure(q0=10.0, t_close=5.0))
        _, (a_r, q_r) = ghost_states(state, mesh, Wall(), law, scenario.constants.c,
                                     scenario.constants.g, scenario.geometry)
        assert (a_r, q_r) == (2.1, 0.0)

    def test_reservoir_inversion_reproduces_head(self):
        scenario = section4_scenario()
        mesh = scenario.mesh()
        state = steady_state_init(scenario, mesh)
        (a_l, q_l), _ = ghost_states(
            state, mesh, scenario.upstream, scenario.downstream,
            scenario.constants.c, scenario.constants.g, scenario.geometry)
        c, g = scenario.constants.c, scenario.constants.g
        geom = scenario.geometry
        u = q_l / a_l
        head = (float(mesh.z_cells[0]) + geom.diameter
                + c * c * (a_l / geom.section - 1.0) / g + 0.5 * u * u / g)
        assert head == pytest.approx(300.0, abs=1e-9)
        assert u == pytest.approx(state.velocity[0], rel=1e-12)

    def test_reservoir_below_pipe_errors(self):
        scenario = section4_scenario()
        mesh = scenario.mesh()
        state = steady_state_init(scenario, mesh)
        with pytest.raises(SolverError, match="non-positive wetted area"):
            ghost_states(state, mesh, ReservoirHead(total_head=-1e6), Wall(),
                         scenario.constants.c, scenario.constants.g,
                         scenario.geometry)

    def test_reservoir_ghost_equals_array_inversion_bitwise(self):
        # the scalar closed form of ReservoirHead.ghost against the array inversion
        # of core, over random reservoir heads and interior states; slow
        # waves make the head term of order one, so a reordered operation
        # changes the last bits instead of vanishing in 1.0 + term
        scenario = section4_scenario()
        mesh = scenario.mesh()
        g = scenario.constants.g
        geom = scenario.geometry
        rng = np.random.default_rng(17)
        for _ in range(200):
            c = float(rng.uniform(20.0, 60.0))
            state = State(area=rng.uniform(1.9, 2.1, mesh.n),
                          discharge=rng.uniform(-15.0, 15.0, mesh.n))
            up = ReservoirHead(total_head=float(rng.uniform(260.0, 900.0)))
            down = ReservoirHead(total_head=float(rng.uniform(100.0, 700.0)))
            ghosts = ghost_states(state, mesh, up, down, c, g, geom)
            for bc, (a_ghost, q_ghost), i in zip((up, down), ghosts, (0, -1)):
                u = float(state.discharge[i]) / float(state.area[i])
                expected = float(area_from_piezometric_head(
                    bc.total_head - 0.5 * u * u / g, geom.section,
                    float(mesh.z_cells[i]), geom.diameter, c, g))
                assert np.float64(a_ghost).tobytes() == np.float64(expected).tobytes()
                assert np.float64(q_ghost).tobytes() == np.float64(expected * u).tobytes()

    def test_reservoir_nan_head_errors(self):
        scenario = section4_scenario()
        mesh = scenario.mesh()
        state = steady_state_init(scenario, mesh)
        with pytest.raises(SolverError, match="non-positive wetted area"):
            ghost_states(state, mesh, Wall(), ReservoirHead(total_head=float("nan")),
                         scenario.constants.c, scenario.constants.g,
                         scenario.geometry)


class TestSteadyRunProperties:
    def test_rest_state_stays_at_rest(self):
        # at-rest scenario: the hydrostatic reconstruction keeps it at rest
        scenario = section4_scenario(q0=0.0, t_end=0.0)
        scenario = Scenario(**{**scenario.__dict__,
                               "downstream": Wall(), "upstream": Wall()})
        mesh = scenario.mesh()
        c, g = scenario.constants.c, scenario.constants.g
        area = scenario.geometry.section * np.exp(
            -g * (mesh.z_cells - mesh.z_cells[0]) / (c * c))
        state = State(area=area, discharge=np.zeros(mesh.n))
        for _ in range(100):
            dt = cfl_timestep(state, c, mesh, 0.8)
            state = step(state, mesh, c, g, dt, scenario.upstream,
                         scenario.downstream, scenario.geometry)
        assert np.max(np.abs(state.discharge)) <= 1e-5 * np.max(area) * c

    def test_flowing_state_drift_is_bounded(self):
        # moving steady states are preserved approximately (first order);
        # keep the valve open so the boundary condition is itself steady
        scenario = section4_scenario(t_end=2.0, cells=100)
        scenario = Scenario(**{**scenario.__dict__,
                               "downstream": PrescribedDischarge(law=lambda t: 10.0)})
        out = run(replace(scenario, t_end=1.0), 0.8)
        assert np.max(np.abs(out.discharge - 10.0)) / 10.0 <= 0.01

    def test_wall_boundaries_conserve_mass(self):
        scenario = section4_scenario(q0=0.0)
        scenario = Scenario(**{**scenario.__dict__, "upstream": Wall(),
                               "downstream": Wall()})
        mesh = scenario.mesh()
        c, g = scenario.constants.c, scenario.constants.g
        rng = np.random.default_rng(4)
        area = 2.0 + 0.1 * rng.random(mesh.n)
        state = State(area=area, discharge=np.zeros(mesh.n))
        mass0 = np.sum(mesh.width * state.area)
        for _ in range(200):
            dt = cfl_timestep(state, c, mesh, 0.9)
            state = step(state, mesh, c, g, dt, scenario.upstream,
                         scenario.downstream, scenario.geometry)
        assert np.sum(mesh.width * state.area) == pytest.approx(mass0, rel=1e-12)
