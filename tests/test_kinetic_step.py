import gc
import math
import re
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import quad_interface_fluxes, strickler_coefficient
from pipewave import kinetic
from pipewave.config import load_config
from pipewave.core import (LinearAltitude, Mesh, PhysicalConstants, PipeGeometry,
                           SolverError, State, entropy_cell, march)
from pipewave.kinetic import SQRT3, cfl_timestep, run, step
from pipewave.runner import compare_runs
from pipewave.scenarios import (PrescribedDischarge, Periodic, ReservoirHead, Scenario,
                                Wall, ghost_states, steady_state_init)

REPO_ROOT = Path(__file__).resolve().parent.parent


def flat_altitude(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def reference_fluxes(a_ext, q_ext, w_left, w_right, c):
    """(F_A, F_Q) at each interface of the ghost-extended cells, written out
    per cell and per interface: each cell's rectangle [u - s, u + s] split at
    xi = 0 into its xi >= 0 half over [max(u - s, 0), max(u + s, 0)] and its
    xi <= 0 half over [min(u - s, 0), min(u + s, 0)], with mass
    A (hi^2 - lo^2) / (4 s) and momentum A (hi^3 - lo^3) / (6 s); interface j
    takes w_left[j] times the xi >= 0 half of cell j plus w_right[j] times
    the xi <= 0 half of cell j + 1.  The clamps give the kernel's bits on
    finite fluxes; an overflowing speed is not drawn here."""
    s = c * SQRT3

    def half(a, lo, hi):
        return ((hi * hi - lo * lo) * ((0.25 / s) * a),
                (hi * hi * hi - lo * lo * lo) * ((1.0 / (6.0 * s)) * a))

    right_going, left_going = [], []
    for a, q in zip(a_ext.tolist(), q_ext.tolist()):
        u = q / a
        right_going.append(half(a, max(u - s, 0.0), max(u + s, 0.0)))
        left_going.append(half(a, min(u - s, 0.0), min(u + s, 0.0)))
    f_a, f_q = [], []
    for j in range(len(a_ext) - 1):
        (p_a, p_q), (m_a, m_q) = right_going[j], left_going[j + 1]
        f_a.append(w_left[j] * p_a + w_right[j] * m_a)
        f_q.append(w_left[j] * p_q + w_right[j] * m_q)
    return np.array(f_a), np.array(f_q)


def reference_step(state, mesh, c, g, dt, upstream, downstream, geometry, fault=None):
    """One step written plainly: the CFL speed of ``state`` recomputed from
    its arrays, the fluxes of ``reference_fluxes`` (after ``fault``, if given,
    edits them in place), a cell update that gives each cell back the
    pressure c^2 (A - A*) the reconstruction removed on its two sides,
    admissibility decided by a full mask (0 < A < inf and Q/A finite, so a
    finite Q whose Q/A overflows is rejected), and a new state that computes
    its own ``max_abs_velocity`` when asked.  The lean ``step`` must
    reproduce it bit for bit, errors included."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    speed = float(np.max(np.abs(state.discharge / state.area))) + c * SQRT3
    if dt * speed > mesh.width * kinetic._CFL_SLACK:
        raise SolverError(
            f"dt={dt:g} violates the CFL condition: dt*max(|u|+c*sqrt(3))="
            f"{dt * speed:g} > cell width {mesh.width:g}")
    (a_gl, q_gl), (a_gr, q_gr) = ghost_states(state, mesh, upstream, downstream, c, g,
                                              geometry)

    a, q = state.area, state.discharge
    a_ext = np.concatenate([[a_gl], a, [a_gr]])
    q_ext = np.concatenate([[q_gl], q, [q_gr]])
    w_left, w_right = mesh.rest_factors(c, g)
    f_a, f_q = reference_fluxes(a_ext, q_ext, w_left, w_right, c)
    if fault is not None:
        fault(f_a, f_q)
    ratio = dt / mesh.width
    a_new = np.empty(state.n)
    q_new = np.empty(state.n)
    for i in range(state.n):       # cell i lies between interfaces i and i + 1
        lost = (w_right[i] - w_left[i + 1]) * (c * c) * a[i]
        a_new[i] = a[i] - (f_a[i + 1] - f_a[i]) * ratio
        q_new[i] = q[i] - ((f_q[i + 1] - f_q[i]) + lost) * ratio

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        admissible = np.isfinite(q_new / a_new) & (a_new > 0) & (a_new < math.inf)
    if not admissible.all():
        i = int(np.argmin(admissible))
        raise SolverError(f"cell {i} left the admissible states at t={state.time + dt!r}: "
                          f"A={float(a_new[i])!r}, Q={float(q_new[i])!r}")
    if geometry.strickler is not None:
        k = strickler_coefficient(geometry.strickler, geometry.section)
        q_new = q_new / (1.0 + dt * g * k * np.abs(q_new / a_new))
    return State._checked(a_new, q_new, state.time + dt)


def smooth_pipe(mesh):
    """A pipe without roughness as long as ``mesh``: wall and periodic ends
    and the frictionless update read nothing else of it."""
    return PipeGeometry(mesh.length, 1.0, flat_altitude)


def same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


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
        new = step(state, mesh, c, g, dt, Periodic(), Periodic(), smooth_pipe(mesh))
        assert new.area == pytest.approx(state.area, rel=1e-12)
        assert new.discharge == pytest.approx(state.discharge, rel=1e-12)

    def test_cfl_violation_rejected(self):
        mesh = Mesh.uniform(10.0, 8, flat_altitude)
        state = State(area=np.ones(8), discharge=np.zeros(8))
        c = 10.0
        dt_max = mesh.width / (c * SQRT3)
        with pytest.raises(SolverError):
            step(state, mesh, c, 9.81, 1.5 * dt_max, Periodic(), Periodic(),
                 smooth_pipe(mesh))

    def test_matches_quadrature_driven_update(self):
        rng = np.random.default_rng(31)
        c, g = 8.0, 9.81
        n = 6
        for _ in range(5):
            area = rng.uniform(0.5, 4.0, n)
            u = rng.uniform(-0.5 * c, 0.5 * c, n)
            z = np.cumsum(rng.uniform(-0.4, 0.4, n))
            mesh = Mesh(float(n), z)
            state = State(area=area, discharge=area * u)
            dt = cfl_timestep(state, c, mesh, 0.9)
            new = step(state, mesh, c, g, dt, Periodic(), Periodic(), smooth_pipe(mesh))

            # independent update: the hydrostatic reconstruction at
            # z* = max(z_L, z_R), written out per interface, then the flux of
            # the reconstructed states by quadrature over a flat bottom, plus
            # the pressure c^2 (A - A*) the reconstruction removed on each side
            a_ext = np.concatenate([area[-1:], area, area[:1]])
            q_ext = np.concatenate([(area * u)[-1:], area * u, (area * u)[:1]])
            z_ext = np.concatenate([z[:1], z, z[-1:]])
            fm = np.zeros((n + 1, 2))
            fp = np.zeros((n + 1, 2))
            for i in range(n + 1):
                z_star = max(z_ext[i], z_ext[i + 1])
                shrink_l = math.exp(-g * (z_star - z_ext[i]) / (c * c))
                shrink_r = math.exp(-g * (z_star - z_ext[i + 1]) / (c * c))
                a_l, a_r = a_ext[i] * shrink_l, a_ext[i + 1] * shrink_r
                (fm[i, 0], fm[i, 1]), (fp[i, 0], fp[i, 1]) = quad_interface_fluxes(
                    a_l, q_ext[i] * shrink_l, a_r, q_ext[i + 1] * shrink_r,
                    z_star, z_star, c, g)
                fm[i, 1] += c * c * (a_ext[i] - a_l)
                fp[i, 1] += c * c * (a_ext[i + 1] - a_r)
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
            mesh = Mesh(float(n), z)
            state = State(area=area, discharge=area * u)
            dt = cfl_timestep(state, c, mesh, 1.0)
            new = step(state, mesh, c, g, dt, Wall(), Wall(), smooth_pipe(mesh))
            assert np.all(new.area > 0)

    def test_conservation_periodic(self):
        rng = np.random.default_rng(12)
        mesh = Mesh.uniform(50.0, 40, flat_altitude)
        c, g = 20.0, 9.81
        area = 2.0 + 0.4 * np.sin(2 * np.pi * mesh.centers / 50.0)
        u = 0.1 * c * np.cos(2 * np.pi * mesh.centers / 50.0) + 0.05 * c * rng.random(40)
        state = State(area=area, discharge=area * u)
        mass0 = np.sum(mesh.width * state.area)
        mom0 = np.sum(mesh.width * state.discharge)
        for _ in range(200):
            dt = cfl_timestep(state, c, mesh, 0.9)
            state = step(state, mesh, c, g, dt, Periodic(), Periodic(), smooth_pipe(mesh))
        assert np.sum(mesh.width * state.area) == pytest.approx(mass0, rel=1e-12)
        assert np.sum(mesh.width * state.discharge) == pytest.approx(
            mom0, abs=1e-12 * mass0 * c)

    def test_mirror_symmetry_commutes(self):
        rng = np.random.default_rng(8)
        n = 24
        c, g = 15.0, 9.81
        z = np.cumsum(rng.uniform(-0.3, 0.3, n))
        mesh = Mesh(12.0, z)
        area = rng.uniform(1.0, 3.0, n)
        q = rng.uniform(-1.0, 1.0, n) * area * c * 0.3
        state = State(area=area, discharge=q)
        dt = cfl_timestep(state, c, mesh, 0.9)

        stepped = step(state, mesh, c, g, dt, Wall(), Wall(), smooth_pipe(mesh))
        mirrored_first = State(area=area[::-1], discharge=-q[::-1])
        mesh_m = Mesh(12.0, z[::-1])
        stepped_mirrored = step(mirrored_first, mesh_m, c, g, dt, Wall(), Wall(),
                                smooth_pipe(mesh_m))
        assert stepped_mirrored.area == pytest.approx(stepped.area[::-1], rel=1e-12)
        assert stepped_mirrored.discharge == pytest.approx(
            -stepped.discharge[::-1], rel=1e-12, abs=1e-13 * np.max(area) * c)

    def test_friction_relaxes_discharge(self):
        geom = PipeGeometry(length=10.0, section=2.0, altitude=LinearAltitude(0.0, 0.0),
                            strickler=30.0)
        mesh = Mesh.uniform(10.0, 8, flat_altitude)
        state = State(area=np.full(8, 2.0), discharge=np.full(8, 6.0))
        c, g = 50.0, 9.81
        dt = cfl_timestep(state, c, mesh, 0.9)
        ends = Periodic(), Periodic()
        with_friction = step(state, mesh, c, g, dt, *ends, geom)
        without = step(state, mesh, c, g, dt, *ends, replace(geom, strickler=None))
        assert np.all(with_friction.discharge < without.discharge)
        assert np.all(with_friction.discharge > 0)
        assert with_friction.area == pytest.approx(without.area, rel=1e-15)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("ghost", [(np.nan, 0.0), (np.inf, 0.0), (-1.0, 0.0),
                                       (2.0, np.nan), (2.0, -np.inf), (5e-324, 1.0)],
                             ids=["nan-area", "inf-area", "negative-area",
                                  "nan-discharge", "inf-discharge", "speed-overflow"])
    def test_invalid_ghost_rejected(self, side, ghost):
        # NaN compares False with everything, so a bare "area <= 0" guard
        # let a NaN ghost through and the step silently lost mass; a finite
        # ghost whose Q/A overflows used to surface as a NaN interior cell
        mesh = Mesh.uniform(10.0, 4, flat_altitude)
        state = State(area=np.full(4, 2.0), discharge=np.zeros(4))

        bad = SimpleNamespace(ghost=lambda *args: ghost)
        valid = SimpleNamespace(ghost=lambda *args: (2.0, 0.0))
        ends = (bad, valid) if side == "left" else (valid, bad)
        dt = cfl_timestep(state, 10.0, mesh, 0.8)
        with pytest.raises(SolverError,
                           match=f"{side} ghost cell: A={ghost[0]!r}, Q={ghost[1]!r}"):
            step(state, mesh, 10.0, 9.81, dt, *ends, smooth_pipe(mesh))

    def test_prescribed_discharge_read_at_state_time(self):
        # ghost_states takes the time from the state it is handed
        mesh = Mesh.uniform(10.0, 4, flat_altitude)
        state = State(area=np.full(4, 2.0), discharge=np.zeros(4), time=3.25)
        times = []

        def law(t):
            times.append(t)
            return 0.0

        step(state, mesh, 10.0, 9.81, cfl_timestep(state, 10.0, mesh, 0.8),
             Wall(), PrescribedDischarge(law=law), smooth_pipe(mesh))
        assert times == [3.25]

    def test_non_finite_update_rejected(self):
        # Q^2 overflows in the flux kernel; the NaN area passed the bare
        # "area <= 0" guard and surfaced as a ValueError from State
        mesh = Mesh.uniform(10.0, 4, flat_altitude)
        discharge = np.zeros(4)
        discharge[1] = 1e160
        state = State(area=np.full(4, 2.0), discharge=discharge)
        dt = cfl_timestep(state, 10.0, mesh, 0.8)
        with np.errstate(all="ignore"), pytest.raises(
                SolverError, match=rf"cell 0 .* at t={dt!r}: A=nan, Q=nan"):
            step(state, mesh, 10.0, 9.81, dt, Wall(), Wall(), smooth_pipe(mesh))

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
    def test_non_positive_dt_rejected(self, dt):
        # a NaN dt passed a bare "dt <= 0" guard, and the step then blamed
        # cell 0 for leaving the admissible states at t=nan
        mesh = Mesh.uniform(10.0, 4, flat_altitude)
        state = State(area=np.full(4, 2.0), discharge=np.zeros(4))
        with pytest.raises(ValueError, match=rf"^dt must be positive, got {dt!r}$"):
            step(state, mesh, 10.0, 9.81, dt, Wall(), Wall(), smooth_pipe(mesh))

    def test_state_and_mesh_sizes_must_agree(self):
        # numpy used to reject the ghost-extended block with "operands could
        # not be broadcast together", naming neither size
        mesh = Mesh.uniform(10.0, 20, flat_altitude)
        state = State(area=np.full(30, 2.0), discharge=np.zeros(30))
        with pytest.raises(ValueError, match=r"^the state has 30 cells, the mesh 20$"):
            step(state, mesh, 10.0, 9.81, 1e-3, Wall(), Wall(), smooth_pipe(mesh))


ENDS = {"wall": Wall(), "periodic": Periodic()}


def breaking_fault(kind, cell, area, ratio):
    """An edit of the interface fluxes (F_A, F_Q) that zeroes cell ``cell``'s
    left flux and replaces its right one so that its update, with ``ratio``
    = dt / width a power of two, lands exactly on one inadmissible value, or
    on a tiny area whose finite Q/A overflows."""
    def fault(f_a, f_q):
        f_a[cell] = f_q[cell] = 0.0
        if kind == "nan-discharge":
            f_q[cell + 1] = math.nan
        elif kind == "zero-area":
            f_a[cell + 1] = area / ratio
        elif kind == "negative-area":
            f_a[cell + 1] = 2.0 * area / ratio
        elif kind == "inf-area":
            f_a[cell + 1] = -math.inf
        elif kind == "speed-overflow":           # A' = one ulp, Q' ~ 1e305 dt
            f_a[cell + 1] = np.nextafter(area, 0.0) / ratio
            f_q[cell + 1] = -1e305
    return fault


def breaking_kernel(fault):
    """The run path's flux kernel with ``fault`` applied to its fluxes."""
    kernel = kinetic._interface_flux_arrays

    def broken(*args):
        f = kernel(*args)
        fault(f[0], f[1])
        return f
    return broken


def outcome(stepper, *args):
    try:
        return stepper(*args)
    except SolverError as exc:
        return str(exc)


class TestLeanStep:
    """``step`` tests admissibility with min/max reductions and hands the new
    state's max |u| forward; it must match ``reference_step`` bit for bit."""

    @pytest.mark.parametrize("kind", ["none", "nan-discharge", "zero-area",
                                      "negative-area", "inf-area", "speed-overflow"])
    @pytest.mark.parametrize("strickler", [None, 30.0], ids=["frictionless", "friction"])
    @pytest.mark.parametrize("ends", sorted(ENDS))
    def test_bitwise_equal_to_reference(self, ends, strickler, kind, monkeypatch):
        geometry = PipeGeometry(length=10.0, section=2.0, altitude=LinearAltitude(0.0, 0.0),
                                strickler=strickler)
        rng = np.random.default_rng(23)
        g = 9.81
        for _ in range(8):
            n = int(rng.integers(3, 9))
            c = float(rng.uniform(2.0, 20.0))
            mesh = Mesh(float(n), np.cumsum(rng.uniform(-0.5, 0.5, n)))
            area = rng.uniform(0.5, 5.0, n)
            state = State(area=area, discharge=area * rng.uniform(-c, c, n))
            law = ENDS[ends]
            lean, ref = state, state
            for k in range(4):                     # each marches its own output
                dt = 2.0 ** math.floor(math.log2(cfl_timestep(ref, c, mesh, 0.9)))
                fault = None
                if k == 3 and kind != "none":
                    cell = int(rng.integers(n))
                    fault = breaking_fault(kind, cell, float(ref.area[cell]), dt)
                    monkeypatch.setattr(kinetic, "_interface_flux_arrays",
                                        breaking_kernel(fault))
                with np.errstate(over="ignore"):
                    args = (mesh, c, g, dt, law, law, geometry)
                    lean = outcome(step, lean, *args)
                    ref = outcome(reference_step, ref, *args, fault)
                    monkeypatch.undo()
                    if isinstance(ref, str):
                        assert lean == ref
                        assert f"cell {cell} left the admissible states" in ref
                        break
                    assert same_bits(lean.area, ref.area)
                    assert same_bits(lean.discharge, ref.discharge)
                    assert lean.time == ref.time
                    # handed forward only without friction, and always the
                    # value the property computes from the arrays
                    assert ("max_abs_velocity" in vars(lean)) is (strickler is None)
                    assert lean.max_abs_velocity == ref.max_abs_velocity
                    assert lean.max_abs_velocity == State(
                        area=lean.area, discharge=lean.discharge).max_abs_velocity
            else:
                # a finite Q whose Q/A overflows is inadmissible, with or
                # without friction
                assert kind == "none"
                assert lean.max_abs_velocity < math.inf


class TestWorkspace:
    """A mesh keeps one scratch workspace per (c, g) that its steps write
    into; the states they return share no memory with it."""

    @pytest.mark.parametrize("strickler", [None, 80.0], ids=["frictionless", "friction"])
    def test_marched_states_keep_their_bits(self, strickler):
        # a 2,000-step surge: each state still holds the bits it was
        # returned with after every later step on the same mesh
        geometry = PipeGeometry(2000.0, 2.0, LinearAltitude(250.0, -5.0), strickler)
        scenario = Scenario(geometry=geometry, constants=PhysicalConstants(c=1086.6),
                            mesh_cells=20, upstream=ReservoirHead(300.0),
                            downstream=PrescribedDischarge(law=lambda t: 10.0 * (t < 5.0)),
                            initial_discharge=10.0, t_end=100.0)
        mesh = scenario.mesh()
        c, g = scenario.constants.c, scenario.constants.g
        state = steady_state_init(scenario, mesh)
        marched = []
        for _ in range(2000):
            dt = cfl_timestep(state, c, mesh, 0.8)
            state = step(state, mesh, c, g, dt, scenario.upstream, scenario.downstream, geometry)
            marched.append((state, state.area.tobytes(), state.discharge.tobytes()))
        (work,) = mesh._workspaces.values()
        scratch = [v for v in vars(work).values() if isinstance(v, np.ndarray)]
        for state, area, discharge in marched:
            assert state.area.tobytes() == area
            assert state.discharge.tobytes() == discharge
            assert not any(np.may_share_memory(x, buffer) for buffer in scratch
                           for x in (state.area, state.discharge))

    def test_one_per_constants_freed_with_its_mesh(self):
        mesh = Mesh.uniform(10.0, 8, flat_altitude)
        state = State(area=np.full(8, 2.0), discharge=np.zeros(8))
        for c in (10.0, 10.0, 20.0):
            step(state, mesh, c, 9.81, 0.01, Periodic(), Periodic(), smooth_pipe(mesh))
        assert list(mesh._workspaces) == [(10.0, 9.81), (20.0, 9.81)]
        # no reference cycle holds a mesh and its scratch: reference
        # counting alone frees them
        freed = weakref.ref(mesh)
        gc.disable()
        try:
            del mesh
            assert freed() is None
        finally:
            gc.enable()


class TestStillWaterBalance:
    """The hydrostatic reconstruction balances a sloped column at rest
    exactly: the drift stays within the first-order envelope g*dz_cell/c^2
    of the plain reflection/transmission upwinding, and the one-step
    imbalance sits at roundoff whatever the cell jump."""

    def test_residual_within_first_order_envelope(self):
        mesh, state, c, g = still_water_setup()
        area0 = state.area.copy()
        for _ in range(100):
            dt = cfl_timestep(state, c, mesh, 0.8)
            state = step(state, mesh, c, g, dt, Wall(), Wall(), smooth_pipe(mesh))
        eps = g * float(np.max(np.abs(np.diff(mesh.z_cells)))) / (c * c)
        assert np.max(np.abs(state.discharge)) / (np.max(area0) * c) <= eps
        assert np.max(np.abs(state.area - area0) / area0) <= eps

    def test_residual_shrinks_with_cell_jump(self):
        # without the reconstruction the one-step imbalance was first order
        # in the cell jump and halved with it; with it there is nothing left
        # to shrink, so every resolution must sit at roundoff
        for cells in (50, 100, 200):
            mesh, state, c, g = still_water_setup(cells=cells)
            dt = cfl_timestep(state, c, mesh, 0.8)
            new = step(state, mesh, c, g, dt, Wall(), Wall(), smooth_pipe(mesh))
            a_max = np.max(state.area)
            assert np.max(np.abs(new.area - state.area)) <= 1e-13 * a_max
            assert np.max(np.abs(new.discharge)) <= 1e-13 * a_max * c


class TestEntropyDiagnostic:
    def test_total_entropy_non_increasing_smooth_periodic(self):
        mesh = Mesh.uniform(100.0, 64, flat_altitude)
        c, g = 30.0, 9.81
        x = mesh.centers / 100.0
        area = 2.0 + 0.2 * np.sin(2 * np.pi * x)
        u = 0.05 * c * np.sin(4 * np.pi * x)
        state = State(area=area, discharge=area * u)
        total = float(np.sum(mesh.width * entropy_cell(
            state.area, state.discharge, 0.0, c, g)))
        violations = 0
        for _ in range(500):
            dt = cfl_timestep(state, c, mesh, 0.9)
            state = step(state, mesh, c, g, dt, Periodic(), Periodic(), smooth_pipe(mesh))
            new_total = float(np.sum(mesh.width * entropy_cell(
                state.area, state.discharge, 0.0, c, g)))
            if new_total > total + 1e-8 * abs(total):
                violations += 1
            total = new_total
        assert violations == 0


class TestRun:
    def _scenario(self, c, upstream, downstream, t_end, cells=8, length=10.0):
        """A flat pipe of ``cells`` cells on [0, length]; each test hands
        ``run`` its own initial state."""
        return Scenario(geometry=PipeGeometry(length, 1.0, flat_altitude),
                        constants=PhysicalConstants(c=c), mesh_cells=cells,
                        upstream=upstream, downstream=downstream, initial_discharge=0.0,
                        t_end=t_end)

    def test_empty_run_returns_initial(self):
        state = State(area=np.ones(8), discharge=np.zeros(8), time=2.0)
        out = run(self._scenario(10.0, Periodic(), Periodic(), t_end=2.0), 0.8, initial=state)
        assert out is state

    def test_rejects_cfl_out_of_range(self):
        # checked before the first step, so a zero-length run rejects it too
        state = State(area=np.ones(8), discharge=np.zeros(8), time=2.0)
        for cfl in (0.0, 1.5):
            with pytest.raises(ValueError, match="cfl"):
                run(self._scenario(10.0, Periodic(), Periodic(), t_end=2.0), cfl,
                    initial=state)

    def test_rejects_past_t_end(self):
        state = State(area=np.ones(8), discharge=np.zeros(8), time=2.0)
        with pytest.raises(ValueError):
            run(self._scenario(10.0, Periodic(), Periodic(), t_end=1.0), 0.8, initial=state)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_rejects_non_finite_t_end(self, t_end):
        # nan used to return the initial state after 0 steps and inf to
        # march forever; neither the scenario nor the march it goes through
        # takes one, and the observer stops such a march after 10 steps
        state = State(area=np.full(8, 2.0), discharge=np.zeros(8))
        times = []

        def observer(s):
            times.append(s.time)
            assert len(times) < 10, "marched towards a non-finite t_end"

        with pytest.raises(ValueError, match=rf"^t_end: must be finite, got {t_end}$"):
            run(self._scenario(10.0, Periodic(), Periodic(), t_end=t_end), 0.8,
                observer=observer, initial=state)
        mesh = Mesh.uniform(10.0, 8, flat_altitude)
        with pytest.raises(ValueError, match=rf"^t_end must be finite, got {t_end}$"):
            march(state, t_end, lambda s: step(s, mesh, 10.0, 9.81, 0.01, Periodic(), Periodic(),
                                               smooth_pipe(mesh)), observer)
        assert times == []

    def test_speed_overflow_names_step_and_cell(self, monkeypatch):
        # a tiny area with a finite discharge makes Q/A overflow to inf; the
        # step used to accept it and the run stopped one step later with
        # "time step dt=0 makes no progress", naming no cell
        state = State(area=np.full(4, 2.0), discharge=np.zeros(4))
        advance = kinetic._advance
        calls = []

        def overflowing(*args):
            a_new, q_new = advance(*args)
            calls.append(None)
            if len(calls) == 4:
                a_new[2] = 5e-324
                q_new[2] = 1e303
            return a_new, q_new

        monkeypatch.setattr(kinetic, "_advance", overflowing)
        with np.errstate(over="ignore"), pytest.raises(
                SolverError, match=r"^step 4 from t=.*: cell 2 left the admissible "
                                   r"states at t=.*: A=5e-324, Q=1e\+303$"):
            run(self._scenario(10.0, Wall(), Wall(), t_end=1.0, cells=4, length=4.0), 0.8,
                initial=state)
        assert len(calls) == 4

    def test_initial_state_of_another_mesh_names_both_sizes(self):
        state = State(area=np.full(30, 2.0), discharge=np.zeros(30))
        with pytest.raises(ValueError, match=r"^the state has 30 cells, the mesh 20$"):
            run(self._scenario(10.0, Wall(), Wall(), t_end=1.0, cells=20), 0.8, initial=state)

    def test_lands_exactly_on_t_end(self):
        state = State(area=np.full(8, 2.0), discharge=np.zeros(8))
        t_end = 0.0137
        out = run(self._scenario(25.0, Periodic(), Periodic(), t_end=t_end), 0.73,
                  initial=state)
        assert out.time == t_end

    def test_uniform_flow_preserved(self):
        state = State(area=np.full(20, 2.0), discharge=np.full(20, 1.0))
        c = 10.0
        steps = []
        scenario = self._scenario(c, Periodic(), Periodic(), cells=20,
                                  t_end=100 * 0.5 / (0.5 + c * SQRT3))
        out = run(scenario, 1.0, observer=lambda s: steps.append(s.time), initial=state)
        assert len(steps) >= 100
        assert out.area == pytest.approx(state.area, rel=1e-10)
        assert out.discharge == pytest.approx(state.discharge, rel=1e-10)

    def test_stalled_time_raises(self):
        # at t = 1e15 a CFL step of about 1e-3 s no longer changes the time,
        # which used to loop forever; the march names the step it stalled in
        state = State(area=np.full(8, 2.0), discharge=np.zeros(8), time=1e15)
        with pytest.raises(SolverError,
                           match=r"^step 1 from t=1000000000000000\.0: time step "
                                 r"dt=0\.057735 makes no progress at t=1000000000000000\.0"):
            run(self._scenario(10.0, Periodic(), Periodic(), t_end=1e15 + 1.0), 0.8,
                initial=state)

    def test_diverging_run_names_step_time_and_cell(self):
        # the downstream discharge jumps to 1e160 at t = 0.3: the flux at the
        # last interface overflows and cell 3 leaves the admissible states
        state = State(area=np.full(4, 2.0), discharge=np.zeros(4))
        valve = PrescribedDischarge(law=lambda t: 1e160 if t >= 0.3 else 0.0)

        times = []
        with np.errstate(all="ignore"), pytest.raises(SolverError) as failure:
            run(self._scenario(10.0, Wall(), valve, t_end=1.0, cells=4), 0.8,
                observer=lambda s: times.append(s.time), initial=state)
        assert len(times) >= 2
        assert re.match(rf"step {len(times) + 1} from t={times[-1]!r}: cell 3 left "
                        r"the admissible states at t=\S+: A=nan, Q=nan$",
                        str(failure.value))

    def test_observer_sees_monotone_times(self):
        state = State(area=np.full(8, 2.0), discharge=np.zeros(8))
        times = []
        run(self._scenario(40.0, Periodic(), Periodic(), t_end=0.05), 0.8,
            observer=lambda s: times.append(s.time), initial=state)
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert times[-1] == 0.05

    def test_starts_from_the_steady_state(self):
        scenario = Scenario(
            geometry=PipeGeometry(2000.0, 2.0, LinearAltitude(250.0, angle_deg=-5.0)),
            constants=PhysicalConstants(c=1086.6), mesh_cells=20,
            upstream=ReservoirHead(total_head=300.0),
            downstream=PrescribedDischarge(law=lambda t: 10.0), initial_discharge=10.0,
            t_end=0.05)
        initial = steady_state_init(scenario, scenario.mesh())
        out = run(scenario, 0.8)
        assert out.time == 0.05
        assert out.area.tobytes() == run(scenario, 0.8, initial=initial).area.tobytes()


def test_recorded_run_byte_identical_to_reference(tmp_path, monkeypatch):
    """A short recorded comparison of the shipped scenario (every step probed,
    a snapshot every 10 steps) writes the same bytes whether the march takes
    ``step`` or ``reference_step``; the summaries differ only in wall clock."""
    config = load_config(REPO_ROOT / "waterhammer.cfg")
    config = replace(config, snapshot_stride=10, scenario=replace(
        config.scenario, mesh_cells=50, t_end=2.0, output_stride=1))
    compare_runs(replace(config, output_dir=str(tmp_path / "lean")))
    calls = []

    def counted_reference(*args):
        calls.append(args[0].time)
        return reference_step(*args)

    monkeypatch.setattr(kinetic, "step", counted_reference)
    compare_runs(replace(config, output_dir=str(tmp_path / "reference")))
    assert len(calls) > 100

    def contents(name):
        out = {}
        for path in sorted((tmp_path / name).iterdir()):
            data = path.read_bytes()
            if path.name.endswith("_summary.txt"):
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"wall_clock_s:"))
            out[path.name] = data
        return out

    lean, reference = contents("lean"), contents("reference")
    assert list(lean) == list(reference)
    assert sum(name.startswith("kinetic_snap_") for name in lean) > 10
    for name in lean:
        assert lean[name] == reference[name], name
