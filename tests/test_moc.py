import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import coarse_moc_waterhammer, strickler_coefficient
from pipewave.compare import detect_period
from pipewave.core import LinearAltitude, PhysicalConstants, PipeGeometry, SolverError
from pipewave.moc import MocState, _Track, initial_moc_state, moc_run, moc_step
from pipewave.scenarios import (Periodic, PrescribedDischarge, ReservoirHead, Scenario,
                                ValveClosure, Wall)

G = 9.81


def pipe(section, strickler=None):
    """A flat pipe of ``section``; ``moc_step`` reads its section and
    friction coefficient, not its length or bottom."""
    return PipeGeometry(length=100.0, section=section, altitude=LinearAltitude(0.0, 0.0),
                        strickler=strickler)


PIPE = pipe(2.0)


def section4_scenario(cells=200, t_end=20.0):
    geometry = PipeGeometry(
        length=2000.0, section=2.0,
        altitude=LinearAltitude(upstream_z=250.0, angle_deg=-5.0))
    return Scenario(
        geometry=geometry, constants=PhysicalConstants(c=1086.6),
        mesh_cells=cells,
        upstream=ReservoirHead(total_head=300.0),
        downstream=PrescribedDischarge(law=ValveClosure(q0=10.0, t_close=5.0)),
        initial_discharge=10.0, t_end=t_end, output_stride=1, probes=(1000.0,))


def recorded_states(scenario):
    """The states a recorder samples from ``moc_run``: the initial state,
    every ``output_stride``-th step and the final state."""
    states = [initial_moc_state(scenario)]
    steps = 0

    def observer(state):
        nonlocal steps
        steps += 1
        if steps % scenario.output_stride == 0:
            states.append(state)

    final = moc_run(scenario, observer=observer)
    if steps % scenario.output_stride:
        states.append(final)
    return states


QUIESCENT_GRID = (10.0, 1000.0)     # dx, a of quiescent_state's steps


def quiescent_state(nodes=21, head=150.0):
    return MocState(head=np.full(nodes, head), discharge=np.zeros(nodes))


def reference_end(bc, invariant, sign, b, alpha, t):
    """(Q, H) at an end node from the law written out by type."""
    if isinstance(bc, ReservoirHead):
        disc = b * b - 4.0 * alpha * (invariant - bc.total_head)
        q_end = sign * (-b + math.sqrt(disc)) / (2.0 * alpha)
    elif isinstance(bc, PrescribedDischarge):
        q_end = float(bc.law(t))
    else:
        q_end = 0.0
    return q_end, invariant + sign * b * q_end


def strickler_slope(q, geometry):
    """S_f = K u|u|, u = Q/S, with K written out from the pipe's roughness (0
    without one)."""
    u = q / geometry.section
    k = (0.0 if geometry.strickler is None
         else strickler_coefficient(geometry.strickler, geometry.section))
    return k * u * np.abs(u)


def reference_step(state, dx, c, g, upstream, downstream, geometry):
    """One step written as whole-array expressions with a zero friction
    array on a smooth pipe, re-forming the invariants from (H, Q): the
    formula the first ``moc_step`` from a constructed state must reproduce
    bit for bit."""
    h, q = state.head, state.discharge
    section = geometry.section
    b = c / (g * section)
    t_new = state.time + dx / c
    sf = np.zeros_like(q) if geometry.strickler is None else strickler_slope(q, geometry)
    cp = h + b * q - dx * sf
    cm = h - b * q + dx * sf
    h_new = np.empty_like(h)
    q_new = np.empty_like(q)
    h_new[1:-1] = 0.5 * (cp[:-2] + cm[2:])
    q_new[1:-1] = 0.5 * (cp[:-2] - cm[2:]) / b
    alpha = 1.0 / (2.0 * g * section * section)
    q_new[0], h_new[0] = reference_end(upstream, cm[1], 1.0, b, alpha, t_new)
    q_new[-1], h_new[-1] = reference_end(downstream, cp[-2], -1.0, b, alpha, t_new)
    return MocState(head=h_new, discharge=q_new, time=t_new)


def carried_reference(state, steps, dx, c, g, upstream, downstream, geometry):
    """``steps`` steps written plainly with the half-invariants (cp/2, cm/2)
    carried from step to step: each shifted one node with half the friction
    loss, the ends from the laws, the heads and discharges formed from the
    two.  Returns (head, discharge, time) after every step."""
    section = geometry.section
    b = c / (g * section)
    alpha = 1.0 / (2.0 * g * section * section)
    t = state.time
    h, q = state.head, state.discharge
    hp, hm = 0.5 * (h + b * q), 0.5 * (h - b * q)
    marched = []
    for _ in range(steps):
        t = t + dx / c
        half_loss = 0.5 * dx * strickler_slope(q, geometry)
        hp_new, hm_new = np.empty_like(hp), np.empty_like(hm)
        hp_new[1:] = hp[:-1] - half_loss[:-1]
        hm_new[:-1] = hm[1:] + half_loss[1:]
        q0, h0 = reference_end(upstream, 2.0 * hm_new[0], 1.0, b, alpha, t)
        qn, hn = reference_end(downstream, 2.0 * hp_new[-1], -1.0, b, alpha, t)
        hp_new[0], hm_new[-1] = 0.5 * (h0 + b * q0), 0.5 * (hn - b * qn)
        h, q = hp_new + hm_new, (hp_new - hm_new) / b
        h[0], h[-1], q[0], q[-1] = h0, hn, q0, qn
        hp, hm = hp_new, hm_new
        marched.append((h, q, t))
    return marched


def same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


class TestMocState:
    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            MocState(head=np.array([1.0]), discharge=np.array([0.0]))

    def test_checked_arrays_are_read_only(self):
        head = np.full(4, 10.0)
        track = _Track(4, 2)
        track.rows[:] = [[9.0, 6.0, 5.5, 5.0, 4.5, 9.0], [9.0, 4.0, 4.5, 5.0, 5.5, 9.0]]
        state = MocState._checked(head, track, 1, 2.0, (0.5, -0.25), 0.5)
        assert state.head is head and state._track is track and state._k == 1
        assert not head.flags.writeable
        assert state.time == 0.5
        # state 1 of a capacity-2 track reads rows[0, 1:5] and rows[1, 1:5]
        assert same_bits(state._block, [[6.0, 5.5, 5.0, 4.5], [4.0, 4.5, 5.0, 5.5]])
        # interior (row 0 - row 1) / B, ends from the laws
        assert same_bits(state.discharge, [0.5, 0.5, 0.0, -0.25])
        assert not state.discharge.flags.writeable
        with pytest.raises(ValueError):
            state.head[0] = 1.0

    @pytest.mark.parametrize("field", ["head", "discharge"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, bad):
        values = {"head": [1.0, 2.0, 3.0, 4.0], "discharge": [0.0, 1.0, 0.5, 0.0]}
        values[field][2] = bad
        with pytest.raises(ValueError, match=rf"^{field} must be finite: node 2 is "
                                             rf"{re.escape(repr(bad))}$"):
            MocState(**values)

    @pytest.mark.parametrize("field", ["time"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_grid_and_time(self, field, bad):
        # a nan time would end moc_run after zero steps, silently
        with pytest.raises(ValueError, match="time must be finite"):
            MocState(head=np.zeros(3), discharge=np.zeros(3), **{field: bad})

    def test_step_result_is_read_only(self):
        new = moc_step(quiescent_state(), *QUIESCENT_GRID, G,
                       ReservoirHead(total_head=150.0), Wall(), PIPE)
        assert not new.head.flags.writeable
        assert not new.discharge.flags.writeable


class TestMocStep:
    def test_quiescent_fixed_point(self):
        state = quiescent_state()
        new = moc_step(state, *QUIESCENT_GRID, G, ReservoirHead(total_head=150.0), Wall(),
                       PIPE)
        assert new.head == pytest.approx(state.head, abs=1e-12)
        assert new.discharge == pytest.approx(state.discharge, abs=1e-12)
        assert new.time == pytest.approx(0.01)

    def test_quiescent_with_downstream_reservoir(self):
        # exercises the quadratic reservoir law at the downstream node
        state = quiescent_state(head=150.0)
        new = moc_step(state, *QUIESCENT_GRID, G, ReservoirHead(total_head=150.0),
                       ReservoirHead(total_head=150.0), PIPE)
        assert new.head == pytest.approx(state.head, abs=1e-12)
        assert new.discharge == pytest.approx(state.discharge, abs=1e-12)

    def test_joukowsky_jump_on_instant_closure(self):
        a, section, u0 = 1086.6, 2.0, 5.0
        nodes = 41
        state = MocState(head=np.full(nodes, 300.0),
                         discharge=np.full(nodes, section * u0))
        closed = PrescribedDischarge(law=lambda t: 0.0)
        new = moc_step(state, 2000.0 / (nodes - 1), a, G,
                       ReservoirHead(total_head=300.0 + u0 * u0 / (2 * G)), closed,
                       pipe(section))
        jump = new.head[-1] - state.head[-1]
        assert jump == pytest.approx(a * u0 / G, abs=0.5)
        assert jump == pytest.approx(553.8226299694190, rel=1e-12)

    def test_frictionless_energy_conserved_between_walls(self):
        rng = np.random.default_rng(2)
        nodes, a, section, dx = 64, 800.0, 1.5, 5.0
        head = 50.0 + 3.0 * rng.standard_normal(nodes)
        q = 0.4 * rng.standard_normal(nodes)
        q[0] = q[-1] = 0.0   # consistent with the walls
        state = MocState(head=head, discharge=q)
        # one step lets the boundary conditions take hold exactly
        state = moc_step(state, dx, a, G, Wall(), Wall(), pipe(section))

        def energy(s):
            return float(np.sum((G * section * s.head ** 2 / (2 * a * a)
                                 + s.discharge ** 2 / (2 * section)) * dx))

        e0 = energy(state)
        period_steps = 2 * (nodes - 1)   # one full reflection period
        for _ in range(period_steps):
            state = moc_step(state, dx, a, G, Wall(), Wall(), pipe(section))
        assert energy(state) == pytest.approx(e0, rel=1e-10)

    def test_affine_in_state(self):
        # frictionless wall/fixed-discharge boundaries: superposition of
        # perturbations around a base state propagates linearly (the
        # reservoir law is excluded: its velocity head is quadratic in Q)
        rng = np.random.default_rng(9)
        nodes, a, section, dx = 32, 900.0, 2.0, 10.0
        res = Wall()
        valve = PrescribedDischarge(law=lambda t: 1.0)

        def advance(head, q):
            s = MocState(head=head, discharge=q)
            out = moc_step(s, dx, a, G, res, valve, pipe(section))
            return out.head, out.discharge

        h0 = np.full(nodes, 100.0)
        q0 = np.full(nodes, 1.0)
        dh1, dq1 = rng.standard_normal(nodes), 0.1 * rng.standard_normal(nodes)
        dh2, dq2 = rng.standard_normal(nodes), 0.1 * rng.standard_normal(nodes)

        base = advance(h0, q0)
        one = advance(h0 + dh1, q0 + dq1)
        two = advance(h0 + dh2, q0 + dq2)
        both = advance(h0 + dh1 + dh2, q0 + dq1 + dq2)
        assert both[0] == pytest.approx(one[0] + two[0] - base[0], rel=1e-10)
        assert both[1] == pytest.approx(one[1] + two[1] - base[1], rel=1e-10,
                                        abs=1e-12)

    def test_friction_damps_energy(self):
        geometry = pipe(2.0, strickler=20.0)
        nodes, a, dx = 21, 500.0, 5.0
        rng = np.random.default_rng(6)
        state = MocState(head=50.0 + rng.standard_normal(nodes),
                         discharge=0.5 * rng.standard_normal(nodes))

        def energy(s):
            return float(np.sum(G * 2.0 * s.head ** 2 / (2 * a * a)
                                + s.discharge ** 2 / (2 * 2.0)) * dx)

        e0 = energy(state)
        for _ in range(80):
            state = moc_step(state, dx, a, G, Wall(), Wall(), geometry)
        assert energy(state) < e0


LEAN_GRID = (10.0, 950.0)      # dx, a
ENDS = {
    "reservoir": ReservoirHead(total_head=120.0),
    "valve": PrescribedDischarge(law=lambda t: 2.0 * math.cos(3.0 * t)),
    "wall": Wall(),
}


STRICKLERS = pytest.mark.parametrize("strickler", [None, 40.0],
                                     ids=["frictionless", "friction"])
LEAN_PIPE = pipe(1.5)


class TestLeanStep:
    @STRICKLERS
    @pytest.mark.parametrize("up", sorted(ENDS))
    @pytest.mark.parametrize("down", sorted(ENDS))
    def test_bitwise_equal_to_reference_formula(self, up, down, strickler):
        rng = np.random.default_rng(7)
        nodes, a, dx = 31, 950.0, 10.0
        ends = (ENDS[up], ENDS[down], pipe(1.5, strickler))
        for _ in range(5):
            state = MocState(head=120.0 + 5.0 * rng.standard_normal(nodes),
                             discharge=2.0 * rng.standard_normal(nodes),
                             time=float(rng.uniform(0.0, 3.0)))
            # the first step from a constructed state re-forms the invariants
            lean = moc_step(state, dx, a, G, *ends)
            ref = reference_step(state, dx, a, G, *ends)
            assert same_bits(lean.head, ref.head)
            assert same_bits(lean.discharge, ref.discharge)
            assert lean.time == ref.time
            # a chained march carries them
            lean = state
            for head, discharge, t in carried_reference(state, 6, dx, a, G, *ends):
                lean = moc_step(lean, dx, a, G, *ends)
                assert same_bits(lean.head, head)
                assert same_bits(lean.discharge, discharge)
                assert lean.time == t

    def test_two_node_grid(self):
        state = MocState(head=np.array([100.0, 101.0]), discharge=np.array([1.0, 0.5]))
        grid = (5.0, 900.0)
        lean = moc_step(state, *grid, G, ENDS["reservoir"], ENDS["valve"], PIPE)
        ref = reference_step(state, *grid, G, ENDS["reservoir"], ENDS["valve"], PIPE)
        assert same_bits(lean.head, ref.head)
        assert same_bits(lean.discharge, ref.discharge)


class TestCarriedInvariants:
    def test_frictionless_transport_is_exact(self):
        rng = np.random.default_rng(13)
        nodes, a, section, dx = 40, 1000.0, 2.0, 5.0
        valve = PrescribedDischarge(law=lambda t: 1.5 * math.sin(t))
        state = MocState(head=100.0 + 10.0 * rng.standard_normal(nodes),
                         discharge=3.0 * rng.standard_normal(nodes))
        b = a / (G * section)
        hp0 = 0.5 * (state.head + b * state.discharge)
        hm0 = 0.5 * (state.head - b * state.discharge)
        for k in range(1, nodes // 2):
            state = moc_step(state, dx, a, G, Wall(), valve, pipe(section))
            # node i sees the right-going half-invariant of node i-k and the
            # left-going one of node i+k, untouched by the k steps between
            assert same_bits(state.head[k:nodes - k],
                             hp0[:nodes - 2 * k] + hm0[2 * k:])

    def test_another_section_re_forms_the_invariants(self):
        rng = np.random.default_rng(8)
        ends = (ENDS["reservoir"], ENDS["valve"])
        state = MocState(head=120.0 + rng.standard_normal(31),
                         discharge=rng.standard_normal(31))
        state = moc_step(state, *LEAN_GRID, G, *ends, LEAN_PIPE)
        lean = moc_step(state, *LEAN_GRID, G, *ends, PIPE)
        ref = reference_step(state, *LEAN_GRID, G, *ends, PIPE)
        assert same_bits(lean.head, ref.head)
        assert same_bits(lean.discharge, ref.discharge)

    def test_long_march_stays_near_the_re_rounding_chain(self):
        scenario = section4_scenario(cells=50, t_end=1.0)
        lean = ref = initial_moc_state(scenario)
        args = (scenario.geometry.length / 50, scenario.constants.c, G, scenario.upstream,
                scenario.downstream, scenario.geometry)
        for _ in range(600):    # 11.0 s: the closure and three reflections
            lean = moc_step(lean, *args)
            ref = reference_step(ref, *args)
        assert lean.time == ref.time
        scale_h, scale_q = np.max(np.abs(ref.head)), np.max(np.abs(ref.discharge))
        assert np.max(np.abs(lean.head - ref.head)) <= 1e-12 * scale_h
        assert np.max(np.abs(lean.discharge - ref.discharge)) <= 1e-12 * scale_q

    @STRICKLERS
    def test_stepping_leaves_the_state_unchanged(self, strickler):
        rng = np.random.default_rng(4)
        nodes = 25
        ends = (ENDS["reservoir"], ENDS["valve"])
        state = MocState(head=120.0 + rng.standard_normal(nodes),
                         discharge=rng.standard_normal(nodes))
        args = (*LEAN_GRID, G, *ends, pipe(1.5, strickler))
        state = moc_step(state, *args)
        before = {name: np.array(getattr(state, name))
                  for name in ("head", "discharge", "_block")}
        first = moc_step(state, *args)
        second = moc_step(state, *args)
        for name, values in before.items():
            assert same_bits(getattr(first, name), getattr(second, name))
            assert same_bits(getattr(state, name), values)
        assert first.time == second.time

    def test_discharge_is_formed_once_and_read_only(self):
        state = moc_step(quiescent_state(), *QUIESCENT_GRID, G,
                         ReservoirHead(total_head=150.0), Wall(), PIPE)
        assert "discharge" not in vars(state)
        discharge = state.discharge
        assert state.discharge is discharge and vars(state)["discharge"] is discharge
        assert not discharge.flags.writeable
        # the rows are read through the track, not copied out of it
        assert all(np.shares_memory(row, state._track.rows) for row in state._block)
        with pytest.raises(AttributeError, match="has no attribute 'flow'"):
            state.flow


class TestTracks:
    ends = (ENDS["reservoir"], ENDS["valve"])

    def constructed(self, nodes, seed):
        rng = np.random.default_rng(seed)
        return MocState(head=120.0 + rng.standard_normal(nodes),
                        discharge=rng.standard_normal(nodes), time=0.5)

    def step(self, state, geometry=LEAN_PIPE):
        return moc_step(state, *LEAN_GRID, G, *self.ends, geometry)

    def test_stepping_an_older_state_leaves_every_result_unchanged(self):
        chain = [self.constructed(9, seed=21)]
        for _ in range(4):
            chain.append(self.step(chain[-1]))
        assert len({id(s._track) for s in chain[1:]}) == 1
        kept = [(np.array(s.head), np.array(s._block)) for s in chain[1:]]
        # steps from states that are no longer the tip, one of them twice
        again = [self.step(chain[k]) for k in (1, 2, 1)]
        tip = self.step(chain[-1])
        assert again[0]._track is not chain[1]._track and tip._track is chain[-1]._track
        for s, (head, block) in zip(chain[1:], kept):
            assert same_bits(s.head, head) and same_bits(s._block, block)
        for k, s in zip((1, 2, 1), again):
            assert same_bits(s.head, chain[k + 1].head)
            assert same_bits(s.discharge, chain[k + 1].discharge)
        marched = carried_reference(chain[0], 5, *LEAN_GRID, G, *self.ends, LEAN_PIPE)
        for s, (head, discharge, t) in zip(chain[1:] + [tip], marched):
            assert same_bits(s.head, head) and same_bits(s.discharge, discharge)
            assert s.time == t

    @STRICKLERS
    def test_march_across_refills_matches_the_carried_reference(self, strickler):
        nodes = 7
        geometry = pipe(1.5, strickler)
        state = self.constructed(nodes, seed=5)
        marched = carried_reference(state, 3 * nodes, *LEAN_GRID, G, *self.ends, geometry)
        tracks = []
        for head, discharge, t in marched:
            state = self.step(state, geometry)
            tracks.append(state._track)
            assert same_bits(state.head, head) and same_bits(state.discharge, discharge)
            assert state.time == t
        # a capacity-n track holds n states: three tracks, two refills, when
        # frictionless; a friction step rewrites every node into a new track
        expected = 3 if strickler is None else 3 * nodes
        assert len({id(track) for track in tracks}) == expected

    def test_a_step_from_the_tip_allocates_the_heads_only(self):
        nodes = 4001
        state = self.step(self.step(self.constructed(nodes, seed=3)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            new = self.step(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert new._track is state._track     # a slide, not a refill
        assert peak - before < 1.5 * 8 * nodes


class TestMocErrors:
    def test_unsolvable_reservoir(self):
        # an invariant far above the reservoir head leaves the quadratic
        # velocity-head law without a real root
        state = quiescent_state(head=1e6)
        with pytest.raises(SolverError, match="upstream reservoir law unsolvable"):
            moc_step(state, *QUIESCENT_GRID, G, ReservoirHead(total_head=150.0), Wall(), PIPE)
        with pytest.raises(SolverError, match="downstream reservoir law unsolvable"):
            moc_step(state, *QUIESCENT_GRID, G, Wall(), ReservoirHead(total_head=150.0), PIPE)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_law(self, bad):
        state = quiescent_state()
        law = PrescribedDischarge(law=lambda t: bad)
        with pytest.raises(SolverError, match=r"^downstream boundary gave a non-finite "
                                              r"discharge at t=0\.01: Q="):
            moc_step(state, *QUIESCENT_GRID, G, Wall(), law, PIPE)
        with pytest.raises(SolverError, match="^upstream boundary gave a non-finite"):
            moc_step(state, *QUIESCENT_GRID, G, law, Wall(), PIPE)

    def test_periodic_end_rejected(self):
        # a periodic pipe has no end node: the step used to fail with
        # "'Periodic' object has no attribute 'node'"
        state = quiescent_state()
        for ends in ((Periodic(), Wall()), (Wall(), Periodic())):
            with pytest.raises(ValueError, match=r"^the characteristics solver needs "
                                                 r"reservoir, discharge or wall ends$"):
                moc_step(state, *QUIESCENT_GRID, G, *ends, PIPE)

    def test_run_names_the_step(self):
        scenario = section4_scenario(cells=50, t_end=1.0)
        dt = scenario.geometry.length / 50 / scenario.constants.c
        late = Scenario(**{**scenario.__dict__, "downstream": PrescribedDischarge(
            law=lambda t: 10.0 if t < 2.5 * dt else math.nan)})
        with pytest.raises(SolverError, match=r"^step 3 from t=0\.07\d*: downstream "
                                              r"boundary gave a non-finite discharge"):
            moc_run(late)

    def test_run_names_the_step_of_an_unsolvable_reservoir(self):
        scenario = section4_scenario(cells=50, t_end=1.0)
        initial = initial_moc_state(scenario)
        high = MocState(head=np.full(initial.n, 1e6), discharge=initial.discharge)
        with pytest.raises(SolverError, match=r"^step 1 from t=0\.0: upstream "
                                              r"reservoir law unsolvable"):
            moc_run(scenario, initial=high)


class TestMocRun:
    def test_zero_duration_returns_initial_frame(self):
        scenario = section4_scenario(t_end=0.0)
        observed = []
        final = moc_run(scenario, observer=observed.append)
        assert observed == []
        assert final.time == 0.0
        initial = initial_moc_state(scenario)
        assert np.array_equal(final.head, initial.head)

    def test_node_count_defaults_to_interfaces(self):
        scenario = section4_scenario(cells=50, t_end=0.0)
        assert moc_run(scenario).head.size == 51

    def test_given_initial_state_is_marched(self):
        scenario = section4_scenario(cells=50, t_end=1.0)
        initial = initial_moc_state(scenario)
        assert initial.n == 51
        final = moc_run(scenario, initial=initial)
        assert np.array_equal(final.head, moc_run(scenario).head)
        coarse = moc_run(scenario, initial=initial_moc_state(replace(scenario, mesh_cells=20)))
        assert coarse.head.size == 21
        assert coarse.time <= scenario.t_end < coarse.time + 100.0 / scenario.constants.c

    def test_initial_state_is_converted_steady_profile(self):
        scenario = section4_scenario(t_end=0.0)
        state = initial_moc_state(scenario)
        geom = scenario.geometry
        c, g = scenario.constants.c, scenario.constants.g
        x = np.linspace(0.0, geom.length, 201)
        z = geom.altitude(x)
        area = geom.section * (1.0 + g * (state.head - z - geom.diameter) / (c * c))
        u = state.discharge / area
        # upstream total head (piezo + velocity head) equals the reservoir head
        assert state.head[0] + u[0] ** 2 / (2 * g) == pytest.approx(300.0, abs=1e-9)
        # the underlying profile carries the solver's steady-state invariant
        invariant = 0.5 * u * u + g * z + c * c * np.log(area)
        assert np.max(invariant) - np.min(invariant) <= 1e-9 * np.max(np.abs(invariant))
        assert state.discharge == pytest.approx(np.full(201, 10.0))

    def test_period_is_4L_over_a(self):
        scenario = section4_scenario(cells=200, t_end=5.0 + 3 * 7.3625)
        states = recorded_states(scenario)
        t = np.array([s.time for s in states])
        mid = np.array([s.head[s.head.size // 2] for s in states])
        period = detect_period(t, mid, t_min=5.0)
        assert period == pytest.approx(4 * 2000.0 / 1086.6, abs=0.05)

    def test_first_peak_matches_coarse_independent_march(self):
        scenario = section4_scenario(cells=200, t_end=12.0)
        states = recorded_states(scenario)
        t = np.array([s.time for s in states])
        mid = np.array([s.head[s.head.size // 2] for s in states])

        coarse_nodes = 101   # half resolution
        init = initial_moc_state(replace(scenario, mesh_cells=coarse_nodes - 1))
        times, history = coarse_moc_waterhammer(
            2000.0, coarse_nodes, 1086.6, G, 2.0, init.head, 10.0,
            ValveClosure(q0=10.0, t_close=5.0), 12.0, 300.0)
        mid_coarse = history[:, coarse_nodes // 2]

        peak = float(np.max(mid))
        peak_coarse = float(np.max(mid_coarse))
        initial = mid[0]
        assert peak - initial == pytest.approx(peak_coarse - initial,
                                               rel=0.10)

    def test_rejects_an_initial_time_after_t_end(self):
        scenario = section4_scenario(cells=20, t_end=1.0)
        late = initial_moc_state(scenario)
        late = MocState(head=late.head, discharge=late.discharge, time=5.0)
        with pytest.raises(ValueError, match=r"^t_end=1\.0 precedes the initial time 5\.0$"):
            moc_run(scenario, initial=late)

    def test_rejects_periodic_boundaries(self):
        scenario = section4_scenario(t_end=1.0)
        bad = Scenario(**{**scenario.__dict__, "upstream": Periodic(),
                          "downstream": Periodic()})
        with pytest.raises(ValueError):
            moc_run(bad)
