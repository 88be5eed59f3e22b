"""Fixed-grid method-of-characteristics solver for classical water hammer.

Reference solver for the linearized transient pair

    dH/dt + a^2/(g S) dQ/dx = 0
    dQ/dt + g S dH/dx        = -g S S_f

with constant wave speed a, marched at unit Courant number (dt = dx/a) so the
characteristics land exactly on grid nodes.  Along dx/dt = +a the invariant
H + B Q (B = a/(g S)) is carried, along dx/dt = -a the invariant H - B Q;
friction enters as the head loss S_f * dx accumulated over one step.
Boundary nodes combine the single available invariant with the boundary law:
the law's ``node`` method gives the discharge (see ``scenarios``) and the head
follows as H = invariant + sign B Q.

Without friction a step allocates four node arrays: B Q, the invariant
H + B Q, and the new heads and discharges.  H - B Q overwrites B Q in place,
the friction loss (only when friction is on) is subtracted from and added to
the two invariants in place, and the interior values are written straight
into the new arrays, which become the next state without a copy: the heads
as the half-sum of the invariants, the discharges as their difference
divided by 2 B (the bits of halving, then dividing by B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (FrictionParams, PipeGeometry, SolverError, friction_slope,
                   piezometric_head)
from .scenarios import (Periodic, Scenario, solve_area_profile,
                        steady_head_constant)


@dataclass(frozen=True)
class MocState:
    """Piezometric heads and discharges at the grid nodes."""

    head: np.ndarray
    discharge: np.ndarray
    wave_speed: float
    node_spacing: float
    time: float = 0.0

    def __post_init__(self):
        head = np.array(self.head, dtype=float)
        discharge = np.array(self.discharge, dtype=float)
        if head.ndim != 1 or head.shape != discharge.shape or head.size < 2:
            raise ValueError("head and discharge must be 1-d arrays with >= 2 nodes")
        if self.wave_speed <= 0 or self.node_spacing <= 0:
            raise ValueError("wave speed and node spacing must be positive")
        head.setflags(write=False)
        discharge.setflags(write=False)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "discharge", discharge)

    @classmethod
    def _checked(cls, head, discharge, wave_speed, node_spacing, time):
        """A state from fresh, equal-length float arrays and a valid grid;
        the arrays are made read-only in place, without the copy and checks
        of ``__init__``."""
        head.setflags(write=False)
        discharge.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(head=head, discharge=discharge, wave_speed=wave_speed,
                              node_spacing=node_spacing, time=time)
        return state

    @property
    def dt(self):
        """Unit-Courant time step dx/a, fixed by construction."""
        return self.node_spacing / self.wave_speed

    @property
    def n(self):
        return self.head.size


def _boundary_node(bc, invariant, sign, b, alpha, t, end):
    """(Q, H) at one end node from its boundary law's ``node`` discharge and
    the invariant H - sign B Q arriving there; sign is +1 upstream and -1
    downstream."""
    q = bc.node(invariant, sign, b, alpha, t, end)
    if not math.isfinite(q):
        raise SolverError(f"{end} boundary gave a non-finite discharge at t={t!r}: Q={q!r}")
    return q, invariant + sign * b * q


def moc_step(state: MocState, g, section, friction: FrictionParams,
             upstream, downstream, geometry: PipeGeometry | None = None) -> MocState:
    """Advance one unit-Courant step.

    Interior nodes take the average of the two characteristic invariants;
    each end solves its boundary law against the one invariant reaching it.
    """
    h = state.head
    q = state.discharge
    b = state.wave_speed / (g * section)
    dx = state.node_spacing
    t_new = state.time + state.dt

    # invariants carried toward a node from its left (cp) and right (cm);
    # cm takes over the buffer of b*q
    bq = b * q
    cp = h + bq
    cm = np.subtract(h, bq, out=bq)
    if friction.enabled:
        if geometry is None:
            raise ValueError("friction needs the pipe geometry for the hydraulic radius")
        loss = dx * friction_slope(q / section, geometry, friction)
        cp -= loss
        cm += loss

    h_new = np.empty_like(h)
    q_new = np.empty_like(q)
    h_mid = np.add(cp[:-2], cm[2:], out=h_new[1:-1])
    h_mid *= 0.5
    q_mid = np.subtract(cp[:-2], cm[2:], out=q_new[1:-1])
    q_mid /= 2.0 * b

    alpha = 1.0 / (2.0 * g * section * section)   # velocity-head coefficient
    # each end meets the one invariant reaching it: cm from node 1 upstream,
    # cp from node n-2 downstream
    q_new[0], h_new[0] = _boundary_node(upstream, cm[1], 1.0, b, alpha, t_new,
                                        "upstream")
    q_new[-1], h_new[-1] = _boundary_node(downstream, cp[-2], -1.0, b, alpha,
                                          t_new, "downstream")

    return MocState._checked(h_new, q_new, state.wave_speed, dx, t_new)


def initial_moc_state(scenario: Scenario, node_count=None):
    """Steady state on the node grid: the same constant-total-head profile as
    the finite-volume initializer, expressed as a piezometric line.  The
    default grid has one node per cell interface of the scenario's mesh."""
    if node_count is None:
        node_count = scenario.mesh_cells + 1
    geom = scenario.geometry
    c = scenario.constants.c
    g = scenario.constants.g
    q0 = scenario.initial_discharge

    x = np.linspace(0.0, geom.length, node_count)
    z = np.asarray(geom.altitude(x), dtype=float)
    head_const = steady_head_constant(scenario)
    area = solve_area_profile(z, q0, head_const, c, g, start=geom.section)
    head = piezometric_head(area, geom.section, z, geom.diameter, c, g)
    return MocState(head=head, discharge=np.full(node_count, float(q0)),
                    wave_speed=c, node_spacing=float(x[1] - x[0]), time=0.0)


def moc_run(scenario: Scenario, observer=None, initial: MocState | None = None) -> MocState:
    """March the scenario from ``initial`` (default: ``initial_moc_state``)
    to the last full step at or before t_end; ``observer(state)`` is invoked
    after every step.  Returns the final state.  A ``SolverError`` names the
    step number (counted from 1) and the time the step started from."""
    # a Scenario has periodic ends in pairs or not at all
    if isinstance(scenario.upstream, Periodic):
        raise ValueError("the characteristics solver needs reservoir, "
                         "discharge or wall boundaries")

    state = initial_moc_state(scenario) if initial is None else initial
    # unit Courant number: cannot clamp dt, so stop at the last full step
    steps = 0
    while state.time + state.dt <= scenario.t_end * (1.0 + 1e-12):
        steps += 1
        try:
            state = moc_step(state, scenario.constants.g, scenario.geometry.section,
                             scenario.friction, scenario.upstream, scenario.downstream,
                             scenario.geometry)
        except SolverError as exc:
            raise SolverError(f"step {steps} from t={state.time!r}: {exc}") from exc
        if observer is not None:
            observer(state)
    return state
