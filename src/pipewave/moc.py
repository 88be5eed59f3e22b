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

The march carries each state's half-invariants ((H + B Q)/2, (H - B Q)/2)
as a read-only (2, n) block.  At unit Courant number a step shifts the first
row one node right and the second one node left, exactly; with friction the
same shift subtracts dx S_f / 2 from the first row and adds it to the second.
The heads are the sum of the two rows and the discharges their difference
divided by B, formed only when read.  Halving is exact (above the subnormal
range), so these are the bits of (cp + cm) / 2 and (cp - cm) / (2 B) for
the full invariants cp and cm that the rows carry; unlike H and Q, the rows
are not rounded again from step to step.  Each end writes its head and the
half-invariant it sends back into the pipe.  A state built with the
constructor, or stepped with another B, first has its block formed from
(H, Q).
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
    """Piezometric heads and discharges at the grid nodes.

    A state made by ``moc_step`` also carries its half-invariant block, the
    B it was formed with and its two end discharges; its discharges are
    formed from them when first read, then kept read-only."""

    head: np.ndarray
    discharge: np.ndarray
    wave_speed: float
    node_spacing: float
    time: float = 0.0
    _b = None        # B of the carried block; None when no block is carried

    def __post_init__(self):
        head = np.array(self.head, dtype=float)
        discharge = np.array(self.discharge, dtype=float)
        if head.ndim != 1 or head.shape != discharge.shape or head.size < 2:
            raise ValueError("head and discharge must be 1-d arrays with >= 2 nodes")
        if not (0 < self.wave_speed < math.inf and 0 < self.node_spacing < math.inf
                and math.isfinite(self.time)):
            raise ValueError("wave speed and node spacing must be positive and finite, "
                             "and the time finite")
        for name, values in (("head", head), ("discharge", discharge)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{name} must be finite: node {bad[0]} is "
                                 f"{float(values[bad[0]])!r}")
        head.setflags(write=False)
        discharge.setflags(write=False)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "discharge", discharge)

    @classmethod
    def _checked(cls, head, block, b, ends, wave_speed, node_spacing, time):
        """A state from fresh heads, the (2, n) half-invariant block formed
        with ``b``, its end discharges and a valid grid; the arrays are made
        read-only in place, without the copy and checks of ``__init__``."""
        head.setflags(write=False)
        block.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(head=head, wave_speed=wave_speed, node_spacing=node_spacing,
                              time=time, _block=block, _b=b, _ends=ends)
        return state

    def __getattr__(self, name):
        # only a stepped state lacks its discharges until they are read
        if name != "discharge" or self._b is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        block = self._block
        discharge = np.subtract(block[0], block[1])
        discharge /= self._b
        discharge[0], discharge[-1] = self._ends
        discharge.setflags(write=False)
        self.__dict__["discharge"] = discharge
        return discharge

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

    The half-invariants move one node along their characteristics and the
    interior heads are their sum; each end solves its boundary law against
    the one invariant reaching it.
    """
    b = state.wave_speed / (g * section)
    dx = state.node_spacing
    t_new = state.time + state.dt

    if state._b == b:
        block = state._block
    else:   # a constructed state, or another g or section: form the block
        bq = b * state.discharge
        block = 0.5 * np.array([state.head + bq, state.head - bq])

    # row 0 (H + B Q)/2 moves one node right, row 1 (H - B Q)/2 one node left
    new = np.empty_like(block)
    if friction.enabled:
        if geometry is None:
            raise ValueError("friction needs the pipe geometry for the hydraulic radius")
        loss = (0.5 * dx) * friction_slope(state.discharge / section, geometry, friction)
        np.subtract(block[0, :-1], loss[:-1], out=new[0, 1:])
        np.add(block[1, 1:], loss[1:], out=new[1, :-1])
    else:
        new[0, 1:] = block[0, :-1]
        new[1, :-1] = block[1, 1:]

    alpha = 1.0 / (2.0 * g * section * section)   # velocity-head coefficient
    # each end meets the one invariant reaching it: H - B Q upstream,
    # H + B Q downstream; it sends back the other
    q0, h0 = _boundary_node(upstream, 2.0 * new.item(1, 0), 1.0, b, alpha, t_new, "upstream")
    qn, hn = _boundary_node(downstream, 2.0 * new.item(0, -1), -1.0, b, alpha, t_new,
                            "downstream")
    new[0, 0] = 0.5 * (h0 + b * q0)
    new[1, -1] = 0.5 * (hn - b * qn)
    head = np.add(new[0], new[1])
    head[0], head[-1] = h0, hn
    return MocState._checked(head, new, b, (q0, qn), state.wave_speed, dx, t_new)


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
    steps, t_stop, dt = 0, scenario.t_end * (1.0 + 1e-12), state.dt
    args = (scenario.constants.g, scenario.geometry.section, scenario.friction,
            scenario.upstream, scenario.downstream, scenario.geometry)
    while state.time + dt <= t_stop:
        steps += 1
        try:
            state = moc_step(state, *args)
        except SolverError as exc:
            raise SolverError(f"step {steps} from t={state.time!r}: {exc}") from exc
        if observer is not None:
            observer(state)
    return state
