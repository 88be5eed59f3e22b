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
on a track shared with the states stepped before it: a (2, n + C) buffer,
C = n, in which state k reads rows[0, C - k:C - k + n] and rows[1, k:k + n].
A frictionless step from the track's tip (the last state written to it)
writes only the half-invariants the two ends send back into the pipe, at
rows[0, C - k - 1] and rows[1, k + n], and returns state k + 1.  Every state
j <= k of the track starts its first row at C - j > C - k - 1 and ends its
second at j + n - 1 < k + n, so no returned state ever changes.  Any other
step starts a fresh track: one from a state that is not the tip, from a full
track, or from a state built with the constructor or stepped with another B
(whose rows are first formed from (H, Q)); and one on a pipe with friction,
which rewrites every node (the shift subtracts dx S_f / 2 from the first row
and adds it to the second) into a track of capacity 0.  The heads are the sum of
the two rows and the discharges their difference divided by B, formed only
when read.  Halving is exact (above the subnormal range), so these are the
bits of (cp + cm) / 2 and (cp - cm) / (2 B) for the full invariants cp and cm
that the rows carry; unlike H and Q, the rows are not rounded again.
``moc_run`` hands ``core.march`` the fixed step dx/c up to the last full
step at or before the end time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PipeGeometry, SolverError, friction_slope, march, piezometric_head
from .scenarios import Scenario, steady_areas


class _Track:
    """Half-invariant rows shared by the states one thread steps along them
    (see the module docstring); ``tip`` is the last state written."""

    def __init__(self, n, capacity):
        self.rows = np.empty((2, n + capacity))
        self.capacity, self.tip = capacity, 0

    def window(self, k, n):
        """State ``k``'s two rows, as views of the buffer."""
        c = self.capacity
        return self.rows[0, c - k:c - k + n], self.rows[1, k:k + n]


@dataclass(frozen=True)
class MocState:
    """Piezometric heads and discharges at the grid nodes at ``time``; the
    grid and wave speed are the stepper's arguments, as a kinetic state's
    mesh is.

    A state made by ``moc_step`` also carries its place on a track (see the
    module docstring), the B its half-invariants were formed with and its
    two end discharges.  Its rows are read through the track, and its
    discharges are formed from them when first read, then kept read-only."""

    head: np.ndarray
    discharge: np.ndarray
    time: float = 0.0
    _b = None        # B of the carried rows; None when no track is carried

    def __post_init__(self):
        head = np.array(self.head, dtype=float)
        discharge = np.array(self.discharge, dtype=float)
        if head.ndim != 1 or head.shape != discharge.shape or head.size < 2:
            raise ValueError("head and discharge must be 1-d arrays with >= 2 nodes")
        if not math.isfinite(self.time):
            raise ValueError(f"time must be finite, got {self.time!r}")
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
    def _checked(cls, head, track, k, b, ends, time):
        """State ``k`` of ``track`` from its fresh heads, the B its rows were
        formed with and its end discharges; the heads are made read-only in
        place, without the copy and checks of ``__init__``."""
        head.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(head=head, time=time, _track=track, _k=k, _b=b, _ends=ends)
        return state

    @property
    def _block(self):
        """The two half-invariant rows, as views of the track."""
        return self._track.window(self._k, self.n)

    def __getattr__(self, name):
        # only a stepped state lacks its discharges until they are read
        if name != "discharge" or self._b is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        up, down = self._block
        discharge = np.subtract(up, down)
        discharge /= self._b
        discharge[0], discharge[-1] = self._ends
        discharge.setflags(write=False)
        self.__dict__["discharge"] = discharge
        return discharge

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


def moc_step(state: MocState, dx, c, g, upstream, downstream,
             geometry: PipeGeometry) -> MocState:
    """Advance one unit-Courant step dx/c on nodes ``dx`` apart of the pipe
    ``geometry``: its section fixes B, its friction coefficient the loss.

    The half-invariants move one node along their characteristics and the
    interior heads are their sum; each end solves its boundary law against
    the one invariant reaching it.
    """
    section = geometry.section
    b = c / (g * section)
    t_new = state.time + dx / c
    n = state.n

    if state._b == b:
        track, k = state._track, state._k
    else:   # a constructed state, or another g or section: form the rows
        bq = b * state.discharge
        track, k = _Track(n, n), 0
        up, down = track.window(0, n)
        np.multiply(np.add(state.head, bq, out=up), 0.5, out=up)
        np.multiply(np.subtract(state.head, bq, out=down), 0.5, out=down)

    # row 0 (H + B Q)/2 moves one node right, row 1 (H - B Q)/2 one node left
    if geometry.friction_coefficient:
        loss = (0.5 * dx) * friction_slope(state.discharge / section, geometry)
        up, down = track.window(k, n)
        track, k = _Track(n, 0), 0
        np.subtract(up[:-1], loss[:-1], out=track.rows[0, 1:])
        np.add(down[1:], loss[1:], out=track.rows[1, :-1])
    else:
        if k != track.tip or k == track.capacity:   # not the tip, or a full track
            up, down = track.window(k, n)
            track, k = _Track(n, n), 0
            track.rows[0, n:], track.rows[1, :n] = up, down
        k += 1
    up, down = track.window(k, n)

    alpha = 1.0 / (2.0 * g * section * section)   # velocity-head coefficient
    # each end meets the one invariant reaching it: H - B Q upstream,
    # H + B Q downstream; it sends back the other
    q0, h0 = _boundary_node(upstream, 2.0 * down.item(0), 1.0, b, alpha, t_new, "upstream")
    qn, hn = _boundary_node(downstream, 2.0 * up.item(-1), -1.0, b, alpha, t_new,
                            "downstream")
    up[0] = 0.5 * (h0 + b * q0)
    down[-1] = 0.5 * (hn - b * qn)
    track.tip = k
    head = np.add(up, down)
    head[0], head[-1] = h0, hn
    return MocState._checked(head, track, k, b, (q0, qn), t_new)


def initial_moc_state(scenario: Scenario):
    """Steady state with one node per cell interface of the scenario's mesh:
    the ``steady_areas`` profile of the finite-volume initializer, expressed
    as a piezometric line."""
    geom = scenario.geometry
    x = np.linspace(0.0, geom.length, scenario.mesh_cells + 1)
    z = np.asarray(geom.altitude(x), dtype=float)
    head = piezometric_head(steady_areas(scenario, z), geom.section, z, geom.diameter,
                            scenario.constants.c, scenario.constants.g)
    return MocState(head=head, discharge=np.full(x.size, float(scenario.initial_discharge)))


def moc_run(scenario: Scenario, observer=None, initial: MocState | None = None) -> MocState:
    """March the scenario from ``initial`` (default: ``initial_moc_state``;
    its time at most t_end) on its n nodes spanning the pipe, dx = L/(n - 1),
    at the scenario's wave speed, to the last full step at or before t_end,
    through ``core.march`` with ``observer``; returns the final state."""
    state = initial_moc_state(scenario) if initial is None else initial
    # bit for bit the spacing of np.linspace(0, L, n), where the runner samples
    dx, c = scenario.geometry.length / (state.n - 1), scenario.constants.c
    # unit Courant number: cannot clamp dt, so stop at the last full step
    t_stop, dt = scenario.t_end * (1.0 + 1e-12), dx / c
    args = (dx, c, scenario.constants.g, scenario.upstream, scenario.downstream,
            scenario.geometry)

    def advance(state):
        return moc_step(state, *args) if state.time + dt <= t_stop else None

    return march(state, scenario.t_end, advance, observer)
