"""Boundary laws, steady-state construction and complete run scenarios.

Each boundary law is one class holding both of its boundary forms, so both
solvers close the pipe with the same law from one definition.

``ghost`` gives the kinetic scheme's ghost cell.  A ghost carries the same
bottom elevation as its adjacent interior cell, so the boundary interface
sees no topography jump and the condition reduces to choosing the ghost
(A, Q):

* reservoir with fixed total head: A from inverting the head with the
  interior velocity, Q = A * u_interior;
* prescribed discharge (e.g. a closing valve): Q from the law at the state's
  time, A copied from the interior;
* wall: mirror state with negated discharge;
* periodic: the opposite end's interior cell.

``node`` gives the discharge at a method-of-characteristics end node from the
one invariant reaching it (``moc`` forms the head); a periodic pipe has no
such node and raises ``ValueError``.
``steady_areas`` is the steady profile both solvers start from.  A
``Scenario`` error starts with the field, so callers can name what set it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .core import (Mesh, PhysicalConstants, PipeGeometry, SolverError, State,
                   area_from_piezometric_head)

_MAX_STEADY_ITERS = 100


@dataclass(frozen=True)
class ReservoirHead:
    """Constant total head (m): velocity head + piezometric line."""

    total_head: float

    def ghost(self, state, i, z, c, g, geometry):
        a_in = float(state.area[i])
        u = float(state.discharge[i]) / a_in
        head = self.total_head - 0.5 * u * u / g
        # core.area_from_piezometric_head in scalar float arithmetic
        a_ghost = geometry.section * (1.0 + g * (head - z - geometry.diameter) / (c * c))
        if not a_ghost > 0:
            raise SolverError(f"piezometric head {head!r} implies a non-positive wetted area")
        return a_ghost, a_ghost * u

    def node(self, invariant, sign, b, alpha, t, end):
        # total head: H + alpha Q^2 = H0 together with H = invariant + sign B Q
        disc = b * b - 4.0 * alpha * (invariant - self.total_head)
        if disc < 0:
            raise SolverError(f"{end} reservoir law unsolvable (head below the line)")
        return sign * (-b + math.sqrt(disc)) / (2.0 * alpha)


@dataclass(frozen=True)
class PrescribedDischarge:
    """Discharge imposed by a time law Q(t)."""

    law: Callable[[float], float]

    def ghost(self, state, i, z, c, g, geometry):
        return float(state.area[i]), float(self.law(state.time))

    def node(self, invariant, sign, b, alpha, t, end):
        return float(self.law(t))


@dataclass(frozen=True)
class Wall:
    def ghost(self, state, i, z, c, g, geometry):
        return float(state.area[i]), -float(state.discharge[i])

    def node(self, invariant, sign, b, alpha, t, end):
        return 0.0


@dataclass(frozen=True)
class Periodic:
    def ghost(self, state, i, z, c, g, geometry):
        # the cell at the other end: index -1 for i = 0, 0 for i = -1
        return float(state.area[-1 - i]), float(state.discharge[-1 - i])

    def node(self, invariant, sign, b, alpha, t, end):
        raise ValueError("the characteristics solver needs reservoir, discharge or wall ends")


BoundaryCondition = ReservoirHead | PrescribedDischarge | Wall | Periodic


@dataclass(frozen=True)
class ValveClosure:
    """Declarative closure law; ``kind`` selects the ramp shape before
    t_close, and the valve is shut from t_close on (at once for t_close = 0).

    linear:  q0 * (1 - t/t_close)
    cosine:  q0 * (1 + cos(pi t/t_close)) / 2
    """

    q0: float
    t_close: float
    kind: str = "linear"

    def __post_init__(self):
        if self.kind not in ("linear", "cosine"):
            raise ValueError(f"kind: unknown closure law {self.kind!r}")
        if not 0.0 <= self.t_close < math.inf:
            raise ValueError(f"t_close: must lie in [0, inf), got {self.t_close}")

    def __call__(self, t):
        if t >= self.t_close:
            return 0.0
        if self.kind == "cosine":
            return self.q0 * 0.5 * (1.0 + math.cos(math.pi * t / self.t_close))
        return self.q0 * (1.0 - t / self.t_close)


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one transient run."""

    geometry: PipeGeometry
    constants: PhysicalConstants
    mesh_cells: int
    upstream: BoundaryCondition
    downstream: BoundaryCondition
    initial_discharge: float
    t_end: float
    output_stride: int = 1
    probes: tuple = ()

    def __post_init__(self):
        # each message starts with the field it rejects, for config and cli to name
        periodic = isinstance(self.upstream, Periodic) == isinstance(self.downstream, Periodic)
        for field, ok, rule in (("mesh_cells", isinstance(self.mesh_cells, Integral),
                                 "must be an integer"),
                                ("mesh_cells", self.mesh_cells >= 2, "must be >= 2"),
                                ("t_end", math.isfinite(self.t_end), "must be finite"),
                                ("t_end", self.t_end >= 0, "must be non-negative"),
                                ("output_stride", isinstance(self.output_stride, Integral),
                                 "must be an integer"),
                                ("output_stride", self.output_stride >= 1, "must be >= 1"),
                                ("downstream", periodic, "must be periodic iff upstream is")):
            if not ok:
                raise ValueError(f"{field}: {rule}, got {getattr(self, field)}")
        for x in self.probes:
            if not 0.0 <= x <= self.geometry.length:
                raise ValueError(f"probes: probe at x={x} outside the pipe "
                                 f"[0, {self.geometry.length}]")
        for field, x_end in (("upstream", 0.0), ("downstream", self.geometry.length)):
            side = getattr(self, field)
            if isinstance(side, ReservoirHead):
                crown = float(self.geometry.altitude(x_end)) + self.geometry.diameter
                if side.total_head <= crown:
                    raise ValueError(f"{field}: {side.total_head} m does not cover the pipe "
                                     f"crown {crown:.6g} m at x={x_end:g}")

    def mesh(self):
        return Mesh.uniform(self.geometry.length, self.mesh_cells, self.geometry.altitude)


def _inlet_area(head, q0, z, geometry, c, g):
    """Area at a reservoir end: piezometric head plus velocity head equals the
    reservoir head.  Fixed point on the (tiny) velocity-head correction."""
    area = geometry.section
    for _ in range(_MAX_STEADY_ITERS):
        u = q0 / area
        try:
            new = area_from_piezometric_head(head - 0.5 * u * u / g, geometry.section,
                                             z, geometry.diameter, c, g)
        except ValueError as exc:
            raise SolverError(str(exc)) from exc
        if abs(new - area) <= 1e-14 * area:
            return float(new)
        area = float(new)
    raise SolverError("reservoir head inversion did not converge")


def steady_areas(scenario: Scenario, z):
    """Areas at the bottoms z of the smooth steady state: Q = Q0 and the total
    head u^2/2 + g z + c^2 ln A fixed by the upstream reservoir at x = 0.
    Solved per point by the contraction A <- exp((C - g z - (Q0/A)^2/2)/c^2)
    from the section, which reaches relative 1e-12 in a handful of iterations
    while Q0/(A c) << 1.  Friction is ignored (a run with friction starts from
    the frictionless equilibrium)."""
    if not isinstance(scenario.upstream, ReservoirHead):
        raise ValueError("the steady-state initializer needs an upstream reservoir head")
    geom = scenario.geometry
    c = scenario.constants.c
    g = scenario.constants.g
    q0 = scenario.initial_discharge
    z_inlet = float(geom.altitude(0.0))
    a_inlet = _inlet_area(scenario.upstream.total_head, q0, z_inlet, geom, c, g)
    head_const = 0.5 * (q0 / a_inlet) ** 2 + g * z_inlet + c * c * math.log(a_inlet)
    z = np.asarray(z, dtype=float)
    area = np.full(z.shape, float(geom.section))
    for _ in range(_MAX_STEADY_ITERS):
        u = q0 / area
        new = np.exp((head_const - g * z - 0.5 * u * u) / (c * c))
        if np.any(~np.isfinite(new)) or np.any(new <= 0):
            raise SolverError("steady-state iteration left the positive domain")
        if np.all(np.abs(new - area) <= 1e-12 * area):
            return new
        area = new
    raise SolverError(f"steady state not converged in {_MAX_STEADY_ITERS} iterations")


def steady_state_init(scenario: Scenario, mesh: Mesh) -> State:
    """The ``steady_areas`` state on the cells of ``mesh``, at time 0."""
    return State(area=steady_areas(scenario, mesh.z_cells),
                 discharge=np.full(mesh.n, float(scenario.initial_discharge)), time=0.0)


def ghost_states(state: State, mesh: Mesh, upstream: BoundaryCondition,
                 downstream: BoundaryCondition, c, g, geometry: PipeGeometry):
    """Ghost (A, Q) pairs for both ends at ``state.time``; each law's
    ``ghost`` takes the state, its end's interior cell index, that cell's
    bottom elevation, c, g and the pipe ``geometry``.  A ghost
    with A outside (0, inf) or Q/A not finite raises ``SolverError``."""
    ghosts = (upstream.ghost(state, 0, float(mesh.z_cells[0]), c, g, geometry),
              downstream.ghost(state, -1, float(mesh.z_cells[-1]), c, g, geometry))
    for side, (area, discharge) in zip(("left", "right"), ghosts):
        if not (0.0 < area < math.inf and math.isfinite(float(discharge) / float(area))):
            raise SolverError(f"boundary produced an invalid {side} ghost cell: "
                              f"A={area!r}, Q={discharge!r}")
    return ghosts
