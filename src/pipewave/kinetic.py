"""Kinetic finite-volume solver with topography-upwinded interface fluxes.

Each cell state (A, Q) is represented by a rectangular microscopic
equilibrium

    M(xi) = A / (2 c sqrt(3))   for |xi - u| <= c sqrt(3),  else 0,

whose 0th/1st/2nd moments recover A, Q and the momentum flux Q^2/A + c^2 A.
At a cell interface the outgoing half of the distribution is kept, while the
incoming half combines particles reflected by the bottom step (kinetic energy
below the potential jump 2 g dZ) with particles transmitted from the
neighbour at the energy-shifted speed sqrt(xi^2 - 2 g dZ).  Because the
equilibrium is piecewise constant every flux is a sum of exact integrals of
the rectangle over explicit intervals; no quadrature is involved.

The six pieces at an interface are the rows of one (6, n) block.  Rows 0-2
sum to F- (fed to the left cell), rows 3-5 to F+ (fed to the right cell):

    row  piece                    density  interval
    0    left, direct             left     xi >= 0
    1    left, reflected          left     -r_up <= xi <= 0,  mirrored speed
    2    right, transmitted       right    nu <= -r_down,     jump +2 g dZ
    3    right, direct            right    xi <= 0
    4    right, reflected         right    0 <= xi <= r_down,  mirrored speed
    5    left, transmitted        left     nu >= r_up,        jump -2 g dZ

with dZ = z_right - z_left, r_up = sqrt(max(2 g dZ, 0)) and
r_down = sqrt(max(-2 g dZ, 0)).  A transmitted row is written in the speed
nu = sgn sqrt(xi^2 - 2 g dZ) the particle had in its own cell; xi dxi = nu dnu
turns its mass moment into the plain moment of the rectangle in nu and its
momentum moment into int |nu| sqrt(nu^2 + jump) dnu.  So every row is one
formula over one interval [lo, hi]:

    m0 = dens (hi^2 - lo^2) / 2
    m1 = sign dens (P(hi) - P(lo)) / 3,  P(x) = y sqrt(y),  y = max(x^2 + jump, 0)

with jump = 0 on the direct and reflected rows and sign = -1 on rows that lie
on xi <= 0.  The F+ rows are the mirror image of the F- rows, so they are
evaluated in the mirrored frame xi -> -xi.  There rows 3-5 take the bounds of
rows 0-2 (direct on xi >= 0, reflected and transmitted on xi <= 0, so
sign = -1 on rows 1, 2, 4 and 5); the mass moment of F+ changes sign and the
momentum moment does not.

The macroscopic update is the first-order explicit scheme

    U_i' = U_i - dt/h_i * (F-_{i+1/2} - F+_{i-1/2})

stable and positivity-preserving under the CFL condition
dt * max(|u| + c sqrt(3)) <= min h.  Friction, when enabled, is applied to
the discharge after the hyperbolic update through a semi-implicit relaxation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (FrictionParams, Mesh, PipeGeometry, SolverError, State,
                   friction_coefficient)

SQRT3 = math.sqrt(3.0)

# slack for CFL comparisons so dt computed *from* the condition passes it
_CFL_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class KineticParams:
    """Time-step safety factor; the rectangle half-width sqrt(3) is fixed by
    the unit-mass / unit-second-moment constraints on the equilibrium."""

    cfl: float = 0.8
    chi_support_halfwidth = SQRT3

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")


@dataclass(frozen=True)
class HalfFlux:
    """One-sided numerical flux (mass component, momentum component)."""

    f_area: float
    f_momentum: float

    def __post_init__(self):
        if not (math.isfinite(self.f_area) and math.isfinite(self.f_momentum)):
            raise ValueError("flux components must be finite")


@dataclass(frozen=True)
class InterfaceFluxPair:
    """The two fluxes at one interface: ``minus`` feeds the left cell,
    ``plus`` the right cell; their mass components coincide."""

    minus: HalfFlux
    plus: HalfFlux


def maxwellian_density(area, velocity, c, xi):
    """Rectangular equilibrium density at microscopic velocity xi."""
    if not np.all(np.asarray(area) > 0):
        raise ValueError("area must be positive")
    if c <= 0:
        raise ValueError("sound speed must be positive")
    s = c * SQRT3
    xi = np.asarray(xi, dtype=float)
    inside = np.abs(xi - velocity) <= s
    return np.where(inside, area / (2.0 * s), 0.0)[()]


def _row_moments(dens, x, jump):
    """Closed-form moments of one or many rows, each a constant density over
    one interval x = (lo, hi) of a half-line:

        m0 = dens * (hi^2 - lo^2) / 2
        m1 = dens * (P(hi) - P(lo)) / 3,  P(v) = y sqrt(y),  y = max(v^2 + jump, 0)

    m1 is the second moment on xi >= 0; on xi <= 0 it is -m1.  An empty
    interval (hi <= lo) contributes nothing.  ``x`` is used as scratch.
    """
    lo, hi = x
    np.maximum(hi, lo, out=hi)
    x *= x
    m0 = x[1] - x[0]
    m0 *= dens
    m0 /= 2.0
    # the clamp only absorbs roundoff: on a non-empty interval v^2 + jump >= 0
    x += jump
    np.maximum(x, 0.0, out=x)
    x *= np.sqrt(x)
    m1 = x[1] - x[0]
    m1 *= dens
    m1 /= 3.0
    return m0, m1


def shifted_half_moments(area, velocity, c, potential_jump, positive_half):
    """Closed-form transmission moments

        m0 = int xi   M(sgn sqrt(xi^2 - potential_jump)) dxi
        m1 = int xi^2 M(sgn sqrt(xi^2 - potential_jump)) dxi

    over {xi >= 0} (``positive_half``) or {xi <= 0}, restricted to
    xi^2 >= potential_jump; (0, 0) when the transformed support misses the
    integration domain (total reflection).  The xi <= 0 case is evaluated in
    the mirrored frame xi -> -xi, which flips the sign of m0 only.
    """
    if area <= 0 or c <= 0:
        raise ValueError("area and sound speed must be positive")
    s = c * SQRT3
    mirror = 1.0 if positive_half else -1.0
    u = mirror * velocity
    x = np.array([[max(u - s, math.sqrt(max(-potential_jump, 0.0)))], [u + s]])
    m0, m1 = _row_moments(area / (2.0 * s), x, potential_jump)
    return mirror * float(m0[0]), float(m1[0])


# rows of each half block: direct, reflected, transmitted; only the
# transmitted row sees the potential jump
_TRANSMITTED = np.array([[0.0], [0.0], [1.0]])


def _interface_flux_arrays(a_left, q_left, a_right, q_right, dz, c, g):
    """Vectorized interface fluxes for 0-d or 1-d arrays of interfaces.

    dz = z_right - z_left.  Returns (F-_A, F-_Q, F+_A, F+_Q).  The six
    pieces are the rows of one (6, n) block, viewed as (half, piece, n); see
    the module docstring for the layout.
    """
    shape = np.shape(a_left)
    n = np.size(a_left)
    s = c * SQRT3
    x = np.empty((2, 2, 3, n))
    lo, hi = x
    # row velocities in their half's frame (the F+ half is mirrored, xi -> -xi),
    # held in lo until the bounds are formed
    np.divide(q_left, a_left, out=lo[0, 0])
    np.divide(q_right, a_right, out=lo[1, 0])
    np.negative(lo[1, 0], out=lo[1, 0])
    np.negative(lo[:, 0], out=lo[:, 1])        # reflected: the own cell, turned back
    lo[:, 2] = lo[::-1, 1]                     # transmitted: the other cell
    np.add(lo, s, out=hi)
    lo -= s
    dens = np.empty((2, 3, n))
    np.divide(a_left, 2.0 * s, out=dens[0, 0])
    np.divide(a_right, 2.0 * s, out=dens[1, 0])
    dens[:, 1] = dens[:, 0]
    dens[:, 2] = dens[::-1, 0]
    w = np.empty((2, n))                       # potential jump seen by each half
    np.multiply(dz, 2.0 * g, out=w[0])
    np.negative(w[0], out=w[1])
    neg_r = -np.sqrt(np.maximum(w, 0.0))       # -(radius of the reflection set)

    np.maximum(lo[:, 0], 0.0, out=lo[:, 0])    # direct: xi >= 0
    np.maximum(lo[:, 1], neg_r, out=lo[:, 1])  # reflected: -r <= xi <= 0
    np.minimum(hi[:, 1], 0.0, out=hi[:, 1])
    np.minimum(hi[:, 2], neg_r[::-1], out=hi[:, 2])  # transmitted: xi <= -r_other
    m0, m1 = _row_moments(dens, x, w[:, None] * _TRANSMITTED)

    f_a = m0[:, 0] + m0[:, 1] + m0[:, 2]
    f_q = m1[:, 0] - m1[:, 1] - m1[:, 2]       # rows 1 and 2 lie on xi <= 0
    return (f_a[0].reshape(shape), f_q[0].reshape(shape),
            (-f_a[1]).reshape(shape), f_q[1].reshape(shape))


def interface_fluxes(left, right, z_left, z_right, c, g):
    """Flux pair at one interface from the (A, Q) states of its two cells.

    ``minus`` combines the left cell's outgoing particles with reflected and
    transmitted incomers; ``plus`` is the mirror construction seen by the
    right cell.  Mass components agree to roundoff by construction.
    """
    a_l, q_l = left
    a_r, q_r = right
    if a_l <= 0 or a_r <= 0:
        raise ValueError("wetted areas must be positive")
    fm_a, fm_q, fp_a, fp_q = _interface_flux_arrays(
        np.float64(a_l), np.float64(q_l), np.float64(a_r), np.float64(q_r),
        np.float64(z_right - z_left), c, g)
    return InterfaceFluxPair(minus=HalfFlux(float(fm_a), float(fm_q)),
                             plus=HalfFlux(float(fp_a), float(fp_q)))


def cfl_timestep(state: State, c, mesh: Mesh, cfl_coefficient):
    """dt = cfl * min(h) / max(|u| + c sqrt(3))."""
    if not 0.0 < cfl_coefficient <= 1.0:
        raise ValueError(f"cfl coefficient must lie in (0, 1], got {cfl_coefficient}")
    if mesh.n == 0:
        raise ValueError("empty mesh")
    return cfl_coefficient * mesh.min_width / (state.max_abs_velocity + c * SQRT3)


def _check_ghost(side, area, discharge):
    if not (0.0 < area < math.inf and math.isfinite(discharge)):
        raise SolverError(f"boundary produced an invalid {side} ghost cell: "
                          f"A={area!r}, Q={discharge!r}")


def _with_ghosts(left, cells, right):
    """The cells with one ghost value on each end, as one array of n+2."""
    ext = np.empty(cells.size + 2)
    ext[0] = left
    ext[1:-1] = cells
    ext[-1] = right
    return ext


def step(state: State, mesh: Mesh, c, g, dt, friction: FrictionParams,
         boundary, geometry: PipeGeometry | None = None) -> State:
    """One explicit update of every cell.

    ``boundary`` maps the current state to the pair of ghost cells
    ((A, Q) left, (A, Q) right); ghosts sit at the same bottom elevation as
    their adjacent interior cell so the boundary interfaces carry no
    topography jump.  The discharge is relaxed semi-implicitly,
    Q <- Q / (1 + dt g K |u|), when friction is enabled (this needs
    ``geometry`` for the hydraulic radius).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    speed = state.max_abs_velocity + c * SQRT3
    if dt * speed > mesh.min_width * _CFL_SLACK:
        raise SolverError(
            f"dt={dt:g} violates the CFL condition: dt*max(|u|+c*sqrt(3))="
            f"{dt * speed:g} > min width {mesh.min_width:g}")

    (a_gl, q_gl), (a_gr, q_gr) = boundary(state)
    _check_ghost("left", a_gl, q_gl)
    _check_ghost("right", a_gr, q_gr)

    a = state.area
    q = state.discharge
    a_ext = _with_ghosts(a_gl, a, a_gr)
    q_ext = _with_ghosts(q_gl, q, q_gr)
    fm_a, fm_q, fp_a, fp_q = _interface_flux_arrays(
        a_ext[:-1], q_ext[:-1], a_ext[1:], q_ext[1:], mesh.interface_dz, c, g)

    ratio = dt / mesh.widths
    a_new = a - ratio * (fm_a[1:] - fp_a[:-1])
    q_new = q - ratio * (fm_q[1:] - fp_q[:-1])

    if np.any(a_new <= 0):
        i = int(np.argmin(a_new))
        raise SolverError(
            f"wetted area lost positivity in cell {i} (A={a_new[i]:g}); "
            "unreachable under the CFL condition")

    if friction.enabled:
        if geometry is None:
            raise ValueError("friction needs the pipe geometry for the hydraulic radius")
        k = friction_coefficient(geometry, friction)
        u_star = q_new / a_new
        q_new = q_new / (1.0 + dt * g * k * np.abs(u_star))

    return State(area=a_new, discharge=q_new, time=state.time + dt)


def run(initial: State, mesh: Mesh, params: KineticParams,
        constants, friction: FrictionParams, boundary, t_end,
        observer=None, geometry: PipeGeometry | None = None) -> State:
    """March ``initial`` to t_end with adaptive CFL steps, clamping the last
    step so the final time is exactly t_end; ``observer(state)`` is invoked
    after every accepted step."""
    if t_end < initial.time:
        raise ValueError(f"t_end={t_end} precedes the initial time {initial.time}")
    state = initial
    while state.time < t_end:
        dt = cfl_timestep(state, constants.c, mesh, params.cfl)
        if state.time + dt == state.time:
            raise SolverError(f"time step dt={dt:g} makes no progress at "
                              f"t={state.time!r} (t_end={t_end!r})")
        clamped = state.time + dt >= t_end
        if clamped:
            dt = t_end - state.time
        state = step(state, mesh, constants.c, constants.g, dt, friction,
                     boundary, geometry)
        if clamped:
            state = replace(state, time=float(t_end))
        if observer is not None:
            observer(state)
    return state
