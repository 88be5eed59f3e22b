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

A transmitted rectangle is no longer a rectangle, so on its own this
upwinding balances a sloped column at rest only to first order in
g dz_cell / c^2.  ``step`` therefore applies the hydrostatic reconstruction
of Audusse, Bouchut, Bristeau, Klein & Perthame (SIAM J. Sci. Comput. 25,
2004) for the pressure law p = c^2 A.  At each interface, with
z* = max(z_left, z_right), each side is lowered along its own rest profile

    A*_{L,R} = A_{L,R} exp(-g (z* - z_{L,R}) / c^2),  Q* = Q A* / A,

the kernel is evaluated on (A*_L, Q*_L, A*_R, Q*_R) with dZ = 0, and each
side gets back the pressure the reconstruction removed:

    F-_Q += c^2 (A_L - A*_L),   F+_Q += c^2 (A_R - A*_R).

Then a column at rest, A exp(-g z / c^2) = const, has equal reconstructed
states at every interface and its fluxes cancel to roundoff.  With dZ = 0
the reflected rows are empty and no row sees a jump, so the run path passes
dZ = None ("no jump") and only the two rows of plain flux-vector splitting
are evaluated (``_split_flux_arrays``; the bits of the six at dZ = 0, save
the sign of a zero F+ mass flux).
The six rows stay as the reference flux of the paper, reached with every
numeric dZ, 0 included, by ``checks.check_flux_continuity``, the flux tests
against quadrature and demo 02.

The macroscopic update is the first-order explicit scheme

    U_i' = U_i - dt/h * (F-_{i+1/2} - F+_{i-1/2})

with h the cell width, stable and positivity-preserving under the CFL
condition dt * max(|u| + c sqrt(3)) <= h.  ``_advance`` runs the
reconstruction, the kernel, the add-back and this update on a ghost-extended
block of any leading shape, cells on the last axis: ``step`` on one 1-d
block, ``checks.check_positivity`` on blocks of cases.  On a pipe with a
friction coefficient the discharge is relaxed semi-implicitly after the
hyperbolic update.
Without friction ``step`` hands its new state's max |u|, formed as it tests
admissibility, to the state, and the next ``cfl_timestep`` reads it there.
``run`` hands ``core.march`` one ``cfl_timestep`` per step, the last one
clamped to the end time.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import scenarios
from .core import Mesh, PipeGeometry, SolverError, State, march

SQRT3 = math.sqrt(3.0)

# slack for CFL comparisons so dt computed *from* the condition passes it
_CFL_SLACK = 1.0 + 1e-12


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


# rows of each half block: direct, reflected, transmitted; only the
# transmitted row sees the potential jump
_TRANSMITTED = np.array([[0.0], [0.0], [1.0]])


def _interface_flux_arrays(a_left, q_left, a_right, q_right, dz, c, g):
    """Vectorized interface fluxes for 0-d or 1-d arrays of interfaces (any
    shape with dz = None).

    dz = z_right - z_left, or None for no jump.  Returns (F-_A, F-_Q, F+_A,
    F+_Q), four separate arrays.  dz = None takes ``_split_flux_arrays``;
    any numeric dz the six pieces as rows of one (6, n) block, viewed as
    (half, piece, n); see the module docstring for the layout.
    """
    if dz is None:
        return _split_flux_arrays(a_left, q_left, a_right, q_right, c)
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


def _split_flux_arrays(a_left, q_left, a_right, q_right, c):
    """The fluxes with no jump: plain flux-vector splitting, the xi >= 0 part
    of the left rectangle plus the xi <= 0 part of the right one, so F- = F+
    (as separate arrays of the inputs' shape: ``_advance`` updates them in
    place).  Same bounds, frame and operation order as rows 0 and 2 of the
    six; P(x) = x^2 |x| equals y sqrt(y) for y = fl(x^2), as sqrt(fl(x^2))
    = |x| exactly."""
    shape = np.shape(a_left)
    s = c * SQRT3
    x = np.empty((2, 2) + shape)               # (lo, hi) x (left, right)
    lo, hi = x[0], x[1]                        # unpacking x itself is slower
    # indexing with ... keeps a 0-d target an array
    np.divide(q_left, a_left, out=lo[0, ...])
    np.divide(q_right, a_right, out=lo[1, ...])
    np.add(lo, s, out=hi)
    lo -= s
    np.maximum(lo[0], 0.0, out=lo[0, ...])     # left rectangle: xi >= 0
    np.minimum(hi[1], 0.0, out=hi[1, ...])     # right rectangle: xi <= 0
    # an empty interval collapses onto its bound away from 0, as the empty
    # reflected-left and transmitted-right rows of the six do, so a speed
    # whose square overflows gives the same NaN
    np.minimum(lo[0], hi[0], out=lo[0, ...])
    np.maximum(hi[1], lo[1], out=hi[1, ...])
    dens = np.empty((2,) + shape)
    np.divide(a_left, 2.0 * s, out=dens[0, ...])
    np.divide(a_right, 2.0 * s, out=dens[1, ...])
    p = np.abs(x)
    x *= x
    p *= x
    m0 = x[1] - x[0]
    m0 *= dens
    m0 /= 2.0
    m1 = p[1] - p[0]
    m1 *= dens
    m1 /= 3.0
    f = np.empty((2, 2) + shape)               # (F-, F+) x (A, Q)
    np.add(m0[0], m0[1], out=f[0, 0, ...])
    np.subtract(m1[0], m1[1], out=f[0, 1, ...])  # the right row lies on xi <= 0
    f[1] = f[0]
    return f[0, 0, ...], f[0, 1, ...], f[1, 0, ...], f[1, 1, ...]


def cfl_timestep(state: State, c, mesh: Mesh, cfl_coefficient):
    """dt = cfl * h / max(|u| + c sqrt(3))."""
    if not 0.0 < cfl_coefficient <= 1.0:
        raise ValueError(f"cfl coefficient must lie in (0, 1], got {cfl_coefficient}")
    return cfl_coefficient * mesh.width / (state.max_abs_velocity + c * SQRT3)


def _admissible(area, discharge):
    """Per cell, 0 < A < inf and Q/A finite (so Q too); NaN fails each test."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (area > 0.0) & (area < math.inf) & np.isfinite(discharge / area)


def _advance(ext, shrink, ratio, c, g):
    """New (A, Q) of the n inner cells of ``ext`` (2, ..., n+2): (A, Q), any
    batch axes, then the cells with a ghost on each end.  ``shrink`` is
    ``core.rest_factors`` (2, ..., n+1) and ``ratio`` dt / h, broadcast
    against the cells; see the module docstring for the update."""
    left = ext[..., :-1]
    right = ext[..., 1:]
    left_star = left * shrink[0]
    right_star = right * shrink[1]
    fm_a, fm_q, fp_a, fp_q = _interface_flux_arrays(
        left_star[0], left_star[1], right_star[0], right_star[1], None, c, g)
    # each side keeps the pressure c^2 (A - A*) the reconstruction removed
    lost = np.subtract(left[0], left_star[0], out=left_star[0])
    lost *= c * c
    fm_q += lost
    lost = np.subtract(right[0], right_star[0], out=right_star[0])
    lost *= c * c
    fp_q += lost
    a_new = ext[0, ..., 1:-1] - ratio * (fm_a[..., 1:] - fp_a[..., :-1])
    q_new = ext[1, ..., 1:-1] - ratio * (fm_q[..., 1:] - fp_q[..., :-1])
    return a_new, q_new


def step(state: State, mesh: Mesh, c, g, dt, upstream, downstream,
         geometry: PipeGeometry | None = None) -> State:
    """One explicit update of every cell.

    ``scenarios.ghost_states`` forms and checks the ghost cells of the
    ``upstream`` and ``downstream`` boundary laws; ghosts sit at the same
    bottom elevation as their adjacent interior cell so the boundary
    interfaces carry no topography jump.  ``_advance`` updates the
    ghost-extended 1-d block, reconstructing both sides of every interface
    at the higher bottom (see the module docstring), so the flux kernel sees
    no jump anywhere.  A new cell outside ``_admissible`` raises
    ``SolverError`` naming it.  ``geometry`` (None: a pipe without friction
    or reservoir ends) gives a reservoir end its ghost, and its friction
    coefficient K > 0 relaxes Q <- Q / (1 + dt g K |u|) semi-implicitly.
    Without friction the new state carries max |Q/A|, formed as its
    admissibility is tested, as its CFL speed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    speed = state.max_abs_velocity + c * SQRT3
    if dt * speed > mesh.width * _CFL_SLACK:
        raise SolverError(
            f"dt={dt:g} violates the CFL condition: dt*max(|u|+c*sqrt(3))="
            f"{dt * speed:g} > cell width {mesh.width:g}")

    ext = np.empty((2, state.area.size + 2))   # (A, Q) with one ghost on each end
    ext[:, 0], ext[:, -1] = scenarios.ghost_states(state, mesh, upstream, downstream,
                                                   c, g, geometry)
    ext[0, 1:-1] = state.area
    ext[1, 1:-1] = state.discharge
    a_new, q_new = _advance(ext, mesh.rest_factors(c, g), dt / mesh.width, c, g)

    # with 0 < A < inf a finite max |Q/A| shows every cell admissible;
    # otherwise some cell is not, and the mask names the first
    speed = math.inf
    if a_new.min() > 0.0 and a_new.max() < math.inf:
        abs_u = np.abs(q_new / a_new)
        speed = float(abs_u.max())
    if not speed < math.inf:
        i = int(np.argmin(_admissible(a_new, q_new)))
        raise SolverError(f"cell {i} left the admissible states at t={state.time + dt!r}: "
                          f"A={float(a_new[i])!r}, Q={float(q_new[i])!r}")

    if geometry is not None and geometry.friction_coefficient:
        q_new = q_new / (1.0 + dt * g * geometry.friction_coefficient * abs_u)
        speed = None                           # Q changed: computed when asked

    return State._checked(a_new, q_new, state.time + dt, speed)


def run(scenario: scenarios.Scenario, cfl, observer=None, initial: State | None = None) -> State:
    """March the scenario from ``initial`` (default: ``steady_state_init`` on
    its mesh; its time at most t_end) through ``core.march`` with ``observer``,
    in steps at CFL coefficient ``cfl`` in (0, 1], the last one clamped so the
    final time is exactly t_end."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    mesh = scenario.mesh()
    state = scenarios.steady_state_init(scenario, mesh) if initial is None else initial
    c, g, t_end = scenario.constants.c, scenario.constants.g, scenario.t_end
    laws = (scenario.upstream, scenario.downstream, scenario.geometry)

    def advance(state):
        dt = cfl_timestep(state, c, mesh, cfl)
        if state.time + dt == state.time:
            raise SolverError(f"time step dt={dt:g} makes no progress at t={state.time!r} "
                              f"(t_end={t_end!r})")
        if state.time + dt < t_end:
            return step(state, mesh, c, g, dt, *laws)
        return replace(step(state, mesh, c, g, t_end - state.time, *laws), time=float(t_end))

    return march(state, t_end, advance, observer)
