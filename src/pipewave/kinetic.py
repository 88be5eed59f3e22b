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

    A*_{L,R} = w_{L,R} A_{L,R},  Q* = w Q,  w_{L,R} = exp(-g (z* - z_{L,R}) / c^2),

the flux is taken on (A*_L, Q*_L, A*_R, Q*_R) with dZ = 0, and each side
gets back the pressure the reconstruction removed, c^2 (A - A*).  Then a
column at rest, A exp(-g z / c^2) = const, has equal reconstructed states
at every interface and its fluxes cancel to roundoff.

With dZ = 0 no row is reflected or shifted: the flux is the xi >= 0 half of
the left rectangle plus the xi <= 0 half of the right one, so F- = F+.  The
weights w (``Mesh.rest_factors``) scale A and Q alike and leave u = Q/A as
it is, so each cell's halves are formed once, in closed form, from its own
state: with s = c sqrt(3) and the half's bounds

    xi >= 0:  [max(u - s, 0), max(u + s, 0)],    xi <= 0:  [min(u - s, 0), min(u + s, 0)],

its mass is A (hi^2 - lo^2) / (4 s) and its momentum A (hi^3 - lo^3) / (6 s).
``_interface_flux_arrays`` gives interface j the left weight times the
xi >= 0 half of cell j plus the right weight times the xi <= 0 half of cell
j + 1, and the pressures given back fold into one term per cell,
c^2 (w_R[i-1/2] - w_L[i+1/2]) A_i.  The six rows stay as the reference
flux of the paper (``_six_row_flux_arrays``), reached with every numeric
dZ by ``checks.check_flux_continuity``, the flux tests against quadrature
and demo 02; at dZ = 0 they agree with the closed form to roundoff.

The macroscopic update is the first-order explicit scheme

    U_i' = U_i - dt/h * (F-_{i+1/2} - F+_{i-1/2})

with h the cell width, stable and positivity-preserving under the CFL
condition dt * max(|u| + c sqrt(3)) <= h.  ``_advance`` runs the
weighted halves, the add-back and this update on a ghost-extended block of
any leading shape, cells on the last axis: ``step`` on one 1-d
block, ``checks.check_positivity`` on blocks of cases.  Its scratch
buffers are a ``_Workspace``: each ``Mesh`` owns one per (c, g), made on
its first ``step`` beside its rest factors (so one mesh takes one step at
a time), and ``check_positivity`` makes one per block.  No state aliases
them: each step's new (A, Q) are fresh arrays, made read-only by the
state.  Every ``step`` takes its pipe: on one with a Strickler roughness
the discharge is relaxed semi-implicitly by its friction coefficient after
the hyperbolic update.
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


def _six_row_flux_arrays(a_left, q_left, a_right, q_right, dz, c, g):
    """Vectorized interface fluxes for 0-d or 1-d arrays of interfaces.

    dz = z_right - z_left.  Returns (F-_A, F-_Q, F+_A, F+_Q), four separate
    arrays: the six pieces as rows of one (6, n) block, viewed as (half,
    piece, n); see the module docstring for the layout.
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


class _Workspace:
    """Scratch buffers of ``_advance`` on ghost-extended blocks ``ext``
    (2, ..., n+2) under the rest factors ``shrink`` (2, ..., n+1) at wave
    speed c, with what it folds from them once: the add-back coefficient
    c^2 (w_R[i-1/2] - w_L[i+1/2]), the bound offsets -+ c sqrt(3) and the two
    moment scales 1/(4 s) and 1/(6 s).  Each operation of a step writes into
    these buffers; only the new state's arrays are fresh."""

    def __init__(self, shrink, c):
        s = c * SQRT3
        faces = shrink.shape[1:]
        cells = faces[:-1] + (faces[-1] + 1,)
        column = (2,) + (1,) * len(cells)      # one value per row, broadcast over the cells
        self.w_left, self.w_right = shrink
        self.add_back = shrink[1, ..., :-1] - shrink[0, ..., 1:]
        self.add_back *= c * c
        self.offsets = np.array([-s, s]).reshape(column)
        self.scales = np.array([0.25 / s, 1.0 / (6.0 * s)]).reshape(column)
        self.ext = np.empty((2,) + cells)
        self.u = np.empty(cells)
        self.x = np.empty((2,) + cells)        # bounds u - s, u + s
        self.positive = np.empty(self.x.shape, dtype=bool)
        h = np.empty((2, 2) + self.x.shape)     # (xi >= 0, xi <= 0) x (x^2, x^3) x bound
        self.above, self.whole = h              # the xi >= 0 half, then all of the rectangle
        self.lo, self.hi = h[:, :, 0], h[:, :, 1]
        self.d = np.empty((2, 2) + cells)       # (xi >= 0, xi <= 0) x (mass, momentum)
        self.right_going, self.left_going = self.d[0, ..., :-1], self.d[1, ..., 1:]
        self.scaled_area = np.empty((2,) + cells)
        self.f, self.f_right = np.empty((2, 2) + faces)
        self.df = np.empty((2,) + self.add_back.shape)
        self.lost = np.empty(self.add_back.shape)


def _interface_flux_arrays(w_left, w_right, ext, work):
    """(F_A, F_Q), a (2, ..., n+1) block, at the interfaces of the
    ghost-extended cells ``ext`` (2, ..., n+2): w_left times the left cell's
    xi >= 0 half plus w_right times the right cell's xi <= 0 half, the
    weights (..., n+1) broadcast against the interfaces; see the module
    docstring.  It is ``work.f``, overwritten by the next call."""
    area = ext[0]
    x = np.add(np.divide(ext[1], area, out=work.u), work.offsets, out=work.x)
    whole = work.whole
    np.multiply(x, x, out=whole[0])
    np.multiply(whole[0], x, out=whole[1])
    # the xi >= 0 half keeps the powers of the bounds above 0 and the xi <= 0
    # half the rest: each half clamped to its side, save that a power that
    # overflows is NaN in both halves, as in the six rows
    np.multiply(whole, np.greater(x, 0.0, out=work.positive), out=work.above)
    whole -= work.above
    d = np.subtract(work.hi, work.lo, out=work.d)
    d *= np.multiply(work.scales, area, out=work.scaled_area)
    f = np.multiply(w_left, work.right_going, out=work.f)
    f += np.multiply(w_right, work.left_going, out=work.f_right)
    return f


def cfl_timestep(state: State, c, mesh: Mesh, cfl_coefficient):
    """dt = cfl * h / max(|u| + c sqrt(3))."""
    if not 0.0 < cfl_coefficient <= 1.0:
        raise ValueError(f"cfl coefficient must lie in (0, 1], got {cfl_coefficient}")
    return cfl_coefficient * mesh.width / (state.max_abs_velocity + c * SQRT3)


def _admissible(area, discharge):
    """Per cell, 0 < A < inf and Q/A finite (so Q too); NaN fails each test."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (area > 0.0) & (area < math.inf) & np.isfinite(discharge / area)


def _advance(ext, work, ratio):
    """New (A, Q) of the n inner cells of ``ext`` (2, ..., n+2): (A, Q), any
    batch axes, then the cells with a ghost on each end.  ``work`` is a
    ``_Workspace`` of that shape, and ``ratio`` dt / h is broadcast against
    the cells; see the module docstring for the update."""
    f = _interface_flux_arrays(work.w_left, work.w_right, ext, work)
    df = np.subtract(f[..., 1:], f[..., :-1], out=work.df)
    # each cell gets back the pressure c^2 (A - A*) the reconstruction
    # removed on its two sides
    df[1] += np.multiply(work.add_back, ext[0, ..., 1:-1], out=work.lost)
    df *= ratio
    new = ext[:, ..., 1:-1] - df
    return new[0], new[1]


def step(state: State, mesh: Mesh, c, g, dt, upstream, downstream,
         geometry: PipeGeometry) -> State:
    """One explicit update of every cell.

    ``scenarios.ghost_states`` forms and checks the ghost cells of the
    ``upstream`` and ``downstream`` boundary laws; ghosts sit at the same
    bottom elevation as their adjacent interior cell so the boundary
    interfaces carry no topography jump.  ``_advance`` updates the
    ghost-extended 1-d block, reconstructing both sides of every interface
    at the higher bottom (see the module docstring), so the flux kernel sees
    no jump anywhere.  A new cell outside ``_admissible`` raises
    ``SolverError`` naming it.  The pipe ``geometry`` gives a reservoir end
    its ghost, and its friction coefficient K > 0 (a pipe with a Strickler
    roughness) relaxes Q <- Q / (1 + dt g K |u|) semi-implicitly.
    Without friction the new state carries max |Q/A|, formed as its
    admissibility is tested, as its CFL speed.
    """
    if not dt > 0:                             # NaN too
        raise ValueError(f"dt must be positive, got {dt!r}")
    if state.area.size != mesh.n:
        raise ValueError(f"the state has {state.area.size} cells, the mesh {mesh.n}")
    speed = state.max_abs_velocity + c * SQRT3
    if dt * speed > mesh.width * _CFL_SLACK:
        raise SolverError(
            f"dt={dt:g} violates the CFL condition: dt*max(|u|+c*sqrt(3))="
            f"{dt * speed:g} > cell width {mesh.width:g}")

    work = mesh._workspaces.get((c, g))
    if work is None:                           # the mesh's first step at (c, g)
        work = mesh._workspaces[(c, g)] = _Workspace(mesh.rest_factors(c, g), c)
    ext = work.ext                             # (A, Q) with one ghost on each end
    (ext[0, 0], ext[1, 0]), (ext[0, -1], ext[1, -1]) = scenarios.ghost_states(
        state, mesh, upstream, downstream, c, g, geometry)
    ext[0, 1:-1] = state.area
    ext[1, 1:-1] = state.discharge
    a_new, q_new = _advance(ext, work, dt / mesh.width)

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

    if geometry.friction_coefficient:
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
