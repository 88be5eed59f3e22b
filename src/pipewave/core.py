"""Physical constants, pipe geometry, mesh, state, march and diagnostics.

The flow model is the conservative pair (A, Q) where A is the pressurized
("free-surface equivalent") wetted area rho*S/rho0 and Q = A*u the matching
discharge.  Everything here is plain data plus closed-form physics: sound and
elastic wave speeds, piezometric and total head, entropy density and the
Manning-Strickler friction slope of the pipe's wall roughness.  Both solvers
run ``march``, the one loop that numbers steps and calls the observer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class SolverError(RuntimeError):
    """Raised when a numerical run cannot proceed (CFL violation, lost
    positivity, unsolvable boundary law, ...)."""


def _require_positive(**values):
    for name, v in values.items():
        if not np.all(np.asarray(v) > 0.0):
            raise ValueError(f"{name} must be positive, got {v!r}")


# ---------------------------------------------------------------------------
# constants and geometry
# ---------------------------------------------------------------------------

def sound_speed(beta, rho0):
    """Rigid-pipe sound speed c = 1/sqrt(beta*rho0).

    beta is the water compressibility (1/Pa), rho0 the density at
    atmospheric pressure (kg/m^3).
    """
    _require_positive(beta=beta, rho0=rho0)
    return 1.0 / math.sqrt(beta * rho0)


def effective_wave_speed(c, diameter, wall_thickness, young_modulus, beta):
    """Pressure wave speed in an elastic pipe.

    a = c / sqrt(1 + diameter / (beta * wall_thickness * young_modulus))

    The correction accounts for the hoop elasticity of the wall; the rigid
    limit diameter -> 0 returns c itself.
    """
    _require_positive(c=c, diameter=diameter, wall_thickness=wall_thickness,
                      young_modulus=young_modulus, beta=beta)
    return c / math.sqrt(1.0 + diameter / (beta * wall_thickness * young_modulus))


@dataclass(frozen=True)
class PhysicalConstants:
    """The model wave speed c (m/s; see ``effective_wave_speed``) and gravity
    g, both positive and finite: a MOC step dx/c = 0 would never advance."""

    c: float
    g: float = 9.81

    def __post_init__(self):
        if not (0 < self.c < math.inf and 0 < self.g < math.inf):
            raise ValueError(f"c and g must be positive and finite, got c={self.c!r}, "
                             f"g={self.g!r}")


@dataclass(frozen=True)
class LinearAltitude:
    """Bottom elevation z(x) = upstream_z + x*sin(angle), angle in degrees,
    signed (negative = descending pipe)."""

    upstream_z: float
    angle_deg: float

    def __call__(self, x):
        return self.upstream_z + math.sin(math.radians(self.angle_deg)) * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class PipeGeometry:
    """Uniform circular pipe: length, section S, the bottom elevation profile
    and the wall's Strickler roughness K_s (m^(1/3)/s; None: no friction).
    They fix the read-only ``diameter`` 2*sqrt(S/pi), wetted ``perimeter``
    pi*diameter and Manning-Strickler ``friction_coefficient``
    K = 1/(K_s^2 R_h^(4/3)), R_h = S/perimeter: 0.0 without K_s, else it
    must be positive and finite."""

    length: float
    section: float
    altitude: object
    strickler: float | None = None

    def __post_init__(self):
        _require_positive(length=self.length, section=self.section)
        diameter = 2.0 * math.sqrt(self.section / math.pi)
        perimeter = math.pi * diameter
        k = 0.0
        if self.strickler is not None:
            try:
                k = 1.0 / (self.strickler ** 2 * (self.section / perimeter) ** (4.0 / 3.0))
            except (OverflowError, ZeroDivisionError):      # K_s^2 out of range
                k = math.nan
            if not (self.strickler > 0 and 0.0 < k < math.inf):
                raise ValueError(f"strickler must be positive and give a positive, finite "
                                 f"friction coefficient, got {self.strickler!r}")
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "perimeter", perimeter)
        object.__setattr__(self, "friction_coefficient", k)


# ---------------------------------------------------------------------------
# mesh, state and march
# ---------------------------------------------------------------------------

def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def rest_factors(z, c, g):
    """(2, ..., n+1) factors exp(-g (z* - z) / c^2) for bottoms z of shape
    (..., n): they lower the left and right side of each interface along
    their rest profiles to z* = max(z_left, z_right).  Both ends are 1, as
    ghosts share their neighbour's bottom."""
    rise = np.zeros((2,) + z.shape[:-1] + (z.shape[-1] + 1,))
    np.subtract(z[..., 1:], z[..., :-1], out=rise[0, ..., 1:-1])
    np.negative(rise[0], out=rise[1])
    np.maximum(rise, 0.0, out=rise)
    return np.exp(np.multiply(rise, -g / (c * c), out=rise), out=rise)


@dataclass(frozen=True)
class Mesh:
    """n equal cells of ``width`` on [0, length], their read-only ``centers``
    and the piecewise-constant bottom z_cells[i] = Z(centers[i])."""

    length: float
    z_cells: np.ndarray

    def __post_init__(self):
        z_cells = _readonly(self.z_cells)
        if z_cells.ndim != 1 or z_cells.size == 0:
            raise ValueError("mesh bottoms must be a non-empty 1-d array")
        _require_positive(length=self.length)
        width = self.length / z_cells.size
        object.__setattr__(self, "z_cells", z_cells)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "centers", _readonly((np.arange(z_cells.size) + 0.5) * width))
        object.__setattr__(self, "_rest_factors", {})

    @property
    def n(self):
        return self.z_cells.size

    def rest_factors(self, c, g):
        """Read-only ``rest_factors(z_cells, c, g)``, computed once per (c, g)."""
        factors = self._rest_factors.get((c, g))
        if factors is None:
            factors = rest_factors(self.z_cells, c, g)
            factors.setflags(write=False)
            self._rest_factors[(c, g)] = factors
        return factors

    @classmethod
    def uniform(cls, length, n, altitude):
        """n equal cells on [0, length] with bottom sampled at cell centers."""
        return cls(length, altitude((np.arange(n) + 0.5) * (length / n)))


@dataclass(frozen=True)
class State:
    """Per-cell conservative variables (A, Q) at simulation time ``time``."""

    area: np.ndarray
    discharge: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        area = _readonly(self.area)
        discharge = _readonly(self.discharge)
        if area.shape != discharge.shape or area.ndim != 1:
            raise ValueError("area and discharge must be 1-d arrays of equal length")
        if not math.isfinite(self.time):
            raise ValueError(f"time must be finite, got {self.time!r}")
        for rule, values, ok in (("wetted area must lie in (0, inf)", area,
                                  (area > 0) & (area < math.inf)),
                                 ("discharge must be finite", discharge, np.isfinite(discharge))):
            if not ok.all():
                i = int(np.argmin(ok))
                raise ValueError(f"{rule}: cell {i} is {float(values[i])!r}")
        object.__setattr__(self, "area", area)
        object.__setattr__(self, "discharge", discharge)

    @classmethod
    def _checked(cls, area, discharge, time, max_abs_velocity=None):
        """A state from fresh, equal-length float arrays whose values the
        caller has checked (A finite and positive, Q finite); they are made
        read-only in place, without the copy and checks of ``__init__``.  A
        given ``max_abs_velocity`` is cached: it must be the property's bits."""
        area.setflags(write=False)
        discharge.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(area=area, discharge=discharge, time=time)
        if max_abs_velocity is not None:
            state.__dict__["max_abs_velocity"] = max_abs_velocity
        return state

    @property
    def velocity(self):
        return self.discharge / self.area

    @cached_property
    def max_abs_velocity(self):
        """max |u|, computed once per state (the CFL bound and its check)."""
        return float(np.abs(self.velocity).max())

    @property
    def n(self):
        return self.area.size


def march(state, t_end, advance, observer=None):
    """March ``state`` (its time at most t_end) while its time lies before
    t_end: ``advance(state)`` gives the next state, or None to stop short of
    t_end, and ``observer(state)`` sees each one.  A ``SolverError`` is raised
    again naming the step (from 1) and its start time.  Returns the last state."""
    if not math.isfinite(t_end):
        # nan would return after 0 steps and inf march forever
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < state.time:
        raise ValueError(f"t_end={t_end} precedes the initial time {state.time}")
    steps = 0
    while state.time < t_end:
        steps += 1
        try:
            new = advance(state)
        except SolverError as exc:
            raise SolverError(f"step {steps} from t={state.time!r}: {exc}") from exc
        if new is None:
            break
        state = new
        if observer is not None:
            observer(state)
    return state


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def piezometric_head(area, section, z, diameter, c, g):
    """Piezometric line z + diameter + p with the pressure head
    p = c^2 (rho/rho0 - 1) / g and rho/rho0 = A/S."""
    _require_positive(area=area, section=section)
    area = np.asarray(area, dtype=float)
    return z + diameter + c * c * (area / section - 1.0) / g


def area_from_piezometric_head(head, section, z, diameter, c, g):
    """Invert the piezometric line for A; the head is linear in A so the
    inverse is closed-form.  Raises if the head implies A <= 0."""
    area = section * (1.0 + g * (np.asarray(head, dtype=float) - z - diameter) / (c * c))
    if not np.all(area > 0):
        raise ValueError(f"piezometric head {head!r} implies a non-positive wetted area")
    return area


def total_head(area, velocity, z, c, g):
    """Total head u^2/2 + g z + c^2 ln A, in m^2/s^2; constant along smooth
    frictionless steady states."""
    _require_positive(area=area)
    area = np.asarray(area, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    return 0.5 * velocity * velocity + g * z + c * c * np.log(area)


def entropy_cell(area, discharge, z, c, g):
    """Entropy density Q^2/(2A) + g A z + c^2 A ln A of one cell."""
    _require_positive(area=area)
    area = np.asarray(area, dtype=float)
    discharge = np.asarray(discharge, dtype=float)
    return 0.5 * discharge * discharge / area + g * area * z + c * c * area * np.log(area)


def friction_slope(velocity, geometry: PipeGeometry):
    """Manning-Strickler slope S_f = K u|u|, K the pipe's
    ``friction_coefficient``; zero on a pipe without roughness."""
    velocity = np.asarray(velocity, dtype=float)
    return geometry.friction_coefficient * velocity * np.abs(velocity)
