"""Physical constants, pipe geometry, mesh and per-cell diagnostics.

The flow model is the conservative pair (A, Q) where A is the pressurized
("free-surface equivalent") wetted area rho*S/rho0 and Q = A*u the matching
discharge.  Everything here is plain data plus closed-form physics: sound and
elastic wave speeds, piezometric and total head, entropy density and the
Manning-Strickler friction slope.
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
    """Gravity, compressibility, reference density and the model sound speed.

    ``c`` defaults to the rigid-pipe value 1/sqrt(beta*rho0); pass it
    explicitly (typically the elastic wave speed) to override.
    """

    g: float = 9.81
    beta: float = 5.0e-10
    rho0: float = 1000.0
    c: float | None = None

    def __post_init__(self):
        _require_positive(g=self.g, beta=self.beta, rho0=self.rho0)
        if self.c is None:
            object.__setattr__(self, "c", sound_speed(self.beta, self.rho0))
        _require_positive(c=self.c)


@dataclass(frozen=True)
class LinearAltitude:
    """Bottom elevation z(x) = upstream_z + x*sin(angle), angle in degrees,
    signed (negative = descending pipe)."""

    upstream_z: float
    angle_deg: float

    def __call__(self, x):
        return self.upstream_z + math.sin(math.radians(self.angle_deg)) * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class TabulatedAltitude:
    """Bottom elevation interpolated linearly from (x, z) samples."""

    x: tuple
    z: tuple

    def __post_init__(self):
        xs = np.asarray(self.x, dtype=float)
        zs = np.asarray(self.z, dtype=float)
        if xs.ndim != 1 or xs.shape != zs.shape or xs.size < 2:
            raise ValueError("altitude table needs matching 1-d x and z with >= 2 points")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("altitude table x must be strictly increasing")
        object.__setattr__(self, "x", tuple(xs))
        object.__setattr__(self, "z", tuple(zs))

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.x, self.z)


@dataclass(frozen=True)
class PipeGeometry:
    """Uniform pipe: section, wetted perimeter, diameter, wall data and the
    bottom elevation profile."""

    length: float
    section: float
    perimeter: float
    diameter: float
    wall_thickness: float
    young_modulus: float
    altitude: object

    def __post_init__(self):
        _require_positive(length=self.length, section=self.section,
                          perimeter=self.perimeter, diameter=self.diameter,
                          wall_thickness=self.wall_thickness,
                          young_modulus=self.young_modulus)

    @classmethod
    def circular(cls, length, section, wall_thickness, young_modulus, altitude):
        """Circular section of given area: diameter = 2*sqrt(S/pi),
        perimeter = pi*diameter."""
        _require_positive(section=section)
        diameter = 2.0 * math.sqrt(section / math.pi)
        return cls(length=length, section=section,
                   perimeter=math.pi * diameter, diameter=diameter,
                   wall_thickness=wall_thickness, young_modulus=young_modulus,
                   altitude=altitude)


@dataclass(frozen=True)
class FrictionParams:
    """Manning-Strickler friction switch; ``strickler`` is K_s in m^(1/3)/s."""

    enabled: bool = False
    strickler: float = 0.0

    def __post_init__(self):
        if self.enabled:
            _require_positive(strickler=self.strickler)

    @classmethod
    def disabled(cls):
        return cls(enabled=False)


# ---------------------------------------------------------------------------
# mesh and state
# ---------------------------------------------------------------------------

def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Mesh:
    """Cell centers, widths and the piecewise-constant bottom z_cells[i] =
    Z(centers[i])."""

    centers: np.ndarray
    widths: np.ndarray
    z_cells: np.ndarray

    def __post_init__(self):
        centers = _readonly(self.centers)
        widths = _readonly(self.widths)
        z_cells = _readonly(self.z_cells)
        if centers.ndim != 1 or centers.shape != widths.shape or centers.shape != z_cells.shape:
            raise ValueError("mesh arrays must be 1-d and of equal length")
        if centers.size == 0:
            raise ValueError("mesh must contain at least one cell")
        if not np.all(widths > 0):
            raise ValueError("cell widths must be positive")
        if not np.all(np.diff(centers) > 0):
            raise ValueError("cell centers must be strictly increasing")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "z_cells", z_cells)

    @property
    def n(self):
        return self.centers.size

    @cached_property
    def min_width(self):
        return float(self.widths.min())

    @cached_property
    def interface_dz(self):
        """Bottom jump z_right - z_left at each of the n+1 interfaces; the
        ghost cells share the bottom of their neighbour, so both ends are 0."""
        z = self.z_cells
        dz = np.diff(np.concatenate((z[:1], z, z[-1:])))
        dz.setflags(write=False)
        return dz

    @classmethod
    def uniform(cls, length, n, altitude):
        """n equal cells on [0, length] with bottom sampled at cell centers."""
        if n < 1:
            raise ValueError("need at least one cell")
        _require_positive(length=length)
        h = length / n
        centers = (np.arange(n) + 0.5) * h
        return cls(centers=centers, widths=np.full(n, h),
                   z_cells=np.asarray(altitude(centers), dtype=float))


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
        if not np.all(area > 0):
            raise ValueError("wetted area must stay positive")
        if not np.all(np.isfinite(discharge)):
            raise ValueError("discharge must be finite")
        object.__setattr__(self, "area", area)
        object.__setattr__(self, "discharge", discharge)

    @property
    def velocity(self):
        return self.discharge / self.area

    @cached_property
    def max_abs_velocity(self):
        """max |u|, computed once per state (the CFL bound and its check)."""
        return float(np.max(np.abs(self.velocity)))

    @property
    def n(self):
        return self.area.size


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


def friction_slope(velocity, geometry: PipeGeometry, friction: FrictionParams):
    """Manning-Strickler slope S_f = K u|u|, K = 1/(K_s^2 R_h^(4/3)) with the
    hydraulic radius R_h = S/P_m; zero when friction is disabled."""
    velocity = np.asarray(velocity, dtype=float)
    if not friction.enabled:
        return np.zeros_like(velocity) if velocity.ndim else 0.0
    k = friction_coefficient(geometry, friction)
    return k * velocity * np.abs(velocity)


def friction_coefficient(geometry: PipeGeometry, friction: FrictionParams):
    """K = 1/(K_s^2 R_h^(4/3)) from the Strickler law."""
    if not friction.enabled:
        return 0.0
    rh = geometry.section / geometry.perimeter
    return 1.0 / (friction.strickler ** 2 * rh ** (4.0 / 3.0))
