"""Runtime invariant suites behind the ``check`` command.

Each suite measures a residual on the configured scenario and compares it to
a roundoff tolerance: positivity, flux continuity, conservation and
still-water balance are exact properties of the scheme.  Still water is
balanced by the hydrostatic reconstruction in ``kinetic.step``, so a sloped
column at rest must stay at rest to roundoff.  The positivity cases run in
blocks through ``kinetic._advance``, the update inside ``kinetic.step``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kinetic
from .config import RunConfig
from .core import Mesh, PipeGeometry, State, rest_factors
from .scenarios import Periodic, Scenario, Wall

_BLOCK_CASES = 256          # positivity cases drawn and stepped together


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self):
        return self.residual <= self.tolerance


def check_flux_continuity(c, g, cases=2000, seed=0):
    """minus.f_area == plus.f_area across randomized interfaces."""
    rng = np.random.default_rng(seed)
    s = c * kinetic.SQRT3
    area = rng.uniform(1e-3, 10.0, size=(cases, 2))
    u = rng.uniform(-2 * s, 2 * s, size=(cases, 2))
    dz = rng.uniform(-5.0, 5.0, size=cases)
    fm_a, _, fp_a, _ = kinetic._six_row_flux_arrays(
        area[:, 0], area[:, 0] * u[:, 0], area[:, 1], area[:, 1] * u[:, 1],
        dz, c, g)
    residual = np.max(np.abs(fm_a - fp_a) / (np.abs(fm_a) + area[:, 0] * c))
    return CheckResult("interface mass-flux continuity", float(residual), 1e-12)


def check_positivity(c, g, cases=2000, seed=1):
    """No wetted area reaches zero in one CFL-limited step from randomized
    states over randomized bottom steps: 4 unit cells between walls per case.
    The cases go in blocks of at most ``_BLOCK_CASES`` through
    ``kinetic._advance`` with the ghosts, dt and ``_admissible`` verdict of
    ``kinetic.step``, so each result is the bits of one ``step`` per case."""
    s = c * kinetic.SQRT3
    n = 4
    rng = np.random.default_rng(seed)
    failures = 0
    for start in range(0, cases, _BLOCK_CASES):
        m = min(_BLOCK_CASES, cases - start)
        # one draw for the block's n areas, velocities and bottom steps, scaled
        # as Generator.uniform scales (low + (high - low) r); the blocks
        # continue one stream, so these are the bits of a per-case draw
        r = rng.random((m, 3, n))
        area = 1e-6 + (10.0 - 1e-6) * r[:, 0]
        discharge = area * (-2 * s + (2 * s - -2 * s) * r[:, 1])
        z = (-5.0 + (5.0 - -5.0) * r[:, 2]).cumsum(axis=1)
        ext = np.empty((2, m, n + 2))          # (A, Q) x case x (ghost, cells, ghost)
        ext[:, :, 1:-1] = area, discharge
        ext[:, :, 0] = area[:, 0], -discharge[:, 0]     # wall ghosts (A_in, -Q_in)
        ext[:, :, -1] = area[:, -1], -discharge[:, -1]
        # cfl_timestep's cfl * h / (max |u| + c sqrt(3)), cfl = h = 1
        dt = 1.0 / (np.abs(discharge / area).max(axis=1) + s)
        a_new, q_new = kinetic._advance(ext, rest_factors(z, c, g), dt[:, None], c)
        failures += m - int(np.count_nonzero(kinetic._admissible(a_new, q_new).all(axis=1)))
    return CheckResult("positivity under the CFL condition", float(failures), 0.0)


def check_conservation(c, g, cells=64, steps=500, seed=2):
    """Mass and momentum drift on a periodic flat pipe without roughness."""
    rng = np.random.default_rng(seed)
    pipe = PipeGeometry(100.0, 1.0, lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    mesh = Mesh.uniform(pipe.length, cells, pipe.altitude)
    x = mesh.centers / 100.0
    area = 2.0 + 0.3 * np.sin(2 * np.pi * x) + 0.1 * rng.standard_normal()
    u = 0.05 * c * np.sin(4 * np.pi * x)
    state = State(area=area, discharge=area * u)
    mass0 = float((mesh.width * state.area).sum())
    mom0 = float((mesh.width * state.discharge).sum())
    mom_scale = max(abs(mom0), mass0 * c)
    ends = Periodic(), Periodic()
    drift = 0.0
    for _ in range(steps):
        dt = kinetic.cfl_timestep(state, c, mesh, 0.9)
        state = kinetic.step(state, mesh, c, g, dt, *ends, pipe)
        mass = float((mesh.width * state.area).sum())
        mom = float((mesh.width * state.discharge).sum())
        drift = max(drift, abs(mass - mass0) / mass0, abs(mom - mom0) / mom_scale)
    return CheckResult("periodic mass/momentum conservation", drift, 1e-12)


def check_still_water(scenario: Scenario, cells=100, steps=200):
    """Drift of a sloped hydrostatic profile between walls, on the
    scenario's pipe without its roughness."""
    geom = replace(scenario.geometry, strickler=None)
    c = scenario.constants.c
    g = scenario.constants.g
    mesh = Mesh.uniform(geom.length, cells, geom.altitude)
    z = mesh.z_cells
    area0 = geom.section * np.exp(-g * (z - z[0]) / (c * c))
    state = State(area=area0, discharge=np.zeros(cells))
    ends = Wall(), Wall()
    for _ in range(steps):
        dt = kinetic.cfl_timestep(state, c, mesh, 0.8)
        state = kinetic.step(state, mesh, c, g, dt, *ends, geom)

    q_resid = float(np.max(np.abs(state.discharge)) / (np.max(area0) * c))
    a_resid = float(np.max(np.abs(state.area - area0) / area0))
    return CheckResult("still-water balance", max(q_resid, a_resid), 1e-12)


def run_all_checks(config: RunConfig):
    c = config.scenario.constants.c
    g = config.scenario.constants.g
    results = [
        check_flux_continuity(c, g),
        check_positivity(c, g),
        check_conservation(c, g),
        check_still_water(config.scenario),
    ]
    return results
