"""Line-oriented ``key = value`` run configuration.

Dotted keys group related settings (``pipe.length_m = 2000``); ``#`` starts a
comment.  Unknown keys, duplicates and missing required keys are rejected
with the offending key and line number; ``_KEYS`` names the key of each
field whose rule ``Scenario`` or ``RunConfig`` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

from .core import (LinearAltitude, PhysicalConstants, PipeGeometry,
                   effective_wave_speed, sound_speed)
from .scenarios import PrescribedDischarge, ReservoirHead, Scenario, ValveClosure


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    solver: str = "kinetic"
    output_dir: str = "out"
    cfl: float = 0.8
    snapshot_stride: int = 0      # 0: initial and final snapshots only

    def __post_init__(self):
        # as in Scenario, each message starts with the field it rejects
        for field, ok, rule in (("solver", self.solver in ("kinetic", "moc", "both"),
                                 "must be kinetic|moc|both"),
                                ("cfl", 0.0 < self.cfl <= 1.0, "must lie in (0, 1]"),
                                ("snapshot_stride", isinstance(self.snapshot_stride, Integral),
                                 "must be an integer"),
                                ("snapshot_stride", self.snapshot_stride >= 0, "must be >= 0")):
            if not ok:
                raise ValueError(f"{field}: {rule}, got {getattr(self, field)!r}")


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key {key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key}: expected a finite number, got {raw!r}")
    return value


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key}: expected an integer, got {raw!r}") from None


def _parse_floats(key, raw):
    values = tuple(_parse_float(key, part) for part in map(str.strip, raw.split(",")) if part)
    if not values:
        raise ConfigError(f"key {key}: expected comma-separated numbers, got {raw!r}")
    return values


def _parse_str(key, raw):
    return raw


# key -> (parser, default); _REQUIRED marks keys without a default
_REQUIRED = object()
_SCHEMA = {
    "pipe.length_m": (_parse_float, _REQUIRED),
    "pipe.section_m2": (_parse_float, _REQUIRED),
    "pipe.wall_thickness_m": (_parse_float, _REQUIRED),
    "pipe.young_modulus_pa": (_parse_float, _REQUIRED),
    "pipe.upstream_altitude_m": (_parse_float, _REQUIRED),
    "pipe.slope_deg": (_parse_float, _REQUIRED),
    "fluid.gravity_m_s2": (_parse_float, 9.81),
    "fluid.compressibility_per_pa": (_parse_float, _REQUIRED),
    "fluid.density_kg_m3": (_parse_float, _REQUIRED),
    "fluid.wave_speed_m_s": (_parse_float, None),   # None: derive from the elastic pipe
    "friction.strickler": (_parse_float, None),     # None: a smooth pipe, no friction
    "boundary.upstream_head_m": (_parse_float, _REQUIRED),
    "boundary.closure_duration_s": (_parse_float, _REQUIRED),
    "boundary.closure_law": (_parse_str, "linear"),
    "flow.initial_discharge_m3s": (_parse_float, _REQUIRED),
    "run.t_end_s": (_parse_float, _REQUIRED),
    "run.cells": (_parse_int, _REQUIRED),
    "run.cfl": (_parse_float, 0.8),
    "run.solver": (_parse_str, "kinetic"),
    "output.dir": (_parse_str, "out"),
    "output.stride": (_parse_int, 20),
    "output.snapshot_stride": (_parse_int, 0),
    "output.probes_m": (_parse_floats, None),       # None: mid-pipe
}


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration document."""
    raw = {}
    lines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"duplicate key {key!r} on lines {lines[key]} and {lineno}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has an empty value")
        raw[key] = value
        lines[key] = lineno

    missing = [key for key, (_, default) in _SCHEMA.items()
               if default is _REQUIRED and key not in raw]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(sorted(missing)))

    values = {}
    for key, (parser, default) in _SCHEMA.items():
        values[key] = parser(key, raw[key]) if key in raw else default

    return _build(values)


# the key that sets each field whose rule Scenario, ValveClosure or RunConfig checks
_KEYS = {"mesh_cells": "run.cells", "t_end": "run.t_end_s", "output_stride": "output.stride",
         "probes": "output.probes_m", "upstream": "boundary.upstream_head_m",
         "kind": "boundary.closure_law", "t_close": "boundary.closure_duration_s",
         "solver": "run.solver", "cfl": "run.cfl", "snapshot_stride": "output.snapshot_stride"}


def _build(v) -> RunConfig:
    for key in ("pipe.length_m", "pipe.section_m2", "pipe.wall_thickness_m",
                "pipe.young_modulus_pa", "fluid.gravity_m_s2",
                "fluid.compressibility_per_pa", "fluid.density_kg_m3",
                "fluid.wave_speed_m_s"):
        if v[key] is not None and v[key] <= 0:
            raise ConfigError(f"key {key}: must be positive, got {v[key]}")

    length = v["pipe.length_m"]
    altitude = LinearAltitude(upstream_z=v["pipe.upstream_altitude_m"],
                              angle_deg=v["pipe.slope_deg"])
    try:
        geometry = PipeGeometry(length, v["pipe.section_m2"], altitude, v["friction.strickler"])
    except ValueError as exc:       # length and section are checked above
        raise ConfigError(f"key friction.strickler: {exc}") from exc
    c = v["fluid.wave_speed_m_s"]
    if c is None:
        beta = v["fluid.compressibility_per_pa"]
        try:
            c = effective_wave_speed(sound_speed(beta, v["fluid.density_kg_m3"]),
                                     geometry.diameter, v["pipe.wall_thickness_m"],
                                     v["pipe.young_modulus_pa"], beta)
        except (ValueError, ZeroDivisionError):    # a product of the keys under- or overflows
            c = math.nan
        if not 0.0 < c < math.inf:
            raise ConfigError("keys fluid.compressibility_per_pa and fluid.density_kg_m3: "
                              "derive no positive finite wave speed; set fluid.wave_speed_m_s")
    try:
        scenario = Scenario(
            geometry=geometry, constants=PhysicalConstants(c=c, g=v["fluid.gravity_m_s2"]),
            mesh_cells=v["run.cells"],
            upstream=ReservoirHead(total_head=v["boundary.upstream_head_m"]),
            downstream=PrescribedDischarge(law=ValveClosure(
                q0=v["flow.initial_discharge_m3s"], t_close=v["boundary.closure_duration_s"],
                kind=v["boundary.closure_law"])),
            initial_discharge=v["flow.initial_discharge_m3s"],
            t_end=v["run.t_end_s"], output_stride=v["output.stride"],
            probes=v["output.probes_m"] or (length / 2.0,))
        return RunConfig(scenario=scenario, solver=v["run.solver"],
                         output_dir=v["output.dir"], cfl=v["run.cfl"],
                         snapshot_stride=v["output.snapshot_stride"])
    except ValueError as exc:
        field, _, rule = str(exc).partition(": ")
        raise ConfigError(f"key {_KEYS[field]}: {rule}" if field in _KEYS else str(exc)) from exc


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())
