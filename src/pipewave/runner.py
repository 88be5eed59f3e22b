"""Drive complete runs from a RunConfig: solver marches, probe series,
snapshot frames, summaries and the kinetic-vs-MOC comparison.

A run that writes files hands every CSV to one ``output.CsvWriter`` as it is
taken, so a writer process formats them while the marches go on; the run
returns once that process has written them all."""

from __future__ import annotations

import time as _time
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import kinetic, moc
from .compare import ComparisonReport, ProbeSeries, compare_series
from .config import ConfigError, RunConfig
from .core import SolverError, area_from_piezometric_head, piezometric_head
from .output import PROBE_HEADER, SNAPSHOT_HEADER, CsvWriter, frame_rows
from .scenarios import PrescribedDischarge, Scenario, ValveClosure, steady_state_init


@dataclass
class SolverOutput:
    """In-memory result of one solver's run."""

    label: str
    probes: list                 # list[ProbeSeries]
    steps: int
    wall_clock_s: float
    min_area: float
    max_area: float
    final_mass: float
    final_time: float
    cells: int


@dataclass(frozen=True)
class _Solver:
    """One solver as the recorder reads it.  ``level(state)`` is the marched
    variable that fixes the wetted area at each point (A itself, or the MOC
    piezometric head; increasing in A), ``area(level, z)`` converts it and
    ``floor`` is the level of zero area."""

    x: np.ndarray                # sample points
    z: np.ndarray                # bottom elevations at x
    weights: object              # mass quadrature weights (a scalar or per point)
    level: Callable
    area: Callable
    floor: object                # zero-area level (a scalar or per point)
    initial: object
    march: Callable              # march(observer=...) -> final state
    snapshot_stride: int         # 0: the initial and final states only


class _Recorder:
    """Observer of one march: probe samples at the initial state, every
    ``output_stride``-th step and the final state; the elementwise bounds of
    the level variable over every step; and ``write_snapshot(step, state)``
    called as each snapshot is taken (the initial state, every
    ``snapshot_stride``-th step and the final state).  The bounds are
    checked at each sample: a level that is not finite or at or below the
    zero-area line raises ``SolverError``.

    A sample is one float64 row of a store that doubles when full: the time,
    then the level and the discharge at the two points around each probe
    (``np.interp``'s stencil, fixed for the run).  ``finish`` interpolates
    all rows at once, bit for bit as ``np.interp`` of each sampled state."""

    first_rows = 256             # store rows before it first doubles

    def __init__(self, solver: _Solver, probe_x, output_stride, write_snapshot):
        self.solver, self.output_stride = solver, output_stride
        self.write_snapshot = write_snapshot
        self.steps = self.last_snapshot = self.samples = 0
        x = solver.x
        j = np.clip(np.searchsorted(x, probe_x, "right") - 1, 0, x.size - 2)
        self.cols = np.concatenate([j, j + 1])
        self.dx, self.offset = x[j + 1] - x[j], probe_x - x[j]
        # np.interp returns these stencil values as they are
        self.left = (probe_x < x[0]) | (probe_x == x[j])
        self.right = probe_x >= x[-1]
        self.rows = np.empty((self.first_rows, 1 + 2 * self.cols.size))
        level = solver.level(solver.initial)
        self.low, self.high = level.copy(), level.copy()
        self._sample(solver.initial, level)
        write_snapshot(0, solver.initial)

    def _sample(self, state, level):
        if self.samples == len(self.rows):
            rows = np.empty((2 * len(self.rows), self.rows.shape[1]))
            rows[:self.samples] = self.rows
            self.rows = rows
        row, half = self.rows[self.samples], 1 + self.cols.size
        row[0] = state.time
        level.take(self.cols, out=row[1:half])
        state.discharge.take(self.cols, out=row[half:])
        self.samples += 1

    def __call__(self, state):
        self.steps += 1
        level = self.solver.level(state)
        np.minimum(self.low, level, out=self.low)
        np.maximum(self.high, level, out=self.high)
        if self.steps % self.output_stride == 0:
            self._check(state.time)
            self._sample(state, level)
        stride = self.solver.snapshot_stride
        if stride and self.steps % stride == 0:
            self.write_snapshot(self.steps, state)
            self.last_snapshot = self.steps

    def _check(self, time):
        ok = (self.low > self.solver.floor) & (self.high < np.inf)    # NaN fails both
        if not ok.all():
            i = int(np.argmin(ok))
            lag = (self.steps - 1) % self.output_stride   # steps since the last check
            raise SolverError(
                f"step {self.steps} at t={time!r}: node {i} ranged over [{self.low[i]!r}, "
                f"{self.high[i]!r}], not finite or down to its zero-area level "
                f"{np.broadcast_to(self.solver.floor, ok.shape)[i]!r}" + (
                    f" (checked every {self.output_stride} steps: the first bad step "
                    f"may be up to {lag} steps earlier)" if lag else ""))

    def _interp(self, f0, f1):
        """``np.interp`` at the probes from the (samples, probes) stencil
        values; they are finite (the states check it), so its fallback for a
        NaN slope never applies."""
        out = (f1 - f0) / self.dx * self.offset + f0
        np.copyto(out, f0, where=self.left)
        np.copyto(out, f1, where=self.right)
        return out

    def finish(self, final):
        """Take the last sample and snapshot; (times, levels, discharges),
        the last two (samples, probes)."""
        self._check(final.time)
        if self.steps % self.output_stride:
            self._sample(final, self.solver.level(final))
        if self.last_snapshot != self.steps:
            self.write_snapshot(self.steps, final)
        rows, self.rows = self.rows[:self.samples], None
        level0, level1, q0, q1 = np.split(rows[:, 1:], 4, axis=1)
        return rows[:, 0].copy(), self._interp(level0, level1), self._interp(q0, q1)


def _kinetic(config: RunConfig):
    scenario = config.scenario
    mesh = scenario.mesh()
    state = steady_state_init(scenario, mesh)
    return _Solver(x=mesh.centers, z=mesh.z_cells, weights=mesh.width,
                   level=lambda s: s.area, area=lambda area, z: area, floor=0.0,
                   initial=state, march=partial(kinetic.run, scenario, config.cfl, initial=state),
                   snapshot_stride=config.snapshot_stride)


def _moc(config: RunConfig):
    scenario = config.scenario
    geom = scenario.geometry
    c, g = scenario.constants.c, scenario.constants.g
    initial = moc.initial_moc_state(scenario)
    x = np.linspace(0.0, geom.length, initial.n)
    z = np.asarray(geom.altitude(x), dtype=float)
    weights = np.full(initial.n, x[1] - x[0])        # trapezoid rule
    weights[[0, -1]] *= 0.5

    def area(head, z):
        return area_from_piezometric_head(head, geom.section, z, geom.diameter, c, g)
    return _Solver(x=x, z=z, weights=weights, level=lambda s: s.head, area=area,
                   floor=z + geom.diameter - c * c / g, initial=initial,
                   march=partial(moc.moc_run, scenario, initial=initial),
                   snapshot_stride=0)


def _record(config: RunConfig, writer: CsvWriter | None, label, solver: _Solver):
    """March one solver under a recorder; summarize it and, with a
    ``writer``, hand its probe and snapshot CSVs over to it and write its
    summary.  The snapshots are handed over during the march, so the
    summary's wall clock includes the handover (not the formatting)."""
    scenario = config.scenario
    out_dir = Path(config.output_dir)
    geom = scenario.geometry
    c, g = scenario.constants.c, scenario.constants.g
    probe_x = np.asarray(scenario.probes, dtype=float)
    probe_z = np.asarray(geom.altitude(probe_x), dtype=float)

    def rows(lead, area, discharge, z):
        return frame_rows(lead, area, discharge, geom.section, z, geom.diameter, c, g)

    def write_snapshot(step_no, snap):
        if writer is not None:
            area = solver.area(solver.level(snap), solver.z)
            writer.write(out_dir / f"{label}_snap_{step_no:08d}.csv", SNAPSHOT_HEADER,
                         rows(solver.x, area, snap.discharge, solver.z))

    recorder = _Recorder(solver, probe_x, scenario.output_stride, write_snapshot)
    started = _time.perf_counter()
    final = solver.march(observer=recorder)
    elapsed = _time.perf_counter() - started
    t, levels, discharges = recorder.finish(final)
    areas = [solver.area(levels[:, k], z) for k, z in enumerate(probe_z)]
    probes = [ProbeSeries(x=float(x), t=t, discharge=discharges[:, k],
                          head=piezometric_head(areas[k], geom.section, probe_z[k],
                                                geom.diameter, c, g))
              for k, x in enumerate(probe_x)]
    result = SolverOutput(
        label=label, probes=probes, steps=recorder.steps, wall_clock_s=elapsed,
        min_area=float(solver.area(recorder.low, solver.z).min()),
        max_area=float(solver.area(recorder.high, solver.z).max()),
        final_mass=float(np.sum(solver.weights * solver.area(solver.level(final), solver.z))),
        final_time=float(final.time), cells=solver.x.size)

    if writer is not None:
        for k, z in enumerate(probe_z):
            writer.write(out_dir / f"{label}_probe_{k:02d}.csv", PROBE_HEADER,
                         rows(t, areas[k], discharges[:, k], z))
        _write_summary(out_dir, result)
    return result


def _write_summary(out_dir: Path, result: SolverOutput):
    lines = [
        f"solver: {result.label}",
        f"cells: {result.cells}",
        f"steps: {result.steps}",
        f"wall_clock_s: {result.wall_clock_s:.3f}",
        f"min_area_m2: {result.min_area!r}",
        f"max_area_m2: {result.max_area!r}",
        f"final_mass_m3: {result.final_mass!r}",
        f"final_time_s: {result.final_time!r}",
    ]
    (out_dir / f"{result.label}_summary.txt").write_text("\n".join(lines) + "\n")


def _prepare(build, config: RunConfig):
    """``build(config)``; a steady state that cannot be built raises ``ConfigError``."""
    try:
        return build(config)
    except SolverError as exc:
        scenario = config.scenario
        raise ConfigError(
            f"key flow.initial_discharge_m3s: no steady state carries "
            f"{scenario.initial_discharge!r} m^3/s from the reservoir at "
            f"boundary.upstream_head_m = {scenario.upstream.total_head!r} m ({exc})") from exc


def run_simulation(config: RunConfig, write_files=True):
    """Run the configured solver(s); returns {label: SolverOutput}.  Every
    initial state is built before anything is written.  With ``write_files``
    it returns once every CSV is on disk, and raises ``OSError`` when one
    could not be written."""
    solvers = [(label, _prepare(build, config))
               for label, build in (("kinetic", _kinetic), ("moc", _moc))
               if config.solver in (label, "both")]
    if write_files:
        Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    with CsvWriter() if write_files else nullcontext() as writer:
        return {label: _record(config, writer, label, solver) for label, solver in solvers}


def closure_end_time(scenario: Scenario):
    law = scenario.downstream.law if isinstance(scenario.downstream, PrescribedDischarge) else None
    return law.t_close if isinstance(law, ValveClosure) else 0.0


def compare_runs(config: RunConfig, write_files=True):
    """Run both solvers and compare them probe by probe.  A run too short for
    one MOC step raises ``ConfigError`` before either solver marches."""
    scenario = config.scenario
    moc_dt = scenario.geometry.length / scenario.mesh_cells / scenario.constants.c
    if moc_dt > scenario.t_end * (1.0 + 1e-12):       # moc_run's last-full-step rule
        raise ConfigError(f"run.t_end_s = {scenario.t_end:g} s is shorter than one MOC "
                          f"step dx/a = {moc_dt:.6g} s at run.cells = {scenario.mesh_cells}")
    config = replace(config, solver="both")
    results = run_simulation(config, write_files=write_files)
    t_close = closure_end_time(config.scenario)
    return results, [compare_series(kin, moc_series, closure_time=t_close) for kin, moc_series
                     in zip(results["kinetic"].probes, results["moc"].probes)]


def format_report(report: ComparisonReport):
    def num(v):
        return "n/a" if v is None else f"{v:.6g}"

    return "\n".join([
        f"probe_x_m: {report.probe_x:.6g}",
        f"linf_head_error_m: {num(report.linf_head_error)}",
        f"l2_head_error_m: {num(report.l2_head_error)}",
        f"linf_discharge_error_m3s: {num(report.linf_discharge_error)}",
        f"kinetic_period_s: {num(report.kinetic_period)}",
        f"moc_period_s: {num(report.moc_period)}",
        f"first_peak_kinetic_m: {num(report.first_peak_kinetic)}",
        f"first_peak_moc_m: {num(report.first_peak_moc)}",
    ])
