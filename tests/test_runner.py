"""The recorder behind ``run_simulation`` against direct marches of each
solver: every step counts toward the summary, and the probes sample the
initial state, every ``output_stride``-th step and the final state."""

import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from pipewave import kinetic, moc, runner
from pipewave.config import RunConfig
from pipewave.core import (LinearAltitude, PhysicalConstants, PipeGeometry,
                           area_from_piezometric_head)
from pipewave.kinetic import run
from pipewave.moc import initial_moc_state, moc_step
from pipewave.output import SNAPSHOT_HEADER, CsvWriter, frame_rows, write_rows_csv
from pipewave.runner import run_simulation
from pipewave.scenarios import (PrescribedDischarge, ReservoirHead, Scenario,
                                ValveClosure)

STRIDE = 20


def surge_config(solver, tmp_path, snapshot_stride=0):
    geometry = PipeGeometry(
        length=2000.0, section=2.0,
        altitude=LinearAltitude(upstream_z=250.0, angle_deg=-5.0))
    scenario = Scenario(
        geometry=geometry, constants=PhysicalConstants(c=1086.6),
        mesh_cells=50,
        upstream=ReservoirHead(total_head=300.0),
        downstream=PrescribedDischarge(law=ValveClosure(q0=10.0, t_close=5.0)),
        initial_discharge=10.0, t_end=10.0, output_stride=STRIDE,
        probes=(1000.0, 2000.0))
    return RunConfig(scenario=scenario, solver=solver, output_dir=str(tmp_path),
                     snapshot_stride=snapshot_stride)


def direct_march(solver, scenario):
    """(states after every step, their areas) from the solver's own steps,
    without the recorder."""
    geom = scenario.geometry
    c, g = scenario.constants.c, scenario.constants.g
    states = []
    if solver == "moc":
        state = initial_moc_state(scenario)
        dx = geom.length / scenario.mesh_cells
        while state.time + dx / c <= scenario.t_end * (1.0 + 1e-12):
            state = moc_step(state, dx, c, g, scenario.upstream, scenario.downstream, geom)
            states.append(state)
        z = geom.altitude(np.linspace(0.0, geom.length, scenario.mesh_cells + 1))
        areas = [area_from_piezometric_head(s.head, geom.section, z, geom.diameter, c, g)
                 for s in states]
    else:
        run(scenario, 0.8, observer=states.append)
        areas = [s.area for s in states]
    return states, areas


@pytest.mark.parametrize("solver", ["kinetic", "moc"])
def test_summary_counts_every_step(solver, tmp_path):
    config = surge_config(solver, tmp_path)
    result = run_simulation(config, write_files=False)[solver]
    states, _ = direct_march(solver, config.scenario)
    # the march is long enough that most steps are never sampled
    assert len(states) > 5 * STRIDE
    assert result.steps == len(states)
    assert result.final_time == states[-1].time


@pytest.mark.parametrize("solver", ["kinetic", "moc"])
def test_area_range_covers_every_step(solver, tmp_path):
    config = surge_config(solver, tmp_path)
    result = run_simulation(config, write_files=False)[solver]
    _, areas = direct_march(solver, config.scenario)
    assert result.min_area == min(float(a.min()) for a in areas)
    assert result.max_area == max(float(a.max()) for a in areas)


@pytest.mark.parametrize("solver", ["kinetic", "moc"])
def test_area_range_is_the_range_of_every_observed_level(solver, tmp_path, monkeypatch):
    """The summary's area range equals, bit for bit, a brute-force range over
    every node of every level the recorder was shown, the initial one too."""
    built, levels = [], []
    make = getattr(runner, f"_{solver}")

    def keep(state, observer):
        levels.append(np.array(built[0].level(state)))
        observer(state)

    def observed(config):
        built.append(make(config))
        keep(built[0].initial, lambda state: None)
        return replace(built[0], march=lambda observer: built[0].march(
            observer=partial(keep, observer=observer)))

    monkeypatch.setattr(runner, f"_{solver}", observed)
    result = run_simulation(surge_config(solver, tmp_path), write_files=False)[solver]
    assert len(levels) == result.steps + 1
    areas = np.array([built[0].area(level, built[0].z) for level in levels])
    assert result.min_area.hex() == float(areas.min()).hex()
    assert result.max_area.hex() == float(areas.max()).hex()


@pytest.mark.parametrize("solver", ["kinetic", "moc"])
def test_probes_sample_initial_strided_and_final_states(solver, tmp_path):
    config = surge_config(solver, tmp_path)
    result = run_simulation(config, write_files=False)[solver]
    states, _ = direct_march(solver, config.scenario)
    sampled = [0.0] + [s.time for s in states[STRIDE - 1::STRIDE]]
    if len(states) % STRIDE:
        sampled.append(states[-1].time)
    for series in result.probes:
        assert series.t.tolist() == sampled


@pytest.mark.parametrize("solver", ["kinetic", "moc"])
def test_probe_series_are_np_interp_of_every_sampled_state(solver, tmp_path):
    """At stride 1, over more samples than the probe store's first block,
    each probe's level and discharge series is ``np.interp`` of each state,
    bit for bit.  The probes sit at x = 0 (left of the first kinetic cell
    centre), on a MOC node, on a kinetic cell centre, between points and at
    x = L (beyond the last cell centre)."""
    config = surge_config(solver, tmp_path)
    probe_x = np.array([0.0, 1000.0, 1020.0, 1234.5, 2000.0])
    scenario = replace(config.scenario, output_stride=1, probes=tuple(probe_x))
    built = getattr(runner, f"_{solver}")(replace(config, scenario=scenario))
    on_points = {0.0, 1000.0, 2000.0} if solver == "moc" else {1020.0}
    assert on_points <= set(built.x.tolist())
    recorder = runner._Recorder(built, probe_x, 1, lambda step, state: None)
    t, levels, discharges = recorder.finish(built.march(observer=recorder))
    states, _ = direct_march(solver, scenario)
    states.insert(0, built.initial)
    assert len(states) > runner._Recorder.first_rows
    assert t.tobytes() == np.array([s.time for s in states]).tobytes()
    for got, field in ((levels, built.level), (discharges, lambda s: s.discharge)):
        want = np.array([np.interp(probe_x, built.x, field(s)) for s in states])
        for k in range(probe_x.size):
            assert got[:, k].tobytes() == want[:, k].tobytes()


def test_probe_store_bytes_per_sample(tmp_path, monkeypatch):
    """The traced peak heap of a stride-1 kinetic ``run_simulation`` over
    5,000 samples, per sample.  The march is replayed from a direct one made
    before tracing starts: its own arrays are short-lived, and traced they
    would take seconds."""
    config = surge_config("kinetic", tmp_path)
    config = replace(config, scenario=replace(config.scenario, mesh_cells=10, t_end=430.0,
                                              output_stride=1))
    states, _ = direct_march("kinetic", config.scenario)
    assert len(states) >= 5000
    make = runner._kinetic

    def replay(observer):
        for state in states:
            observer(state)
        return states[-1]

    monkeypatch.setattr(runner, "_kinetic", lambda config: replace(make(config), march=replay))
    tracemalloc.start()
    try:
        result = run_simulation(config, write_files=False)["kinetic"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples = result.probes[0].t.size
    assert samples == len(states) + 1
    # 9 floats a row, up to 3 rows a sample while the store doubles, then
    # the output series; per-sample lists of small arrays take about 350
    assert peak / samples < 250


def test_moc_snapshots_named_by_step(tmp_path):
    config = surge_config("moc", tmp_path, snapshot_stride=5)
    result = run_simulation(config)["moc"]
    names = sorted(p.name for p in tmp_path.glob("moc_snap_*.csv"))
    # the snapshot stride applies to the kinetic solver only
    assert names == ["moc_snap_00000000.csv", f"moc_snap_{result.steps:08d}.csv"]


def test_zero_duration_records_the_initial_state_once(tmp_path):
    config = surge_config("both", tmp_path)
    config = replace(config, scenario=replace(config.scenario, t_end=0.0))
    results = run_simulation(config)
    for label, result in results.items():
        assert result.steps == 0
        assert [s.t.tolist() for s in result.probes] == [[0.0], [0.0]]
        assert len(list(tmp_path.glob(f"{label}_snap_*.csv"))) == 1


def test_kinetic_snapshots_written_as_taken(tmp_path, monkeypatch):
    # each snapshot is handed to the CSV writer as soon as the recorder has
    # seen its step, and its file, complete once the run returns, holds the
    # same bytes as one written from a direct march's state
    config = surge_config("kinetic", tmp_path / "run", snapshot_stride=25)
    real_run = kinetic.run
    steps = 0
    handed = {}                  # file name -> march steps seen at handover

    def run_counting(*args, observer, **kwargs):
        def count(state):
            nonlocal steps
            steps += 1
            observer(state)
        return real_run(*args, observer=count, **kwargs)

    class SpyWriter(CsvWriter):
        def write(self, path, header, rows):
            handed[Path(path).name] = steps
            super().write(path, header, rows)

    monkeypatch.setattr(kinetic, "run", run_counting)
    monkeypatch.setattr(runner, "CsvWriter", SpyWriter)
    result = run_simulation(config)["kinetic"]
    assert result.steps > 50
    taken = {f"kinetic_snap_{k:08d}.csv": k for k in range(25, result.steps + 1, 25)}
    assert {name: handed.get(name) for name in taken} == taken
    states, _ = direct_march("kinetic", config.scenario)
    mesh = config.scenario.mesh()
    geom = config.scenario.geometry
    c, g = config.scenario.constants.c, config.scenario.constants.g
    write_rows_csv(tmp_path / "direct.csv", SNAPSHOT_HEADER,
                   frame_rows(mesh.centers, states[49].area, states[49].discharge,
                              geom.section, mesh.z_cells, geom.diameter, c, g))
    assert ((tmp_path / "run" / "kinetic_snap_00000050.csv").read_bytes()
            == (tmp_path / "direct.csv").read_bytes())


def test_moc_steady_state_solved_once(tmp_path, monkeypatch):
    config = surge_config("moc", tmp_path)
    calls = []
    real_initial = moc.initial_moc_state

    def counting(*args, **kwargs):
        calls.append(args)
        return real_initial(*args, **kwargs)

    monkeypatch.setattr(moc, "initial_moc_state", counting)
    result = run_simulation(config, write_files=False)["moc"]
    assert len(calls) == 1
    assert result.cells == config.scenario.mesh_cells + 1
