"""The benchmark worker's view of the program (``perfbench/worker.py``):
every layer it traces and every name it calls exists and takes the worker's
arguments, so a rename fails here instead of in a benchmark run."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _listing():
    # _work is the benchmark runner's own scratch directory
    return sorted(str(p) for p in PERFBENCH.rglob("*") if "_work" not in p.parts)


@pytest.fixture(scope="module")
def loaded():
    """(worker module, its program namespace, perfbench listing before)."""
    before = _listing()
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    saved_flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True             # no __pycache__ under perfbench/
    sys.path.insert(0, str(PERFBENCH))         # the worker imports its siblings
    try:
        spec = importlib.util.spec_from_file_location("bench_worker",
                                                      PERFBENCH / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        pw = worker.import_program(PERFBENCH.parent)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in ("spans", "workloads"):
            if name not in saved_modules:
                sys.modules.pop(name, None)
    return worker, pw, before


def test_traced_layers_are_owner_attributes(loaded):
    worker, pw, _ = loaded
    layers = worker.traced_layers(pw) + worker.counted_layers(pw)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layers if attr not in vars(owner)]
    assert not missing


def test_called_names_take_the_workers_arguments(loaded):
    _, pw, _ = loaded
    calls = [
        (pw.config.load_config, ("cfg",), {}),
        (pw.runner.compare_runs, ("config",), {"write_files": True}),
        (pw.runner.run_simulation, ("config",), {"write_files": True}),
        (pw.runner.format_report, ("report",), {}),
        (pw.runner.closure_end_time, ("scenario",), {}),
        (pw.compare.detect_period, ("t", "head", "closure"), {}),
        (pw.scenarios.steady_state_init, ("scenario", "mesh"), {}),
        (pw.checks.check_flux_continuity, ("c", "g"), {"seed": 1}),
        (pw.checks.check_positivity, ("c", "g"), {"cases": 1, "seed": 2}),
        (pw.checks.check_conservation, ("c", "g"), {"seed": 3}),
        (pw.checks.check_still_water, ("scenario",), {}),
    ]
    for func, args, kwargs in calls:
        inspect.signature(func).bind(*args, **kwargs)


def test_loading_leaves_path_and_perfbench_untouched(loaded):
    *_, before = loaded
    assert str(PERFBENCH) not in sys.path
    assert _listing() == before


def _counting(monkeypatch, owner, attr):
    """Replace ``owner.attr`` as the worker's spans do; returns the node or
    cell count (``.n`` of the first argument) of every call."""
    seen, inner = [], getattr(owner, attr)

    def counted(*args, **kwargs):
        seen.append(args[0].n)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return seen


def _surge(pw, cells, t_end):
    core, scenarios = pw.core, pw.scenarios
    geometry = core.PipeGeometry(
        length=2000.0, section=2.0,
        altitude=core.LinearAltitude(upstream_z=250.0, angle_deg=-5.0))
    return scenarios.Scenario(
        geometry=geometry, constants=core.PhysicalConstants(c=1086.6),
        mesh_cells=cells,
        upstream=scenarios.ReservoirHead(total_head=300.0),
        downstream=scenarios.PrescribedDischarge(
            law=scenarios.ValveClosure(q0=10.0, t_close=0.5)),
        initial_discharge=10.0, t_end=t_end, output_stride=1, probes=(1000.0,))


def test_marches_step_through_the_module_attributes(loaded, monkeypatch):
    """The worker counts steps and node or cell updates from the calls to
    ``moc.moc_step`` and ``kinetic.step`` it wraps; a march that bypassed
    them would report no steps counted, a failed operation.  Its traced
    ``scenarios.ghost_states`` is replaced in every module holding that
    function, and the kinetic march calls it once per step."""
    _, pw, _ = loaded
    scenario = _surge(pw, cells=40, t_end=0.8)
    moc_calls = _counting(monkeypatch, pw.moc, "moc_step")
    moc_states = []
    pw.moc.moc_run(scenario, observer=moc_states.append)
    assert len(moc_states) == 17       # 0.8 s in steps of dx/a = 50/1086.6 s
    assert moc_calls == [41] * 17

    mesh = scenario.mesh()
    ghost_calls, ghost_states = [], pw.scenarios.ghost_states

    def counted_ghosts(*args, **kwargs):
        ghost_calls.append(args[0].time)
        return ghost_states(*args, **kwargs)

    for module in vars(pw).values():
        for key, value in list(vars(module).items()):
            if value is ghost_states:
                monkeypatch.setattr(module, key, counted_ghosts)
    kinetic_calls = _counting(monkeypatch, pw.kinetic, "step")
    kinetic_states = []
    pw.kinetic.run(scenario, 0.8, observer=kinetic_states.append,
                   initial=pw.scenarios.steady_state_init(scenario, mesh))
    assert len(kinetic_states) > 20
    assert kinetic_calls == [40] * len(kinetic_states)
    # one call per step, on the state the step starts from
    assert ghost_calls == [0.0] + [s.time for s in kinetic_states[:-1]]


def test_flux_layer_sees_every_interface_once_per_step(loaded, monkeypatch):
    """The worker's ``kinetic.flux`` layer wraps ``kinetic._interface_flux_arrays``
    and counts the size of its first argument as work: the kinetic march
    calls it once per step with one entry per interface, so the layer's calls
    equal the steps and its work units the interfaces stepped."""
    worker, pw, _ = loaded
    (owner, attr, _, work), = [layer for layer in worker.traced_layers(pw)
                               if layer[2] == "kinetic.flux"]
    units, inner = [], getattr(owner, attr)

    def traced(*args, **kwargs):
        units.append(work(args))
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, attr, traced)
    steps = _counting(monkeypatch, pw.kinetic, "step")
    scenario = _surge(pw, cells=40, t_end=0.8)
    pw.kinetic.run(scenario, 0.8, initial=pw.scenarios.steady_state_init(scenario,
                                                                         scenario.mesh()))
    assert len(steps) > 20
    assert units == [41] * len(steps)
