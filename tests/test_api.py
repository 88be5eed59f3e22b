"""The public surface of ``pipewave``: the names the package exports and the
parameters of both solvers' marches and steps.  Growing either is a
deliberate change, so it is made here too."""

import inspect

import pytest

import pipewave
from pipewave import kinetic, moc, scenarios

EXPORTS = [
    "ComparisonReport", "ConfigError", "LinearAltitude", "Mesh", "MocState", "Periodic",
    "PhysicalConstants", "PipeGeometry", "PrescribedDischarge", "ProbeSeries",
    "ReservoirHead", "RunConfig", "Scenario", "SolverError", "State", "ValveClosure", "Wall",
    "cfl_timestep", "compare_runs", "compare_series", "entropy_cell", "friction_slope",
    "load_config", "moc_run", "moc_step", "parse_config", "piezometric_head", "run",
    "run_simulation", "steady_state_init", "step", "total_head",
]


def test_exports():
    # submodules become attributes of the package once imported: not exports
    exported = sorted(name for name, value in vars(pipewave).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert exported == EXPORTS


@pytest.mark.parametrize("func,parameters", [
    (kinetic.run, ["scenario", "cfl", "observer", "initial"]),
    (moc.moc_run, ["scenario", "observer", "initial"]),
    (kinetic.step, ["state", "mesh", "c", "g", "dt", "upstream", "downstream", "geometry"]),
    (moc.moc_step, ["state", "dx", "c", "g", "upstream", "downstream", "geometry"]),
], ids=["kinetic.run", "moc_run", "kinetic.step", "moc_step"])
def test_solver_parameters(func, parameters):
    assert list(inspect.signature(func).parameters) == parameters


@pytest.mark.parametrize("func", [kinetic.step, moc.moc_step, scenarios.ghost_states],
                         ids=["kinetic.step", "moc_step", "ghost_states"])
def test_steps_take_their_pipe(func):
    # no default stands in for a pipe: a smooth one is one without roughness
    assert inspect.signature(func).parameters["geometry"].default is inspect.Parameter.empty
