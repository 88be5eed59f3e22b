"""Transient pressurized pipe flow.

A kinetic finite-volume solver for the conservative (A, Q) pressurized-pipe
model, stepping with closed-form half fluxes of each cell weighted by the
rest factors of a hydrostatic reconstruction (the paper's six-row
reflection/transmission fluxes are the reference the checks and tests
compare against), together with a
method-of-characteristics water-hammer reference solver, scenario and
boundary-condition machinery, and a small CLI.
"""

from .compare import ComparisonReport, ProbeSeries, compare_series
from .config import ConfigError, RunConfig, load_config, parse_config
from .core import (LinearAltitude, Mesh, PhysicalConstants, PipeGeometry,
                   SolverError, State, entropy_cell, friction_slope, piezometric_head,
                   total_head)
from .kinetic import cfl_timestep, run, step
from .moc import MocState, moc_run, moc_step
from .runner import compare_runs, run_simulation
from .scenarios import (Periodic, PrescribedDischarge, ReservoirHead, Scenario,
                        ValveClosure, Wall, steady_state_init)

__version__ = "0.1.0"
