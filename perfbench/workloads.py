"""Benchmark workloads and the seeded scenario each run feeds the program.

Every workload runs the shipped water-hammer scenario (a 2000 m penstock,
40 s of simulated time).  The seed draws the valve closure duration in
[4, 6] s and the reservoir head within +-3 % of 300 m; the draw goes into
config text that the program parses with ``config.load_config``.  The
invariant suites get three seeds derived from the same draw.  The program
never sees the seed itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SUITE_CASES = 2000     # positivity cases per invariants round (the suite default)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "surge" (both solvers + compare), "moc" or "invariants"
    cells: int
    stride: int
    snapshot_stride: int
    t_end: float = 40.0


# why each workload is there is recorded in BENCHMARK.json and NOTES.md;
# surge-fine is the by-hand 1000-cell study that is not listed there
WORKLOADS = {w.name: w for w in (
    Workload("surge-fine", "surge", cells=1000, stride=20, snapshot_stride=0),
    Workload("surge-record", "surge", cells=200, stride=1, snapshot_stride=10),
    Workload("moc-fine", "moc", cells=4000, stride=20, snapshot_stride=0),
    Workload("invariants", "invariants", cells=1000, stride=20, snapshot_stride=0),
)}


@dataclass(frozen=True)
class Draw:
    """The seeded inputs of one run."""

    closure_s: float
    head_m: float
    suite_seeds: tuple


def draw(seed: int) -> Draw:
    rng = random.Random(seed)
    closure = rng.uniform(4.0, 6.0)
    head = 300.0 * (1.0 + rng.uniform(-0.03, 0.03))
    suite_seeds = tuple(rng.randrange(2 ** 32) for _ in range(3))
    return Draw(closure_s=closure, head_m=head, suite_seeds=suite_seeds)


_SCENARIO = """\
# Water hammer in a 2000 m concrete penstock (the shipped validation
# scenario) with the closure duration and reservoir head drawn from the seed.
pipe.length_m = 2000
pipe.section_m2 = 2
pipe.wall_thickness_m = 0.2
pipe.young_modulus_pa = 23e9
pipe.upstream_altitude_m = 250
pipe.slope_deg = -5

fluid.compressibility_per_pa = 5e-10
fluid.density_kg_m3 = 1000

boundary.upstream_head_m = {head!r}
boundary.closure_duration_s = {closure!r}
boundary.closure_law = linear

flow.initial_discharge_m3s = 10

run.t_end_s = {t_end!r}
run.cells = {cells}
run.cfl = 0.8
run.solver = {solver}

output.dir = {out_dir}
output.stride = {stride}
output.snapshot_stride = {snapshot_stride}
output.probes_m = 1000, 2000
"""


def config_text(workload: Workload, inputs: Draw, out_dir: str) -> str:
    return _SCENARIO.format(head=inputs.head_m, closure=inputs.closure_s,
                            t_end=workload.t_end, cells=workload.cells,
                            solver="moc" if workload.kind == "moc" else "both",
                            out_dir=out_dir,
                            stride=workload.stride,
                            snapshot_stride=workload.snapshot_stride)
