import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pipewave import checks, kinetic
from pipewave.config import load_config
from pipewave.core import LinearAltitude, Mesh, PipeGeometry, SolverError, State
from pipewave.scenarios import Wall, ghost_states

C, G = 1086.6, 9.81
# the cases' pipe: walls and the frictionless update read nothing else of it
PIPE = PipeGeometry(4.0, 1.0, LinearAltitude(upstream_z=0.0, angle_deg=0.0))


def per_case_draws(seed, cases, c=C):
    """The positivity cases as one ``rng.uniform`` draw per quantity and
    case: (area, discharge, bottom) per case."""
    rng = np.random.default_rng(seed)
    s = c * kinetic.SQRT3
    for _ in range(cases):
        area = rng.uniform(1e-6, 10.0, 4)
        u = rng.uniform(-2 * s, 2 * s, 4)
        yield area, area * u, np.cumsum(rng.uniform(-5.0, 5.0, 4))


def recording_advance(monkeypatch):
    """Patch ``kinetic._advance`` to record (ext, shrink, ratio, a_new, q_new)
    of every call."""
    calls = []
    advance = kinetic._advance

    def recording(ext, shrink, ratio, c):
        a_new, q_new = advance(ext, shrink, ratio, c)
        calls.append((ext.copy(), shrink.copy(), np.array(ratio), a_new, q_new))
        return a_new, q_new

    monkeypatch.setattr(kinetic, "_advance", recording)
    return calls


@pytest.mark.parametrize("seed,cases", [(1, 2000), (0, 50), (11, 50), (2**40 + 3, 50),
                                        (3, 257)])
def test_positivity_cases_are_the_per_case_draws(seed, cases, monkeypatch):
    """``check_positivity`` draws and steps its cases in blocks; each block's
    states, wall ghosts, rest factors and dt must be those of one
    ``rng.uniform`` draw per quantity and case, bit for bit."""
    calls = recording_advance(monkeypatch)
    result = checks.check_positivity(C, G, cases=cases, seed=seed)
    assert result.passed
    sizes = [ext.shape[1] for ext, *_ in calls]
    assert sum(sizes) == cases
    assert all(m == checks._BLOCK_CASES for m in sizes[:-1])
    assert 0 < sizes[-1] <= checks._BLOCK_CASES

    blocks = [(ext[:, k], shrink[:, k], ratio[k])
              for ext, shrink, ratio, _, _ in calls for k in range(ext.shape[1])]
    for (ext, shrink, ratio), (area, discharge, z) in zip(
            blocks, per_case_draws(seed, cases)):
        assert ext[0, 1:-1].tobytes() == area.tobytes()
        assert ext[1, 1:-1].tobytes() == discharge.tobytes()
        mesh = Mesh(4.0, z)
        state = State(area=area, discharge=discharge)
        ghosts = ghost_states(state, mesh, Wall(), Wall(), C, G, PIPE)
        assert ext[:, [0, -1]].tobytes() == np.array(ghosts).T.tobytes()
        assert shrink.tobytes() == mesh.rest_factors(C, G).tobytes()
        dt = kinetic.cfl_timestep(state, C, mesh, 1.0)
        assert ratio.tobytes() == np.float64(dt / mesh.width).tobytes()


@pytest.mark.parametrize("c", [10.0, 300.0, C])
def test_positivity_blocks_match_per_case_step(c, monkeypatch):
    """Every case of three blocks (the last one short) stepped on its own by
    ``kinetic.step`` gives the block's new state bit for bit, with the same
    verdict."""
    calls = recording_advance(monkeypatch)
    cases = 2 * checks._BLOCK_CASES + 37
    result = checks.check_positivity(c, G, cases=cases, seed=5)
    monkeypatch.undo()
    failures = 0
    outputs = [(a_new[k], q_new[k]) for *_, a_new, q_new in calls
               for k in range(a_new.shape[0])]
    assert len(outputs) == cases
    for (a_block, q_block), (area, discharge, z) in zip(
            outputs, per_case_draws(5, cases, c)):
        mesh = Mesh(4.0, z)
        state = State(area=area, discharge=discharge)
        dt = kinetic.cfl_timestep(state, c, mesh, 1.0)
        try:
            new = kinetic.step(state, mesh, c, G, dt, Wall(), Wall(), PIPE)
        except SolverError:
            failures += 1
            assert not kinetic._admissible(a_block, q_block).all()
            continue
        assert kinetic._admissible(a_block, q_block).all()
        assert new.area.tobytes() == a_block.tobytes()
        assert new.discharge.tobytes() == q_block.tobytes()
    assert result.residual == failures == 0


@pytest.mark.parametrize("kind", ["negative-area", "nan-discharge", "speed-overflow",
                                  "two-cells"])
def test_positivity_counts_an_inadmissible_case_once(kind, monkeypatch):
    """An inadmissible new state injected into one case of the second block
    is reported as exactly one failed case."""
    advance = kinetic._advance
    blocks = []

    def injecting(ext, shrink, ratio, c):
        a_new, q_new = advance(ext, shrink, ratio, c)
        if len(blocks) == 1:
            if kind == "negative-area":
                a_new[17, 2] = -1e-12
            elif kind == "nan-discharge":
                q_new[17, 0] = math.nan
            elif kind == "speed-overflow":     # A, Q finite, Q/A not
                a_new[17, 3] = 5e-324
                q_new[17, 3] = 1e300
            else:
                a_new[17, [1, 3]] = 0.0
        blocks.append(ext.shape[1])
        return a_new, q_new

    monkeypatch.setattr(kinetic, "_advance", injecting)
    result = checks.check_positivity(C, G, cases=600, seed=1)
    assert len(blocks) == 3
    assert result.residual == 1.0
    assert not result.passed


def test_still_water_steps_the_pipe_without_its_roughness(monkeypatch):
    """A column at rest feels no friction: the suite steps the scenario's
    pipe without its Strickler roughness, so a rough scenario keeps the
    residual of a smooth one."""
    smooth = load_config(Path(__file__).resolve().parent.parent / "waterhammer.cfg").scenario
    rough = replace(smooth, geometry=replace(smooth.geometry, strickler=80.0))
    expected = checks.check_still_water(smooth).residual
    step = kinetic.step
    pipes = []

    def recording(*args):
        pipes.append(args[-1])
        return step(*args)

    monkeypatch.setattr(kinetic, "step", recording)
    assert checks.check_still_water(rough).residual == expected
    assert pipes and all(pipe == smooth.geometry for pipe in pipes)
