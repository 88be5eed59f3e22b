import numpy as np
import pytest

from pipewave import checks, kinetic

C, G = 1086.6, 9.81


@pytest.mark.parametrize("seed,cases", [(1, 2000), (0, 50), (11, 50), (2**40 + 3, 50)])
def test_positivity_cases_are_the_per_case_draws(seed, cases, monkeypatch):
    """``check_positivity`` draws all its cases at once; they must be the
    states of one ``rng.uniform`` draw per quantity and case, bit for bit."""
    seen = []
    cfl_timestep = kinetic.cfl_timestep

    def recording_cfl(state, c, mesh, cfl):
        seen.append((state.area, state.discharge, mesh.z_cells))
        return cfl_timestep(state, c, mesh, cfl)

    monkeypatch.setattr(kinetic, "cfl_timestep", recording_cfl)
    result = checks.check_positivity(C, G, cases=cases, seed=seed)
    assert result.passed
    assert len(seen) == cases

    rng = np.random.default_rng(seed)
    s = C * kinetic.SQRT3
    for area, discharge, z in seen:
        expected_area = rng.uniform(1e-6, 10.0, 4)
        u = rng.uniform(-2 * s, 2 * s, 4)
        expected_z = np.cumsum(rng.uniform(-5.0, 5.0, 4))
        assert area.tobytes() == expected_area.tobytes()
        assert discharge.tobytes() == (expected_area * u).tobytes()
        assert z.tobytes() == expected_z.tobytes()
