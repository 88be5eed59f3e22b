"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 2 (exact still-water preservation) holds through the hydrostatic
reconstruction in ``kinetic.step``: without it the reflection/transmission
upwinding of the rectangular equilibrium balances a sloped hydrostatic
profile only to first order in g*dz_cell/c^2, and the residuals saturate near
3e-6 instead of the demanded 1e-10/1e-12.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from oracles import quad_interface_fluxes
from pipewave.cli import main as cli_main
from pipewave.compare import compare_series
from pipewave.config import load_config
from pipewave.core import (LinearAltitude, Mesh, PhysicalConstants, PipeGeometry,
                           State, effective_wave_speed, entropy_cell, sound_speed,
                           total_head)
from pipewave.kinetic import SQRT3, cfl_timestep, step
from pipewave.kinetic import _six_row_flux_arrays
from pipewave.runner import compare_runs
from pipewave.scenarios import (Periodic, PrescribedDischarge, ReservoirHead,
                                Scenario, ValveClosure, Wall, steady_state_init)

REPO_ROOT = Path(__file__).resolve().parent.parent
G = 9.81
C4 = 1086.6            # wave speed used throughout the validation scenario
LENGTH = 2000.0


def report(number, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number} ({name}): {detail}")
    return ok


def validation_scenario(cells, t_end, stride=1):
    geometry = PipeGeometry(
        length=LENGTH, section=2.0,
        altitude=LinearAltitude(upstream_z=250.0, angle_deg=-5.0))
    return Scenario(
        geometry=geometry, constants=PhysicalConstants(c=C4),
        mesh_cells=cells,
        upstream=ReservoirHead(total_head=300.0),
        downstream=PrescribedDischarge(law=ValveClosure(q0=10.0, t_close=5.0)),
        initial_discharge=10.0, t_end=t_end, output_stride=stride,
        probes=(LENGTH / 2.0, LENGTH))


def smooth_periodic_march(steps):
    """Shared setup for the conservation and entropy criteria: random smooth
    data on a periodic flat frictionless pipe."""
    rng = np.random.default_rng(2024)
    cells = 64
    pipe = PipeGeometry(100.0, 1.0, LinearAltitude(upstream_z=0.0, angle_deg=0.0))
    mesh = Mesh.uniform(pipe.length, cells, pipe.altitude)
    x = mesh.centers / 100.0
    modes = rng.standard_normal((3, 2))
    area = 2.0 + 0.25 * (modes[0, 0] * np.sin(2 * np.pi * x)
                         + 0.5 * modes[1, 0] * np.sin(4 * np.pi * x)
                         + 0.25 * modes[2, 0] * np.cos(6 * np.pi * x)) / 3.0
    c = 25.0
    u = 0.04 * c * (modes[0, 1] * np.cos(2 * np.pi * x)
                    + 0.5 * modes[1, 1] * np.sin(4 * np.pi * x)) / 1.5
    state = State(area=area, discharge=area * u)
    for _ in range(steps):
        dt = cfl_timestep(state, c, mesh, 0.9)
        state = step(state, mesh, c, G, dt, Periodic(), Periodic(), pipe)
        yield state, mesh, c


def test_criterion_1_wave_speed():
    geometry = PipeGeometry(
        length=LENGTH, section=2.0,
        altitude=LinearAltitude(upstream_z=250.0, angle_deg=-5.0))
    c = sound_speed(5.0e-10, 1000.0)
    a = effective_wave_speed(c, geometry.diameter, 0.2, 23e9, 5.0e-10)
    ok = abs(a - 1086.6) <= 0.1
    assert report(1, "wave speed reproduction", ok,
                  f"a = {a:.4f} m/s, target 1086.6 +- 0.1")


def test_criterion_2_well_balanced_still_water():
    cells = 100
    pipe = PipeGeometry(LENGTH, 2.0, LinearAltitude(upstream_z=250.0, angle_deg=-5.0))
    mesh = Mesh.uniform(LENGTH, cells, pipe.altitude)
    area0 = 2.0 * np.exp(-G * (mesh.z_cells - mesh.z_cells[0]) / (C4 * C4))
    state = State(area=area0, discharge=np.zeros(cells))
    for _ in range(1000):
        dt = cfl_timestep(state, C4, mesh, 0.8)
        state = step(state, mesh, C4, G, dt, Wall(), Wall(), pipe)
    q_resid = float(np.max(np.abs(state.discharge)) / (np.max(area0) * C4))
    a_resid = float(np.max(np.abs(state.area - area0) / area0))
    ok = q_resid <= 1e-10 and a_resid <= 1e-12
    report(2, "well-balanced still water", ok,
           f"|Q|/(A c) = {q_resid:.3e} (demanded <= 1e-10), "
           f"rel dA = {a_resid:.3e} (demanded <= 1e-12) with the hydrostatic "
           "reconstruction at every interface")
    assert ok, (f"still-water residuals q={q_resid:.3e}, a={a_resid:.3e} "
                "exceed the demanded 1e-10 / 1e-12")


def test_criterion_3_positivity():
    rng = np.random.default_rng(77)
    s = C4 * SQRT3
    cells = 4
    pipe = PipeGeometry(float(cells), 1.0, LinearAltitude(upstream_z=0.0, angle_deg=0.0))
    failures = 0
    for _ in range(10_000):
        area = rng.uniform(1e-6, 10.0, cells)
        u = rng.uniform(-2 * s, 2 * s, cells)
        z = np.cumsum(rng.uniform(-5.0, 5.0, cells))
        mesh = Mesh(float(cells), z)
        state = State(area=area, discharge=area * u)
        dt = cfl_timestep(state, C4, mesh, 1.0)
        try:
            new = step(state, mesh, C4, G, dt, Wall(), Wall(), pipe)
            if np.any(new.area <= 0):
                failures += 1
        except Exception:
            failures += 1
    ok = failures == 0
    assert report(3, "positivity at CFL 1.0", ok,
                  f"{failures} failures out of 10000 randomized one-step states")


def test_criterion_4_flux_conservativity():
    rng = np.random.default_rng(4)
    cases = 10_000
    s = C4 * SQRT3
    area = rng.uniform(1e-6, 10.0, (cases, 2))
    u = rng.uniform(-2 * s, 2 * s, (cases, 2))
    dz = rng.uniform(-5.0, 5.0, cases)
    fm_a, _, fp_a, _ = _six_row_flux_arrays(
        area[:, 0], area[:, 0] * u[:, 0], area[:, 1], area[:, 1] * u[:, 1],
        dz, C4, G)
    bound = 1e-12 * (np.abs(fm_a) + area[:, 0] * C4)
    worst = float(np.max(np.abs(fm_a - fp_a) / bound))
    ok = worst <= 1.0
    assert report(4, "interface mass-flux conservativity", ok,
                  f"worst |dF_A| = {worst:.3e} of the 1e-12-scaled bound")


def test_criterion_5_quadrature_oracle_equivalence():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        c = rng.uniform(0.5, 20.0)
        s = c * SQRT3
        a_l, a_r = rng.uniform(0.05, 10.0, 2)
        u_l, u_r = rng.uniform(-2 * s, 2 * s, 2)
        z_l, z_r = rng.uniform(-5.0, 5.0, 2)
        fm_a, fm_q, fp_a, fp_q = _six_row_flux_arrays(
            np.float64(a_l), np.float64(a_l * u_l), np.float64(a_r),
            np.float64(a_r * u_r), np.float64(z_r - z_l), c, G)
        oracle_m, oracle_p = quad_interface_fluxes(
            a_l, a_l * u_l, a_r, a_r * u_r, z_l, z_r, c, G)
        # relative error per component; components that vanish (e.g. total
        # reflection) are measured against the case's flux magnitude
        case_scale = max(abs(v) for v in oracle_m + oracle_p)
        case_scale = max(case_scale, (a_l + a_r) * c)
        for got, want in zip((fm_a, fm_q, fp_a, fp_q), oracle_m + oracle_p):
            err = abs(float(got) - want) / max(abs(want), 1e-3 * case_scale)
            worst = max(worst, err)
    ok = worst <= 1e-8
    assert report(5, "quadrature-oracle equivalence", ok,
                  f"worst relative flux error {worst:.3e} over 1000 cases "
                  "(demanded <= 1e-8)")


def test_criterion_6_desk_scale_water_hammer():
    period_ref = 4 * LENGTH / C4
    t_end = 5.0 + 2.0 * period_ref + 1.5
    scenario = validation_scenario(cells=200, t_end=t_end, stride=1)
    from pipewave.config import RunConfig
    config = RunConfig(scenario=scenario, solver="both", output_dir="unused",
                       cfl=0.8)
    results, reports = compare_runs(config, write_files=False)
    mid, downstream = reports[0], reports[1]

    # (a) mid-pipe oscillation period within 5% of 4L/a on both solvers
    ok_a = (mid.kinetic_period is not None and mid.moc_period is not None
            and abs(mid.kinetic_period - period_ref) <= 0.05 * period_ref
            and abs(mid.moc_period - period_ref) <= 0.05 * period_ref)
    report("6a", "mid-pipe period", ok_a,
           f"kinetic {mid.kinetic_period:.4f} s, moc {mid.moc_period:.4f} s, "
           f"target {period_ref:.4f} s +- 5%")

    # (b) first downstream head rise within 10% of the ramp-scaled Joukowsky
    # bound (closure slower than 2L/a reaches only that fraction of a*u0/g)
    u0 = 10.0 / 2.0
    closure_fraction = min(1.0, (2 * LENGTH / C4) / 5.0)
    target_rise = (C4 * u0 / G) * closure_fraction
    rises = {}
    for label, rep_peak in (("kinetic", downstream.first_peak_kinetic),
                            ("moc", downstream.first_peak_moc)):
        series = results[label].probes[1]
        rises[label] = rep_peak - float(series.head[0])
    ok_b = all(abs(r - target_rise) <= 0.10 * target_rise for r in rises.values())
    report("6b", "downstream surge rise", ok_b,
           f"kinetic {rises['kinetic']:.1f} m, moc {rises['moc']:.1f} m, "
           f"target {target_rise:.1f} m +- 10%")

    # (c) mid-pipe Linf difference over the first two periods bounded by 15%
    # of the peak-to-trough amplitude
    kin_mid = results["kinetic"].probes[0]
    moc_mid = results["moc"].probes[0]
    window = 5.0 + 2.0 * period_ref
    amplitude = float(np.max(moc_mid.head) - np.min(moc_mid.head))

    def clip(series):
        keep = series.t <= window
        from pipewave.compare import ProbeSeries
        return ProbeSeries(x=series.x, t=series.t[keep], head=series.head[keep],
                           discharge=series.discharge[keep])

    clipped = compare_series(clip(kin_mid), clip(moc_mid), closure_time=5.0)
    ok_c = clipped.linf_head_error <= 0.15 * amplitude
    report("6c", "kinetic-vs-moc mid-pipe deviation", ok_c,
           f"Linf {clipped.linf_head_error:.2f} m vs bound "
           f"{0.15 * amplitude:.2f} m (amplitude {amplitude:.1f} m)")

    assert ok_a and ok_b and ok_c


def test_criterion_7_conservation():
    mass0 = mom0 = None
    drift = 0.0
    for state, mesh, c in smooth_periodic_march(5000):
        mass = float(np.sum(mesh.width * state.area))
        mom = float(np.sum(mesh.width * state.discharge))
        if mass0 is None:
            mass0, mom0 = mass, mom
            mom_scale = max(abs(mom0), mass0 * c)
            continue
        drift = max(drift, abs(mass - mass0) / mass0,
                    abs(mom - mom0) / mom_scale)
    ok = drift <= 1e-11
    assert report(7, "periodic conservation", ok,
                  f"worst relative drift {drift:.3e} over 5000 steps "
                  "(demanded <= 1e-11)")


def test_criterion_8_entropy_diagnostic():
    total = None
    violations = 0
    worst_increase = 0.0
    for state, mesh, c in smooth_periodic_march(5000):
        new_total = float(np.sum(mesh.width * entropy_cell(
            state.area, state.discharge, 0.0, c, G)))
        if total is not None:
            if new_total > total + 1e-8 * abs(total):
                violations += 1
            worst_increase = max(worst_increase,
                                 (new_total - total) / abs(total))
        total = new_total
    ok = violations == 0
    assert report(8, "entropy diagnostic", ok,
                  f"{violations} increases beyond 1e-8 relative slack "
                  f"(worst step change {worst_increase:.3e})")


def test_criterion_9_steady_state_initializer():
    config = load_config(REPO_ROOT / "waterhammer.cfg")
    scenario = config.scenario
    mesh = scenario.mesh()
    state = steady_state_init(scenario, mesh)
    heads = total_head(state.area, state.velocity, mesh.z_cells,
                       scenario.constants.c, scenario.constants.g)
    spread = float((np.max(heads) - np.min(heads)) / np.max(np.abs(heads)))
    ok = spread <= 1e-10
    assert report(9, "steady-state initializer", ok,
                  f"relative total-head spread {spread:.3e} across "
                  f"{mesh.n} cells (demanded <= 1e-10)")


def test_criterion_10_deterministic_output(tmp_path):
    cfg_text = (REPO_ROOT / "waterhammer.cfg").read_text()
    cfg_text = cfg_text.replace("run.cells = 1000", "run.cells = 120")
    cfg_text = cfg_text.replace("run.t_end_s = 40", "run.t_end_s = 3")
    cfg_text = cfg_text.replace("run.solver = both", "run.solver = both")
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)

    def run_once(tag):
        out = tmp_path / tag
        code = cli_main(["run", str(cfg_path), "--out", str(out)])
        assert code == 0
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.glob("*.csv"))}

    first = run_once("first")
    second = run_once("second")
    ok = bool(first) and first == second
    assert report(10, "byte-identical reruns", ok,
                  f"{len(first)} CSV files compared across two runs")
