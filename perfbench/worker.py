"""One benchmark workload in a fresh process.

Usage: python3 perfbench/worker.py SPEC.json

``run.py`` writes the spec (workload, generated config file, output
directory, suite seeds, time budget, trace flag).  The worker times its own
set-up (import, ``load_config``, mesh and ``steady_state_init``), then runs
operations for the budget, checks every output and prints one JSON object.
With ``trace`` it interleaves untraced and traced operations, so the tracing
overhead is measured against the same process and inputs.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from spans import Counter, Tracer, installed  # noqa: E402
from workloads import SUITE_CASES  # noqa: E402

PERIOD_TOLERANCE = 0.01      # a probe period must lie within 1 % of 4L/a
ACCURACY_PROBE_M = 1000.0


def import_program(root):
    sys.path.insert(0, str(Path(root) / "src"))
    from pipewave import (checks, compare, config, core, kinetic, moc, output,
                          runner, scenarios)
    return SimpleNamespace(checks=checks, compare=compare, config=config, core=core,
                           kinetic=kinetic, moc=moc, output=output, runner=runner,
                           scenarios=scenarios)


def _cells(args):
    return args[0].n


def traced_layers(pw):
    """(owner, attribute, span name, work units) for every traced layer."""
    return [
        (pw.config, "load_config", "config.load_config", None),
        (pw.core.State, "__post_init__", "core.State.validate", None),
        (pw.scenarios, "steady_state_init", "scenarios.steady_state_init", None),
        (pw.scenarios, "ghost_states", "scenarios.ghost_states", None),
        (pw.kinetic, "_interface_flux_arrays", "kinetic.flux", lambda a: a[0].size),
        (pw.kinetic, "step", "kinetic.step", _cells),
        (pw.kinetic, "cfl_timestep", "kinetic.cfl_timestep", None),
        (pw.kinetic, "run", "kinetic.run", None),
        (pw.moc, "moc_step", "moc.moc_step", _cells),
        (pw.moc, "moc_run", "moc.moc_run", None),
        (pw.runner, "run_simulation", "runner.run_simulation", None),
        (pw.runner, "compare_runs", "runner.compare_runs", None),
        (pw.output, "write_rows_csv", "output.write_rows_csv", None),
        (pw.output, "frame_rows", "output.frame_rows", None),
        (pw.compare, "compare_series", "compare.compare_series", None),
        (pw.checks, "check_flux_continuity", "checks.check_flux_continuity", None),
        (pw.checks, "check_positivity", "checks.check_positivity", None),
        (pw.checks, "check_conservation", "checks.check_conservation", None),
        (pw.checks, "check_still_water", "checks.check_still_water", None),
    ]


def counted_layers(pw):
    """The untraced runs count solver steps and cell/node updates only."""
    return [(pw.kinetic, "step", "kinetic.step", _cells),
            (pw.moc, "moc_step", "moc.moc_step", _cells)]


# ---------------------------------------------------------------------------
# operations: a timed part that calls the program, and a check of its outputs
# ---------------------------------------------------------------------------

def _run_surge(pw, spec):
    config = pw.config.load_config(spec["config_path"])
    results, reports = pw.runner.compare_runs(config, write_files=True)
    text = "\n\n".join(pw.runner.format_report(r) for r in reports) + "\n"
    (Path(config.output_dir) / "compare_report.txt").write_text(text)
    return config, results, reports


def _run_moc(pw, spec):
    config = pw.config.load_config(spec["config_path"])
    return config, pw.runner.run_simulation(config, write_files=True), None


def _run_invariants(pw, spec):
    config = pw.config.load_config(spec["config_path"])
    c, g = config.scenario.constants.c, config.scenario.constants.g
    s1, s2, s3 = spec["suite_seeds"]
    return config, [pw.checks.check_flux_continuity(c, g, seed=s1),
                    pw.checks.check_positivity(c, g, cases=SUITE_CASES, seed=s2),
                    pw.checks.check_conservation(c, g, seed=s3),
                    pw.checks.check_still_water(config.scenario)]


def _finite(*values):
    return all(v is not None and math.isfinite(v) for v in values)


def _csv_files(out_dir):
    """name -> (data rows, all values finite, bytes) for every CSV written."""
    files = {}
    for path in sorted(Path(out_dir).glob("*.csv")):
        text = path.read_text()
        header, _, body = text.partition("\n")
        # .17g numbers never contain an "n"; nan, inf and -inf all do
        files[path.name] = (body.count("\n"), "n" not in body, len(text.encode()))
    return files


def _expected_rows(steps, stride):
    return 1 + -(-steps // stride)      # initial sample + every stride-th + final


def _check_solver(errors, files, label, result, steps, stride, snapshots, snap_rows):
    if steps <= 0:
        errors.append(f"{label}: no steps counted")
    for k, series in enumerate(result.probes):
        name = f"{label}_probe_{k:02d}.csv"
        rows, finite, _ = files.get(name, (None, False, 0))
        if rows != _expected_rows(steps, stride):
            errors.append(f"{name}: {rows} rows, expected {_expected_rows(steps, stride)} "
                          f"for {steps} steps at stride {stride}")
        if not finite or not _finite(*series.head.tolist(), *series.discharge.tolist()):
            errors.append(f"{name}: non-finite values")
    snaps = {n: v for n, v in files.items() if n.startswith(f"{label}_snap_")}
    if len(snaps) != snapshots:
        errors.append(f"{label}: {len(snaps)} snapshot files, expected {snapshots}")
    for name, (rows, finite, _) in snaps.items():
        if rows != snap_rows or not finite:
            errors.append(f"{name}: {rows} rows (expected {snap_rows}), finite={finite}")


def _period_ok(errors, label, period, reference):
    if period is None or abs(period - reference) > PERIOD_TOLERANCE * reference:
        errors.append(f"{label} period {period} s at x={ACCURACY_PROBE_M:g} m is not "
                      f"within {PERIOD_TOLERANCE:.0%} of 4L/a = {reference:.6g} s")


def _kinetic_snapshots(steps, snapshot_stride):
    if snapshot_stride == 0:
        return 2
    return 1 + steps // snapshot_stride + (steps % snapshot_stride != 0)


def _check_surge(pw, produced, counts):
    config, results, reports = produced
    scenario = config.scenario
    stride = scenario.output_stride
    files = _csv_files(config.output_dir)
    kin, mo = results["kinetic"], results["moc"]
    ksteps, msteps = counts["kinetic.step"], counts["moc.moc_step"]
    errors = {"kinetic": [], "moc": [], "compare": []}
    _check_solver(errors["kinetic"], files, "kinetic", kin, ksteps, stride,
                  _kinetic_snapshots(ksteps, config.snapshot_stride), kin.cells)
    _check_solver(errors["moc"], files, "moc", mo, msteps, stride, 2, mo.cells)

    reference = 4.0 * scenario.geometry.length / scenario.constants.c
    by_x = {r.probe_x: r for r in reports}
    for r in reports:
        if not _finite(r.linf_head_error, r.l2_head_error, r.linf_discharge_error,
                       r.kinetic_period, r.moc_period, r.first_peak_kinetic,
                       r.first_peak_moc):
            errors["compare"].append(f"report at x={r.probe_x:g}: non-finite or missing field")
    at = by_x.get(ACCURACY_PROBE_M)
    valve = by_x.get(scenario.geometry.length)
    if at is None or valve is None:
        errors["compare"].append("missing report at x=1000 m or at the valve")
    else:
        _period_ok(errors["compare"], "kinetic", at.kinetic_period, reference)
        _period_ok(errors["compare"], "moc", at.moc_period, reference)
    cell_updates = kin.cells * ksteps
    node_updates = mo.cells * msteps
    out = {
        "errors": [e for v in errors.values() for e in v],
        "attempted": len(errors), "failed": sum(1 for v in errors.values() if v),
        "updates": cell_updates + node_updates,
        "kinetic_steps": ksteps, "moc_steps": msteps,
        "kinetic_cells_per_s": cell_updates / kin.wall_clock_s,
        "moc_nodes_per_s": node_updates / mo.wall_clock_s,
        "csv_files": len(files), "csv_rows": sum(v[0] for v in files.values()),
        "csv_bytes": sum(v[2] for v in files.values()),
    }
    if at is not None and valve is not None and not errors["compare"]:
        out.update(head_linf_err_m=at.linf_head_error,
                   period_err_s=at.kinetic_period - at.moc_period,
                   kinetic_period_s=at.kinetic_period, moc_period_s=at.moc_period,
                   peak_err_m=abs(valve.first_peak_kinetic - valve.first_peak_moc))
    return out


def _check_moc(pw, produced, counts):
    config, results, _ = produced
    scenario = config.scenario
    files = _csv_files(config.output_dir)
    mo = results["moc"]
    msteps = counts["moc.moc_step"]
    errors = []
    _check_solver(errors, files, "moc", mo, msteps, scenario.output_stride, 2, mo.cells)
    reference = 4.0 * scenario.geometry.length / scenario.constants.c
    closure = pw.runner.closure_end_time(scenario)
    period = None
    for series in mo.probes:
        if series.x == ACCURACY_PROBE_M:
            period = pw.compare.detect_period(series.t, series.head, closure)
    _period_ok(errors, "moc", period, reference)
    node_updates = mo.cells * msteps
    return {
        "errors": errors, "attempted": 1, "failed": 1 if errors else 0,
        "updates": node_updates, "moc_steps": msteps,
        "moc_nodes_per_s": node_updates / mo.wall_clock_s,
        "moc_period_s": period,
        "csv_files": len(files), "csv_rows": sum(v[0] for v in files.values()),
        "csv_bytes": sum(v[2] for v in files.values()),
    }


def _check_invariants(pw, produced, counts):
    _, suites = produced
    errors = []
    failed = 0
    ratios = []
    for r in suites:
        if not _finite(r.residual, r.tolerance):
            errors.append(f"{r.name}: non-finite residual {r.residual}")
            failed += 1
        elif not r.passed:
            errors.append(f"{r.name}: residual {r.residual:.3e} > tolerance {r.tolerance:.3e}")
            # the positivity residual is its count of failed cases
            failed += int(r.residual) if r.tolerance == 0.0 else 1
        if r.tolerance > 0.0:
            ratios.append(r.residual / r.tolerance)
    return {
        "errors": errors, "attempted": len(suites) - 1 + SUITE_CASES, "failed": failed,
        "updates": counts["kinetic.step.cells"],
        "kinetic_steps": counts["kinetic.step"],
        "invariant_worst_ratio": max(ratios) if ratios else None,
        "suites": {r.name: [r.residual, r.tolerance] for r in suites},
    }


OPERATIONS = {
    "surge": (_run_surge, _check_surge),
    "moc": (_run_moc, _check_moc),
    "invariants": (_run_invariants, _check_invariants),
}


def _operation(pw, spec, recorder, layers, region):
    """Run one operation under ``recorder`` and check it; the returned record
    holds its wall and CPU time, operation counts and measured figures."""
    run, check = OPERATIONS[spec["workload"]["kind"]]
    out_dir = Path(spec["out_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    calls0, work0 = dict(recorder.calls), dict(recorder.work)
    with installed(recorder, layers, vars(pw).values()):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with region():
                produced = run(pw, spec)
        except Exception:               # a raising operation is a failed one
            return {"wall_s": time.perf_counter() - t0, "attempted": 1, "failed": 1,
                    "errors": [traceback.format_exc()]}
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    counts = {name: recorder.calls.get(name, 0) - calls0.get(name, 0)
              for name in ("kinetic.step", "moc.moc_step")}
    counts["kinetic.step.cells"] = (recorder.work.get("kinetic.step", 0)
                                    - work0.get("kinetic.step", 0))
    record = check(pw, produced, counts)
    record.update(wall_s=wall, cpu_s=cpu)
    return record


def _loop(budget, once):
    """Call ``once`` until the next call would overrun ``budget`` seconds
    (always at least once) or a call reports a failure."""
    records = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        new = once()
        records.extend(new)
        now = time.perf_counter()
        if any(r["failed"] for r in new) or (now - start) + (now - t) > budget:
            return records


def run(spec, pw):
    """All operations of one run; returns the untraced records and, with
    ``spec["trace"]``, the traced records and the span summary."""
    def untraced():
        return [_operation(pw, spec, Counter(), counted_layers(pw), nullcontext)]

    if not spec["trace"]:
        return {"ops": _loop(spec["seconds"], untraced)}

    tracer = Tracer()
    layers = traced_layers(pw)

    def pair():
        plain = untraced()[0]
        plain["traced"] = False
        traced = _operation(pw, spec, tracer, layers, lambda: tracer.span("op"))
        traced["traced"] = True
        return [plain, traced]

    records = _loop(spec["seconds"], pair)
    return {"ops": [r for r in records if not r["traced"]],
            "traced_ops": [r for r in records if r["traced"]],
            "layers": tracer.summary(), "work": tracer.work,
            "traced_root_s": tracer.root_seconds()}


def main(argv):
    spec = json.loads(Path(argv[1]).read_text())
    pw = import_program(spec["root"])
    import numpy
    config = pw.config.load_config(spec["config_path"])
    pw.scenarios.steady_state_init(config.scenario, config.scenario.mesh())
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "numpy": numpy.__version__}
    if not spec["setup_only"]:
        result.update(run(spec, pw))
        shutil.rmtree(spec["out_dir"], ignore_errors=True)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
