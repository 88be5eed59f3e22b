"""pipewave benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  The seed draws the workload's inputs (see ``workloads.py``).
Set-up is timed in several fresh processes; the workload then runs in one
more fresh single-threaded process for S seconds, and every output is
checked.  The command prints a table of the figures it measured, then one
JSON line ``{"correct", "attempted", "failed", "metrics"}`` whose metrics
are the end-to-end ones of ``BENCHMARK.json`` (--trace 0) or its per-layer
ones (--trace 1).  Every run is appended, with its inputs and an environment
stamp, to ``perfbench/_work/runs.jsonl``.

Exit codes: 0 every check passed; 1 an operation failed or gave an output
that failed its check; 2 the program could not be set up at all (no result
line is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS, config_text, draw

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LOG = HERE / "_work" / "runs.jsonl"
SETUP_SAMPLES = 7          # fresh processes whose set-up is timed; the median is reported
DEADLINE_S = 170.0         # the whole command ends well within 180 s
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

# the figures of the printed table (and the log), by name -> unit; those that
# every workload has are also the end-to-end metrics of BENCHMARK.json
FIGURES = {
    "setup_s": "s", "wall_s": "s", "updates_per_s": "1/s", "peak_rss_mb": "MB",
    "kinetic_cells_per_s": "1/s", "moc_nodes_per_s": "1/s",
    "head_linf_err_m": "m", "period_err_s": "s", "peak_err_m": "m",
    "invariant_worst_ratio": "ratio", "failed_ops_frac": "frac",
}

COUNTED = ["kinetic.flux", "kinetic.step", "kinetic.cfl_timestep", "core.State.validate",
           "scenarios.ghost_states", "moc.moc_step", "output.write_rows_csv"]
TIMED = ["config.load_config", "core.State.validate", "scenarios.steady_state_init",
         "scenarios.ghost_states", "kinetic.flux", "kinetic.step", "kinetic.cfl_timestep",
         "kinetic.run", "moc.moc_step", "moc.moc_run", "runner.run_simulation",
         "runner.compare_runs", "output.write_rows_csv", "output.frame_rows",
         "compare.compare_series", "checks.check_flux_continuity",
         "checks.check_positivity", "checks.check_conservation",
         "checks.check_still_water"]


class SetupError(RuntimeError):
    """The program could not be imported or set up."""


def _median_of(records, key):
    values = [r[key] for r in records if r.get(key) is not None]
    return statistics.median(values) if values else None


def figures(setup_samples, worker):
    """Every end-to-end figure this workload has (absent ones are None)."""
    ops = worker["ops"]
    attempted = sum(r["attempted"] for r in ops)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": _median_of(ops, "wall_s"),
        "updates_per_s": statistics.median(r["updates"] / r["wall_s"] for r in ops)
        if all("updates" in r for r in ops) else None,
        "peak_rss_mb": worker["rss_mb"],
        "kinetic_cells_per_s": _median_of(ops, "kinetic_cells_per_s"),
        "moc_nodes_per_s": _median_of(ops, "moc_nodes_per_s"),
        "head_linf_err_m": _median_of(ops, "head_linf_err_m"),
        "period_err_s": _median_of(ops, "period_err_s"),
        "peak_err_m": _median_of(ops, "peak_err_m"),
        "invariant_worst_ratio": _median_of(ops, "invariant_worst_ratio"),
        "failed_ops_frac": sum(r["failed"] for r in ops) / attempted,
    }


def _whole(value):
    return int(value) if value == int(value) else value


def per_layer(worker):
    """Per-layer metrics from the traced operations, per operation."""
    traced = worker["traced_ops"]
    n = len(traced)
    layers, work = worker["layers"], worker["work"]
    root = layers["op"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def share(name):
        return get(name, "self_s") / root["total_s"]

    m = {f"{name}.calls": _whole(get(name, "calls") / n) for name in COUNTED}
    m.update({f"{name}.self_s": get(name, "self_s") / n for name in TIMED})
    interfaces, nodes = work.get("kinetic.flux", 0), work.get("moc.moc_step", 0)
    m["kinetic.flux.us_per_interface"] = (
        1e6 * get("kinetic.flux", "self_s") / interfaces if interfaces else 0.0)
    m["moc.moc_step.ns_per_node"] = 1e9 * get("moc.moc_step", "self_s") / nodes if nodes else 0.0
    m["kinetic.step.cell_updates"] = _whole(work.get("kinetic.step", 0) / n)
    m["moc.moc_step.node_updates"] = _whole(nodes / n)
    for name in ("kinetic.flux", "output.write_rows_csv", "moc.moc_step"):
        m[f"{name}.share"] = share(name)
    for key, metric in (("csv_files", "output.files_written"),
                        ("csv_rows", "output.rows_written"),
                        ("csv_bytes", "output.bytes_written")):
        m[metric] = _whole(_median_of(traced, key) or 0)

    ops = worker["ops"]
    for key, metric in (("kinetic_cells_per_s", "kinetic.run.cells_per_s"),
                        ("moc_nodes_per_s", "moc.moc_run.nodes_per_s"),
                        ("head_linf_err_m", "compare.head_linf_err_m"),
                        ("period_err_s", "compare.period_err_s"),
                        ("peak_err_m", "compare.peak_err_m"),
                        ("invariant_worst_ratio", "checks.worst_ratio")):
        value = _median_of(ops, key)
        m[metric] = 0.0 if value is None else value
    traced_wall = _median_of(traced, "wall_s")
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - _median_of(ops, "wall_s")
    m["trace.unattributed_frac"] = root["self_s"] / root["total_s"]
    return m


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root, numpy_version):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": _git_commit(root), "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "thread_caps": THREAD_CAPS,
    }


def _worker(spec_path, deadline):
    env = dict(os.environ, **THREAD_CAPS)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise SetupError("the workload process overran the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SetupError(f"workload process exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """One complete run: set-up samples, then the workload process."""
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "pipewave").is_dir():
        raise SetupError(f"no program source at {ROOT / 'src' / 'pipewave'}")
    inputs = draw(seed)
    work = HERE / "_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rel = work.relative_to(ROOT)
        config_path = work / "bench.cfg"
        config_path.write_text(config_text(workload, inputs, (rel / "out").as_posix()))
        spec = {"root": str(ROOT), "workload": vars(workload),
                "config_path": (rel / "bench.cfg").as_posix(),
                "out_dir": (rel / "out").as_posix(),
                "suite_seeds": list(inputs.suite_seeds), "seconds": seconds,
                "trace": bool(trace), "setup_only": True}
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        setup = [_worker(spec_path, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        spec["setup_only"] = False
        spec_path.write_text(json.dumps(spec))
        result = _worker(spec_path, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup.append(result["setup_s"])
    return inputs, setup, result


def _row(workload, seed, seconds, trace, inputs, setup, worker):
    ops = worker["ops"] + worker.get("traced_ops", [])
    attempted = sum(r["attempted"] for r in ops)
    failed = sum(r["failed"] for r in ops)
    figs = figures(setup, worker)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace else "end_to_end"]
    if not trace:
        values = figs
    else:   # a failed traced operation leaves no complete span summary
        values = per_layer(worker) if failed == 0 else {}
    metrics, missing = {}, []
    for spec in wanted:
        value = values.get(spec["name"])
        if value is None or not math.isfinite(value):
            missing.append(spec["name"])
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": asdict(inputs), "environment": environment(ROOT, worker["numpy"]),
        "setup_samples_s": setup, "figures": figs,
        "ops": ops,
        "layers": worker.get("layers"),
        "correct": failed == 0 and not missing, "attempted": attempted, "failed": failed,
        "missing_metrics": missing, "metrics": metrics,
    }


def _print_table(row):
    inputs = row["inputs"]
    print(f"workload {row['workload']}  seed {row['seed']}  closure "
          f"{inputs['closure_s']:.4f} s  head {inputs['head_m']:.4f} m  "
          f"suite seeds {inputs['suite_seeds']}")
    for name, unit in FIGURES.items():
        value = row["figures"][name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:24s} {shown:>14s} {unit}")
    if row["trace"]:
        for name, metric in row["metrics"].items():
            print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    for r in row["ops"]:
        for error in r.get("errors", []):
            print(f"  FAILED: {error}")
    if row["missing_metrics"]:
        print(f"  NOT MEASURED: {', '.join(row['missing_metrics'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        inputs, setup, worker = measure(workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    row = _row(workload, args.seed, args.seconds, args.trace, inputs, setup, worker)
    LOG.parent.mkdir(parents=True, exist_ok=True)
    with open(LOG, "a") as fh:
        fh.write(json.dumps(row) + "\n")
    _print_table(row)
    print(json.dumps({key: row[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if row["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
