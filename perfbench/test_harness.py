"""Self-test of the benchmark harness on tiny configurations.

    python3 -m pytest perfbench/test_harness.py

Kept outside the repository's tier-1 test paths: it starts fresh worker
processes and takes about half a minute.
"""

import json
import math
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import Counter, Tracer, installed  # noqa: E402
from workloads import Workload, draw  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# small enough to run in seconds, fine enough (200 cells, 20 s) that the
# kinetic period still passes the 1 % gate
TINY = {
    "surge": Workload("tiny-surge", "surge", cells=200, stride=10, snapshot_stride=500, t_end=20.0),
    "moc": Workload("tiny-moc", "moc", cells=200, stride=5, snapshot_stride=0, t_end=20.0),
    "invariants": Workload("tiny-invariants", "invariants", cells=50, stride=20,
                           snapshot_stride=0),
}
APPLICABLE = {
    "surge": {"kinetic_cells_per_s", "moc_nodes_per_s", "head_linf_err_m",
              "period_err_s", "peak_err_m"},
    "moc": {"moc_nodes_per_s"},
    "invariants": {"invariant_worst_ratio"},
}


def test_self_times_sum_to_the_root_span():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.002))

    def body():
        leaf()
        time.sleep(0.001)
        leaf()

    middle = tracer.wrap("middle", body)
    with tracer.span("op"):
        middle()
        time.sleep(0.001)
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 2 and summary["middle"]["calls"] == 1
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(tracer.root_seconds(), abs=1e-9)
    assert summary["op"]["self_s"] >= 0.001
    assert summary["leaf"]["self_s"] >= 0.004


def test_installed_replaces_aliases_and_restores_them():
    owner = types.ModuleType("owner")
    alias = types.ModuleType("alias")

    def f(x):
        return 2 * x

    owner.f = alias.g = f
    counter = Counter()
    with installed(counter, [(owner, "f", "owner.f", lambda a: a[0])], [alias]):
        assert owner.f(3) == 6 and alias.g(4) == 8
    assert owner.f is f and alias.g is f
    assert counter.calls["owner.f"] == 2 and counter.work["owner.f"] == 7


def test_seed_fixes_the_inputs():
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)
    d = draw(7)
    assert 4.0 <= d.closure_s <= 6.0 and abs(d.head_m / 300.0 - 1.0) <= 0.03


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_finite_with_a_unit(kind, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "LOG", tmp_path / "runs.jsonl")
    inputs, setup, worker = run.measure(TINY[kind], seed=11, seconds=0.01, trace=trace)
    row = run._row(TINY[kind], 11, 0.01, trace, inputs, setup, worker)
    assert row["correct"], [r.get("errors") for r in row["ops"]]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(row["metrics"]) == {spec["name"] for spec in declared}
    for spec in declared:
        metric = row["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["unit"]
        assert math.isfinite(metric["value"]), spec["name"]
    for name in run.FIGURES:
        value = row["figures"][name]
        universal = name in {s["name"] for s in DECLARED["end_to_end"]}
        if universal or name in APPLICABLE[kind] or name == "failed_ops_frac":
            assert value is not None and math.isfinite(value), name
        else:
            assert value is None, name
    env = row["environment"]
    assert env["python"] and env["numpy"] and env["nproc"] and env["src_sha256"]
    assert env["thread_caps"]["OMP_NUM_THREADS"] == "1"
    if trace:
        layers = worker["layers"]
        total_self = sum(layers[name]["self_s"] for name in layers)
        assert total_self == pytest.approx(worker["traced_root_s"], rel=1e-9)
        assert row["metrics"]["trace.unattributed_frac"]["value"] < 0.10


def test_failed_gate_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "LOG", tmp_path / "runs.jsonl")
    failed_op = {"wall_s": 1.0, "cpu_s": 1.0, "attempted": 3, "failed": 1,
                 "updates": 10, "errors": ["kinetic_probe_00.csv: non-finite values"]}
    worker = {"setup_s": 0.1, "numpy": "x", "rss_mb": 1.0, "ops": [failed_op]}
    monkeypatch.setattr(run, "measure", lambda *a: (draw(1), [0.1] * 5, worker))
    assert run.main(["--workload", "surge-fine", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1 and last["attempted"] == 3
