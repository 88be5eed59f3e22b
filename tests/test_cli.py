import contextlib
import hashlib
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipewave import scenarios
from pipewave.cli import main
from pipewave.config import _SCHEMA

REPO_ROOT = Path(__file__).resolve().parent.parent

SMALL = """
pipe.length_m = 2000
pipe.section_m2 = 2
pipe.wall_thickness_m = 0.2
pipe.young_modulus_pa = 23e9
pipe.upstream_altitude_m = 250
pipe.slope_deg = -5
fluid.compressibility_per_pa = 5e-10
fluid.density_kg_m3 = 1000
fluid.wave_speed_m_s = 1086.6
boundary.upstream_head_m = 300
boundary.closure_duration_s = 5
flow.initial_discharge_m3s = 10
run.t_end_s = 2.0
run.cells = 40
run.cfl = 0.8
run.solver = kinetic
output.stride = 10
output.probes_m = 1000
"""


def write_config(tmp_path, text=SMALL, **overrides):
    for key, value in overrides.items():
        dotted = key.replace("__", ".")
        lines = [ln for ln in text.splitlines() if not ln.startswith(dotted + " ")]
        lines.append(f"{dotted} = {value}")
        text = "\n".join(lines)
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    return path


def sha_of_csvs(directory):
    hashes = {}
    for path in sorted(Path(directory).glob("*.csv")):
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


class TestRunCommand:
    def test_small_run_writes_probe_and_snapshots(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        t, area, q, u, rho, piezo = np.loadtxt(out / "kinetic_probe_00.csv",
                                               delimiter=",", skiprows=1, ndmin=2).T
        assert t[0] == 0.0
        assert t[-1] == 2.0
        assert np.all(np.diff(t) > 0)          # strictly ordered, no duplicates
        assert np.all(area > 0)
        assert rho == pytest.approx(area / 2.0)
        snaps = sorted(out.glob("kinetic_snap_*.csv"))
        assert len(snaps) == 2                  # initial + final by default
        assert (out / "kinetic_summary.txt").exists()
        assert "steps" in capsys.readouterr().out

    def test_zero_duration_initial_frame_only(self, tmp_path):
        cfg = write_config(tmp_path, run__t_end_s="0")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        t, *_ = np.loadtxt(out / "kinetic_probe_00.csv", delimiter=",", skiprows=1,
                           ndmin=2).T
        assert t.shape == (1,)
        assert len(list(out.glob("kinetic_snap_*.csv"))) == 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        h1, h2 = sha_of_csvs(out1), sha_of_csvs(out2)
        assert h1 and h1 == h2

    def test_cell_and_cfl_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--cells", "24",
                     "--cfl", "0.5"]) == 0
        assert "24 cells" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_file_is_config_error(self, capsys):
        assert main(["run", "no-such-file.cfg"]) == 2

    def test_invalid_config_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, run__cfl="1.5")
        assert main(["run", str(cfg)]) == 2

    def test_nan_end_time_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, run__t_end_s="nan")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "run.t_end_s" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [("pipe.slope_deg", "nan"),
                                           ("boundary.upstream_head_m", "nan"),
                                           ("flow.initial_discharge_m3s", "inf")])
    def test_non_finite_float_is_config_error(self, tmp_path, capsys, key, value):
        # these used to parse and then fail the run with exit 3
        cfg = write_config(tmp_path, **{key.replace(".", "__"): value})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"key {key}: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        # tiny wave speed: the velocity head swamps the reservoir head and
        # the steady-state inversion leaves the positive-area domain
        {"fluid__wave_speed_m_s": "5", "pipe__upstream_altitude_m": "0",
         "pipe__slope_deg": "0", "boundary__upstream_head_m": "2",
         "flow__initial_discharge_m3s": "30"},
        {"flow__initial_discharge_m3s": "1e6", "run__solver": "kinetic"},
        {"flow__initial_discharge_m3s": "1e6", "run__solver": "moc"},
    ], ids=["slow-wave", "discharge-kinetic", "discharge-moc"])
    def test_unreachable_steady_state_is_exit_2(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: key flow.initial_discharge_m3s: "
                              "no steady state carries "), err
        assert "from the reservoir at boundary.upstream_head_m = " in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1e-200", "1e200"])
    def test_extreme_fluid_pair_is_exit_2(self, tmp_path, capsys, value):
        # the derived wave speed: a traceback (exit 1) for 1e-200 and a
        # message naming no key for 1e200
        lines = [ln for ln in SMALL.splitlines() if not ln.startswith("fluid.wave_speed_m_s")]
        cfg = write_config(tmp_path, "\n".join(lines), fluid__compressibility_per_pa=value,
                           fluid__density_kg_m3=value)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert ("configuration error: keys fluid.compressibility_per_pa and "
                "fluid.density_kg_m3: ") in err, err
        assert not (tmp_path / "out").exists()

    def test_diverging_run_is_exit_3(self, tmp_path, capsys, monkeypatch):
        # the valve discharge jumps to 1e160 after 0.5 s: the 4-cell march
        # overflows mid-run, and the message names the step, time and cell
        law = scenarios.PrescribedDischarge(law=lambda t: 1e160 if t > 0.5 else 10.0)

        ghost_states = scenarios.ghost_states

        def diverging(state, mesh, upstream, downstream, c, g, geometry):
            return ghost_states(state, mesh, upstream, law, c, g, geometry)

        monkeypatch.setattr(scenarios, "ghost_states", diverging)
        cfg = write_config(tmp_path, run__cells="4")
        with np.errstate(all="ignore"):
            code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(r"solver error: step \d+ from t=\S+: cell 3 left the "
                         r"admissible states at t=", err), err
        # snapshots are written as they are taken; probes and summary at the end
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "kinetic_snap_00000000.csv"]
        assert len((tmp_path / "out" / "kinetic_snap_00000000.csv").read_text()
                   .splitlines()) == 1 + 4      # complete: header and 4 cells

    @pytest.mark.parametrize("stride", [1, 10])
    def test_diverging_moc_is_exit_3(self, tmp_path, capsys, stride):
        # explicit MOC friction at dx = 667 m drives the heads to -2.7e7 m
        # within 4 steps, far below the zero-area line; with stride 10 the
        # march ends before the first sampled check, so the final one fires
        cfg = write_config(tmp_path, run__cells="3", run__solver="moc",
                           friction__strickler="1",
                           boundary__upstream_head_m="100000",
                           flow__initial_discharge_m3s="0", run__t_end_s="3",
                           run__cfl="0.1", output__stride=str(stride))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert re.search(r"^solver error: step \d+ at t=\S+: node \d+ ranged over ", err), err
        assert ("checked every 10 steps" in err) == (stride == 10), err
        # the initial snapshot was taken before the march and is complete
        assert sorted(p.name for p in out.iterdir()) == ["moc_snap_00000000.csv"]
        assert len((out / "moc_snap_00000000.csv").read_text().splitlines()) == 1 + 4

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_output_below_a_file_is_exit_5(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        (tmp_path / "plain").write_text("")
        code = main([command, str(cfg), "--out", str(tmp_path / "plain" / "out")])
        assert code == 5
        assert "I/O error" in capsys.readouterr().err

    def test_unwritable_snapshot_is_exit_5(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        blocked = tmp_path / "out" / "kinetic_snap_00000000.csv"
        blocked.mkdir(parents=True)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and str(blocked) in err, err

    def test_bad_override_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg), "--cells", "1"]) == 2
        assert "--cells must be >= 2, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cfl", ["2", "nan", "0"])
    def test_bad_cfl_override_names_the_flag(self, tmp_path, capsys, cfl):
        # the message used to name run.cfl, which the file sets to 0.8
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--cfl", cfl, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --cfl must lie in (0, 1], got "), err
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["kinetic", "moc"])
    @pytest.mark.parametrize("strickler", ["1e200", "1e-200", "1e-160"])
    def test_extreme_strickler_is_exit_2(self, tmp_path, capsys, solver, strickler):
        # K_s^2 overflowed or vanished in the first step (exit 1), or K = inf
        # stopped every discharge (kinetic exit 0) or the MOC march (exit 3)
        cfg = write_config(tmp_path, run__cells="20", run__solver=solver,
                           friction__strickler=strickler)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: key friction.strickler: "), err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("friction.enabled", "true", r"line 20: unknown key 'friction\.enabled'"),
        ("boundary.closure_law", "instant",
         r"key boundary\.closure_law: unknown closure law 'instant'"),
        ("boundary.closure_duration_s", "-1",
         r"key boundary\.closure_duration_s: must lie in \[0, inf\), got -1\.0"),
    ])
    def test_second_spelling_is_exit_2(self, tmp_path, capsys, key, value, message):
        # a roughness switches friction on and a zero duration is the instant
        # closure: the switch and the closure law that said so are gone
        cfg = write_config(tmp_path, **{key.replace(".", "__"): value})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert re.fullmatch(f"configuration error: {message}\n", capsys.readouterr().err)
        assert not out.exists()


class TestCompareCommand:
    def test_compare_writes_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, run__t_end_s="20", run__cells="80",
                           output__stride="2")
        out = tmp_path / "out"
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        report = (out / "compare_report.txt").read_text()
        assert "probe_x_m: 1000" in report
        assert "linf_head_error_m" in report
        assert "kinetic_period_s" in report
        assert (out / "moc_probe_00.csv").exists()
        printed = capsys.readouterr().out
        assert "first_peak_kinetic_m" in printed

    def test_run_shorter_than_one_moc_step_is_exit_2(self, tmp_path, capsys):
        # 3 cells: the MOC step dx/a = 0.61 s outlasts the 0.5 s run, which
        # would leave the MOC series at t = 0 alone; nothing is marched
        cfg = write_config(tmp_path, run__t_end_s="0.5", run__cells="3")
        out = tmp_path / "out"
        assert main(["compare", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "run.t_end_s" in err and "run.cells" in err, err
        assert not out.exists()
        # one MOC step is enough
        cfg = write_config(tmp_path, run__t_end_s="0.62", run__cells="3",
                           output__stride="1")
        assert main(["compare", str(cfg), "--out", str(out)]) == 0

    def test_one_sample_window_reports_l2_as_na(self, tmp_path, capsys):
        # at stride 10 the kinetic series holds only t = 0 inside the one MOC
        # step [0, dx/a]: no L2 error over a window of one sample
        cfg = write_config(tmp_path, run__t_end_s="0.62", run__cells="3",
                           output__stride="10", output__probes_m="1000, 2000")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", str(cfg), "--out", str(tmp_path / "out")]) == 0
        printed = capsys.readouterr().out
        assert printed.count("l2_head_error_m: n/a") == 2, printed
        assert "nan" not in printed

    def test_overrides_apply(self, tmp_path):
        overridden, configured = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, run__t_end_s="2", output__stride="2")
        assert main(["compare", str(cfg), "--out", str(overridden), "--cells", "24",
                     "--cfl", "0.5"]) == 0
        cfg = write_config(tmp_path, run__t_end_s="2", output__stride="2",
                           run__cells="24", run__cfl="0.5", output__dir=str(configured))
        assert main(["compare", str(cfg)]) == 0
        assert "cells: 24\n" in (overridden / "kinetic_summary.txt").read_text()
        assert sha_of_csvs(overridden) == sha_of_csvs(configured)


class TestCheckCommand:
    def test_check_passes_on_shipped_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["check", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_check_residuals_on_repository_config(self, tmp_path, capsys, monkeypatch):
        # the shipped waterhammer.cfg, not SMALL: the four residuals pin what
        # each suite measures, not only that it passes
        monkeypatch.chdir(tmp_path)
        assert main(["check", str(REPO_ROOT / "waterhammer.cfg")]) == 0
        residuals = re.findall(r"residual=(\S+)", capsys.readouterr().out)
        assert residuals == ["3.287e-16", "0.000e+00", "2.816e-16", "3.769e-15"]

    @pytest.mark.parametrize("flag", [["--cells", "5"], ["--cfl", "0.5"], ["--out", "x"]])
    def test_run_flags_rejected(self, tmp_path, capsys, flag):
        # the suites set their own meshes and CFL and write no file
        with pytest.raises(SystemExit) as exit_info:
            main(["check", str(write_config(tmp_path))] + flag)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_failing_suite_gives_exit_4(self, tmp_path, capsys, monkeypatch):
        from pipewave import cli
        from pipewave.checks import CheckResult
        monkeypatch.setattr(cli, "run_all_checks",
                            lambda config: [CheckResult("stub", 1.0, 0.5)])
        cfg = write_config(tmp_path)
        assert main(["check", str(cfg)]) == 4
        assert "FAIL" in capsys.readouterr().out


# every key the configuration reads, and the flags of run and compare
_NAMES = re.compile("|".join(re.escape(name) for name in [*_SCHEMA, "--cells", "--cfl"]))
# a coefficient of 1e-300 is valid but would march for ever: draw the valid
# ones from [0.05, 1], and one time in ten a value outside (0, 1]
_CFLS = st.integers(0, 9).flatmap(lambda k: st.sampled_from([0.0, -0.1, 1.2, math.nan])
                                  if k == 0 else st.floats(0.05, 1.0))


@st.composite
def cli_calls(draw):
    """(command, configuration overrides of SMALL, flags): valid and invalid
    values alike, over each key's domain."""
    overrides = {
        "run__cells": draw(st.integers(2, 50)),
        "run__t_end_s": draw(st.integers(0, 50)) / 10.0,
        "boundary__upstream_head_m": draw(st.floats(240.0, 400.0)),
        "pipe__slope_deg": draw(st.floats(-10.0, 10.0)),
        "flow__initial_discharge_m3s": draw(st.floats(-20.0, 60.0)),
        "boundary__closure_law": draw(st.sampled_from(["linear", "cosine"])),
        # 0 is the instant closure: drawn outright one time in five
        "boundary__closure_duration_s": draw(st.integers(0, 4).flatmap(
            lambda k: st.just(0.0) if k == 0 else st.floats(0.0, 8.0))),
        "run__cfl": draw(_CFLS),
        "run__solver": draw(st.sampled_from(["kinetic", "moc", "both"])),
        "output__stride": draw(st.integers(1, 20)),
        "output__probes_m": ", ".join(map(repr, draw(st.lists(st.floats(-50.0, 2050.0),
                                                              min_size=1, max_size=2)))),
    }
    if draw(st.booleans()):     # a roughness switches friction on
        overrides["friction__strickler"] = draw(st.floats(0.05, 200.0))
    flags = []      # "--cfl=-0.5": argparse takes a bare "-0.5" for a flag
    if draw(st.booleans()):
        flags.append(f"--cells={draw(st.integers(1, 50))}")
    if draw(st.booleans()):
        flags.append(f"--cfl={draw(_CFLS)!r}")
    return draw(st.sampled_from(["run", "compare"])), overrides, flags


class TestOutcomes:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(cli_calls())
    def test_every_run_succeeds_or_fails_loudly(self, call):
        """Exit 0 with finite CSVs and positive areas, exit 2 naming a key or
        flag, or exit 3 naming the step and its time: never another code,
        an uncaught exception or a plausible-looking bad result."""
        command, overrides, flags = call
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            cfg = write_config(Path(tmp), **overrides)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    np.errstate(all="ignore"):
                code = main([command, str(cfg), "--out", str(out), *flags])
            err = err.getvalue()
            if code == 0:
                csvs = sorted(out.glob("*.csv"))
                assert csvs
                for path in csvs:
                    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                    assert np.isfinite(data).all(), path.name
                    assert (data[:, 1] > 0).all(), path.name      # the A_m2 column
            elif code == 2:
                assert err.startswith("configuration error: ") and _NAMES.search(err), err
            else:
                assert code == 3, err
                assert re.match(r"solver error: step \d+ (from|at) t=\S+: ", err), err
