from pathlib import Path

import pytest

from pipewave.config import (_SCHEMA, ConfigError, RunConfig, _parse_float,
                             _parse_floats, load_config, parse_config)
from pipewave.core import effective_wave_speed, sound_speed
from pipewave.scenarios import PrescribedDischarge, ReservoirHead

REPO_ROOT = Path(__file__).resolve().parent.parent

MINIMAL = """
pipe.length_m = 2000
pipe.section_m2 = 2
pipe.wall_thickness_m = 0.2
pipe.young_modulus_pa = 23e9
pipe.upstream_altitude_m = 250
pipe.slope_deg = -5
fluid.compressibility_per_pa = 5e-10
fluid.density_kg_m3 = 1000
boundary.upstream_head_m = 300
boundary.closure_duration_s = 5
flow.initial_discharge_m3s = 10
run.t_end_s = 40
run.cells = 1000
"""


class TestParse:
    def test_shipped_waterhammer_config(self):
        config = load_config(REPO_ROOT / "waterhammer.cfg")
        scenario = config.scenario
        geom = scenario.geometry
        assert geom.length == 2000.0
        assert geom.section == 2.0
        assert geom.altitude.upstream_z == 250.0
        assert abs(geom.altitude.angle_deg) == 5.0
        assert isinstance(scenario.upstream, ReservoirHead)
        assert scenario.upstream.total_head == 300.0
        assert isinstance(scenario.downstream, PrescribedDischarge)
        assert scenario.downstream.law.t_close == 5.0
        assert scenario.initial_discharge == 10.0
        assert scenario.mesh_cells == 1000
        # wave speed derived from the elastic pipe parameters
        assert scenario.constants.c == pytest.approx(1086.6, abs=0.1)
        assert scenario.constants.c == effective_wave_speed(
            sound_speed(5e-10, 1000.0), geom.diameter, 0.2, 23e9, 5e-10)
        assert config.cfl == 0.8
        assert config.solver == "both"

    def test_minimal_defaults(self):
        config = parse_config(MINIMAL)
        assert config.solver == "kinetic"
        assert config.cfl == 0.8
        assert config.scenario.output_stride == 20
        assert config.scenario.probes == (1000.0,)   # mid-pipe default
        assert config.scenario.geometry.strickler is None

    def test_empty_document_lists_required_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        message = str(err.value)
        assert "missing required keys" in message
        for key in ("pipe.length_m", "run.cells", "boundary.upstream_head_m",
                    "flow.initial_discharge_m3s"):
            assert key in message

    def test_duplicate_key_names_both_lines(self):
        text = MINIMAL + "\npipe.length_m = 1000\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        message = str(err.value)
        assert "pipe.length_m" in message
        assert "2" in message and "16" in message

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\npipe.colour = blue\n")
        assert "pipe.colour" in str(err.value)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("pipe.length_m\n")
        assert "line 1" in str(err.value)

    def test_bad_number_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("run.cells = 1000", "run.cells = ten"))
        assert "run.cells" in str(err.value)

    def test_validation_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("pipe.length_m = 2000",
                                         "pipe.length_m = -4"))
        assert "pipe.length_m" in str(err.value)

    @pytest.mark.parametrize("t_end", ["nan", "inf"])
    def test_non_finite_end_time_names_key(self, t_end):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("run.t_end_s = 40", f"run.t_end_s = {t_end}"))
        assert "run.t_end_s" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [key for key, (parser, _) in _SCHEMA.items()
                                     if parser in (_parse_float, _parse_floats)])
    def test_non_finite_float_names_key(self, key, value):
        # NaN passed every "<= 0" check, and a run then failed with a solver
        # error (exit 3) or marched nonsense
        text = "\n".join(line for line in MINIMAL.splitlines()
                         if not line.startswith(key + " "))
        with pytest.raises(ConfigError, match=rf"^key {key}: expected a finite number"):
            parse_config(text + f"\n{key} = {value}\n")

    def test_non_finite_probe_in_list_names_key(self):
        with pytest.raises(ConfigError, match="key output.probes_m"):
            parse_config(MINIMAL + "\noutput.probes_m = 500, nan\n")

    def test_empty_probe_list_names_key(self):
        # an empty list would leave no probe to record or compare
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\noutput.probes_m = ,\n")
        assert "output.probes_m" in str(err.value)

    @pytest.mark.parametrize("key,value,message", [
        ("output.stride", "0", "must be >= 1, got 0"),
        ("output.probes_m", "3000", "probe at x=3000.0 outside the pipe [0, 2000.0]"),
        ("boundary.upstream_head_m", "200", "200.0 m does not cover the pipe crown "
                                            "251.596 m at x=0"),
        ("boundary.closure_law", "foo", "unknown closure law 'foo'"),
        ("boundary.closure_law", "instant", "unknown closure law 'instant'"),
        ("boundary.closure_duration_s", "-1", "must lie in [0, inf), got -1.0"),
        ("run.cells", "1", "must be >= 2, got 1"),
    ])
    def test_scenario_validation_names_key(self, key, value, message):
        text = "\n".join(line for line in MINIMAL.splitlines()
                         if not line.startswith(key + " "))
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace("run.cells = 1000", "run.cells = 10")
                         .replace("run.t_end_s = 40", "run.t_end_s = 1")
                         + f"\n{key} = {value}\n")
        assert str(err.value) == f"key {key}: {message}"

    @pytest.mark.parametrize("key,value,message", [
        ("run.solver", "fast", "must be kinetic|moc|both, got 'fast'"),
        ("output.snapshot_stride", "-3", "must be >= 0, got -3"),
        ("run.cfl", "1.5", "must lie in (0, 1], got 1.5"),
    ])
    def test_run_setting_names_key(self, key, value, message):
        # RunConfig used to word these "run.solver must be ..." and left out
        # the rejected snapshot stride
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"\n{key} = {value}\n")
        assert str(err.value) == f"key {key}: {message}"

    @pytest.mark.parametrize("stride", [2.5, 10.0])
    def test_snapshot_stride_must_be_an_integer(self, stride):
        scenario = parse_config(MINIMAL).scenario
        with pytest.raises(ValueError, match=rf"^snapshot_stride: must be an integer, "
                                             rf"got {stride}$"):
            RunConfig(scenario=scenario, snapshot_stride=stride)

    def test_cfl_above_one_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\nrun.cfl = 1.5\n")

    def test_friction_switch_is_an_unknown_key(self):
        # the roughness alone says whether the pipe has friction
        for value in ("true", "false"):
            with pytest.raises(ConfigError,
                               match=r"^line 16: unknown key 'friction\.enabled'$"):
                parse_config(MINIMAL + f"\nfriction.enabled = {value}\nfriction.strickler = 80\n")

    @pytest.mark.parametrize("strickler", ["1e-200", "1e-160", "1e200"])
    def test_strickler_without_finite_coefficient_rejected(self, strickler):
        # K_s^2 vanishes, is subnormal (K = inf) or overflows
        with pytest.raises(ConfigError, match=r"^key friction\.strickler: "):
            parse_config(MINIMAL + f"\nfriction.strickler = {strickler}\n")

    @pytest.mark.parametrize("beta,rho0", [("1e-200", "1e-200"), ("1e200", "1e200")],
                             ids=["product-underflows", "product-overflows"])
    def test_extreme_fluid_pair_names_both_keys(self, beta, rho0):
        # beta * rho0 underflowed to 0 (ZeroDivisionError) or overflowed to
        # inf (a wave speed of 0, rejected without naming a key)
        text = (MINIMAL.replace("per_pa = 5e-10", f"per_pa = {beta}")
                .replace("kg_m3 = 1000", f"kg_m3 = {rho0}"))
        with pytest.raises(ConfigError, match=r"^keys fluid\.compressibility_per_pa and "
                                              r"fluid\.density_kg_m3: "):
            parse_config(text)

    def test_strickler_switches_friction_on(self):
        # a roughness set without the old friction.enabled switch used to be
        # ignored without a word
        geometry = parse_config(MINIMAL + "\nfriction.strickler = 80\n").scenario.geometry
        assert geometry.strickler == 80.0
        assert geometry.friction_coefficient > 0.0

    def test_zero_closure_duration_is_the_instant_closure(self):
        law = parse_config(MINIMAL.replace("closure_duration_s = 5", "closure_duration_s = 0")
                           ).scenario.downstream.law
        assert law.t_close == 0.0
        assert law(0.0) == 0.0

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config(MINIMAL + "\n# comment only\n\nrun.cfl = 0.5 # trailing\n")
        assert config.cfl == 0.5

    def test_optional_keys_reach_the_config(self):
        config = parse_config(MINIMAL + ("\nrun.cfl = 0.35\nrun.solver = moc\n"
                                         "output.probes_m = 3.5, 1207\n"
                                         "boundary.closure_law = cosine\n"
                                         "friction.strickler = 75\n"))
        assert config.cfl == 0.35
        assert config.solver == "moc"
        assert config.scenario.probes == (3.5, 1207.0)
        assert config.scenario.downstream.law.kind == "cosine"
        assert config.scenario.geometry.strickler == 75.0

    def test_explicit_wave_speed_overrides_elastic(self):
        config = parse_config(MINIMAL + "\nfluid.wave_speed_m_s = 1086.6\n")
        assert config.scenario.constants.c == 1086.6
