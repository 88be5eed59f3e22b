import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import loop_detect_period, loop_first_extremum
from pipewave.compare import (ProbeSeries, compare_series, detect_period,
                              first_extremum)
from pipewave.config import load_config
from pipewave.runner import closure_end_time, compare_runs

REPO_ROOT = Path(__file__).resolve().parent.parent


def sinusoid_series(period=7.0, t_end=40.0, n=1500, amplitude=120.0,
                    mean=300.0, phase=0.0, offset=0.0):
    t = np.linspace(0.0, t_end, n)
    head = mean + amplitude * np.sin(2 * np.pi * (t - phase) / period) + offset
    q = 3.0 * np.cos(2 * np.pi * t / period)
    return ProbeSeries(x=1000.0, t=t, head=head, discharge=q)


class TestDetectPeriod:
    def test_sinusoid_period_recovered(self):
        s = sinusoid_series(period=7.3624)
        assert detect_period(s.t, s.head) == pytest.approx(7.3624, abs=0.01)

    def test_asymmetric_waveform_unbiased(self):
        # 20/80 duty cycle square-ish wave: same-sense crossings still give T
        t = np.linspace(0.0, 60.0, 4000)
        period = 6.5
        head = np.where((t % period) < 0.2 * period, 1.0, -0.25)
        assert detect_period(t, head) == pytest.approx(period, rel=0.02)

    def test_short_window_returns_none(self):
        t = np.linspace(0.0, 1.0, 50)
        head = 1.0 + 0.5 * np.sin(2 * np.pi * t / 10.0)   # far below one period
        assert detect_period(t, head) is None

    def test_constant_signal_returns_none(self):
        t = np.linspace(0.0, 10.0, 100)
        assert detect_period(t, np.full(100, 2.0)) is None

    def test_same_period_as_the_loop_on_the_validation_probes(self):
        config = load_config(REPO_ROOT / "waterhammer.cfg")
        config = replace(config, scenario=replace(config.scenario, mesh_cells=50))
        results, _ = compare_runs(config, write_files=False)
        closure = closure_end_time(config.scenario)
        for result in results.values():
            for series in result.probes:
                for t_min in (0.0, closure):
                    got = detect_period(series.t, series.head, t_min)
                    assert got is not None
                    assert repr(got) == repr(loop_detect_period(series.t, series.head, t_min))

    def test_same_period_as_the_loop_with_exact_zeros(self):
        # y and -y shuffled: the mean is exactly 0, so every 0 of y is an
        # exact zero of y - mean, alone or in runs
        rng = np.random.default_rng(7)
        found = 0
        for n in range(1, 400):
            ints = rng.integers(-2, 3, size=n)
            y = rng.permutation(np.concatenate([ints, -ints])).astype(float)
            if n % 3 == 0:
                y = y * rng.uniform(0.5, 2.0, size=y.size)   # zeros stay exact
            t = np.cumsum(rng.uniform(0.01, 1.0, size=y.size))
            t_min = float(t[rng.integers(t.size)]) if n % 4 == 0 else 0.0
            got = detect_period(t, y, t_min)
            assert repr(got) == repr(loop_detect_period(t, y, t_min))
            found += got is not None
        assert found > 300


class TestFirstExtremum:
    def test_peak_of_rising_pulse(self):
        t = np.linspace(0.0, 10.0, 1000)
        head = 300.0 + 400.0 * np.exp(-((t - 3.0) / 1.2) ** 2)
        assert first_extremum(t, head) == pytest.approx(700.0, rel=1e-3)

    def test_trough_detected_when_signal_dips_first(self):
        t = np.linspace(0.0, 10.0, 1000)
        head = 300.0 - 150.0 * np.exp(-((t - 2.0) / 0.8) ** 2)
        assert first_extremum(t, head) == pytest.approx(150.0, rel=1e-3)

    def test_immune_to_small_wiggles(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 10.0, 2000)
        head = 300.0 + 400.0 * np.exp(-((t - 4.0) / 1.5) ** 2)
        head = head + 0.5 * rng.standard_normal(t.size)   # ~0.1% of range
        assert first_extremum(t, head) == pytest.approx(700.0, rel=5e-3)

    def test_monotone_returns_none(self):
        t = np.linspace(0.0, 10.0, 100)
        assert first_extremum(t, 2.0 * t) is None

    def test_same_extremum_as_the_loop_on_random_series(self):
        # random walks, noisy sinusoids and integer series with ties and
        # plateaus, at hystereses from none to most of the range
        rng = np.random.default_rng(3)
        found = 0
        for n in range(1, 400):
            t = np.cumsum(rng.uniform(0.01, 1.0, n))
            if n % 3 == 0:
                y = np.cumsum(rng.standard_normal(n))
            elif n % 3 == 1:
                y = np.sin(rng.uniform(0.1, 3.0) * t) + 0.05 * rng.standard_normal(n)
            else:
                y = rng.integers(-3, 4, n).astype(float)
            hysteresis = float(rng.choice([0.0, 0.02, 0.2, 0.6]))
            t_min = float(t[rng.integers(n)]) if n % 4 == 0 else 0.0
            got = first_extremum(t, y, t_min, hysteresis)
            assert repr(got) == repr(loop_first_extremum(t, y, t_min, hysteresis))
            found += got is not None
        assert found > 300

    def test_same_extremum_as_the_loop_on_the_validation_probes(self):
        config = load_config(REPO_ROOT / "waterhammer.cfg")
        config = replace(config, scenario=replace(config.scenario, mesh_cells=50))
        results, _ = compare_runs(config, write_files=False)
        for result in results.values():
            for series in result.probes:
                for t_min in (0.0, 3.0):
                    got = first_extremum(series.t, series.head, t_min)
                    assert got is not None
                    assert repr(got) == repr(loop_first_extremum(series.t, series.head, t_min))


class TestCompareSeries:
    def test_identical_series(self):
        a = sinusoid_series()
        b = sinusoid_series()
        report = compare_series(a, b, closure_time=5.0)
        assert report.linf_head_error == 0.0
        assert report.l2_head_error == 0.0
        assert report.linf_discharge_error == 0.0
        assert report.kinetic_period == report.moc_period
        assert report.first_peak_kinetic == report.first_peak_moc

    def test_constant_head_offset(self):
        a = sinusoid_series()
        b = sinusoid_series(offset=-1.0)
        report = compare_series(a, b)
        assert report.linf_head_error == pytest.approx(1.0, rel=1e-12)
        assert report.l2_head_error == pytest.approx(1.0, rel=1e-6)

    def test_error_metrics_symmetric(self):
        a = sinusoid_series(phase=0.3)
        b = sinusoid_series(amplitude=100.0)
        fwd = compare_series(a, b)
        rev = compare_series(b, a)
        assert fwd.linf_head_error == rev.linf_head_error
        assert fwd.l2_head_error == pytest.approx(rev.l2_head_error, rel=1e-12)
        assert fwd.linf_discharge_error == rev.linf_discharge_error

    def test_resamples_to_coarser_grid(self):
        a = sinusoid_series(n=4000)
        b = sinusoid_series(n=400)
        report = compare_series(a, b)
        assert report.linf_head_error <= 1e-3 * 120.0   # interpolation error only

    def test_disjoint_windows_rejected(self):
        a = sinusoid_series(t_end=5.0)
        t = np.linspace(10.0, 20.0, 100)
        b = ProbeSeries(x=1000.0, t=t, head=np.full(100, 1.0),
                        discharge=np.zeros(100))
        with pytest.raises(ValueError):
            compare_series(a, b)

    def test_one_sample_window_has_no_l2_error(self):
        # the coarse series has one sample inside the fine one's window
        coarse = ProbeSeries(x=1000.0, t=np.array([0.0, 1.0]), head=np.array([3.0, 4.0]),
                             discharge=np.zeros(2))
        fine = ProbeSeries(x=1000.0, t=np.linspace(0.0, 0.6, 7), head=np.full(7, 2.0),
                           discharge=np.zeros(7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare_series(coarse, fine)
        assert report.l2_head_error is None
        assert report.linf_head_error == 1.0

    def test_probe_series_requires_ordered_times(self):
        with pytest.raises(ValueError):
            ProbeSeries(x=0.0, t=np.array([0.0, 0.0, 1.0]),
                        head=np.zeros(3), discharge=np.zeros(3))
