import warnings

import numpy as np
import pytest

from pipewave.compare import (ProbeSeries, compare_series, detect_period,
                              first_extremum)


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
