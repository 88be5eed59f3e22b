"""Quantitative comparison of two probe time series (kinetic vs MOC).

The comparison is symmetric in its error metrics: both series are restricted
to their common time window and the finer one is resampled onto the coarser
grid by linear interpolation.  The oscillation period is read off the
mean-crossings of the head signal after valve closure ends; the first
post-closure head extremum measures the surge peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProbeSeries:
    """Head/discharge history at one probe position."""

    x: float
    t: np.ndarray
    head: np.ndarray
    discharge: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("a probe series needs at least one sample")
        if not np.all(np.diff(t) > 0):
            raise ValueError("probe samples must be strictly time-ordered")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "head", np.asarray(self.head, dtype=float))
        object.__setattr__(self, "discharge", np.asarray(self.discharge, dtype=float))


@dataclass(frozen=True)
class ComparisonReport:
    probe_x: float
    linf_head_error: float
    l2_head_error: float | None        # None: fewer than two common samples
    linf_discharge_error: float
    kinetic_period: float | None
    moc_period: float | None
    first_peak_kinetic: float | None
    first_peak_moc: float | None


def detect_period(t, y, t_min=0.0):
    """Oscillation period as the median spacing of successive mean-crossings
    of the same sense of y(t) for t >= t_min (one full period separates two
    upward crossings whatever the duty cycle); None when no two like-sense
    crossings exist."""
    mask = t >= t_min
    t = t[mask]
    y = y[mask]
    if t.size < 3:
        return None
    d = y - y.mean()
    lo, hi = d[:-1], d[1:]
    # a crossing inside (t[i], t[i+1]), or an exact zero at t[i+1] between
    # nonzero values of opposite sign; a zero at t[i] starts no crossing
    touch = np.append(lo[:-1] * d[2:] < 0.0, False) & (hi == 0.0)
    i = np.flatnonzero((lo * hi < 0.0) | touch)
    lo, hi, t0, t1 = lo[i], hi[i], t[i], t[i + 1]
    tc = np.where(hi == 0.0, t1, t0 + (t1 - t0) * lo / (lo - hi))
    up, down = tc[lo < 0.0], tc[lo > 0.0]
    gaps = np.concatenate([np.diff(up), np.diff(down)])
    if gaps.size == 0:
        return None
    return float(np.median(gaps))


def first_extremum(t, y, t_min=0.0, hysteresis=0.02):
    """Value of the first local extremum of y(t) after t_min.

    A turning point only counts once the signal has retreated from it by
    ``hysteresis`` times the signal range, which makes the detector immune to
    sub-percent numerical wiggles; None for monotone or flat series.
    """
    mask = t >= t_min
    y = y[mask]
    if y.size < 3:
        return None
    span = float(y.max() - y.min())
    if span == 0.0:
        return None
    margin = hysteresis * span
    top, bottom = np.maximum.accumulate(y), np.minimum.accumulate(y)
    # a retreat from a running extreme that itself lies beyond the margin
    # from y[0], the peak tested first, from the second sample on
    peak = (top - y > margin) & (top - y[0] > margin)
    trough = (y - bottom > margin) & (y[0] - bottom > margin)
    hits = np.flatnonzero(peak[1:] | trough[1:])
    if hits.size == 0:
        return None
    i = hits[0] + 1
    return float(top[i] if peak[i] else bottom[i])


def _resample_to_coarser(a: ProbeSeries, b: ProbeSeries):
    t0 = max(a.t[0], b.t[0])
    t1 = min(a.t[-1], b.t[-1])
    if t1 <= t0:
        raise ValueError("the probe series share no common time window")
    coarse, fine = (a, b) if np.median(np.diff(a.t)) >= np.median(np.diff(b.t)) else (b, a)
    mask = (coarse.t >= t0) & (coarse.t <= t1)
    t = coarse.t[mask]
    return (t,
            (coarse.head[mask], coarse.discharge[mask]),
            (np.interp(t, fine.t, fine.head), np.interp(t, fine.t, fine.discharge)))


def compare_series(kinetic: ProbeSeries, moc: ProbeSeries,
                   closure_time=0.0) -> ComparisonReport:
    """Error metrics, periods and first surge extrema for one probe pair.

    ``closure_time`` marks the end of the valve maneuver: the period is read
    off the clean oscillation after it, while the surge extremum is searched
    from the start of the record (the peak may occur during the maneuver).
    The time-averaged L2 error needs a window of at least two samples.
    """
    t, (head_a, q_a), (head_b, q_b) = _resample_to_coarser(kinetic, moc)
    dh = head_a - head_b
    dq = q_a - q_b
    l2 = None if t.size < 2 else float(np.sqrt(np.trapezoid(dh * dh, t) / (t[-1] - t[0])))
    return ComparisonReport(
        probe_x=kinetic.x,
        linf_head_error=float(np.max(np.abs(dh))),
        l2_head_error=l2,
        linf_discharge_error=float(np.max(np.abs(dq))),
        kinetic_period=detect_period(kinetic.t, kinetic.head, closure_time),
        moc_period=detect_period(moc.t, moc.head, closure_time),
        first_peak_kinetic=first_extremum(kinetic.t, kinetic.head),
        first_peak_moc=first_extremum(moc.t, moc.head),
    )
